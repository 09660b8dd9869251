"""Schwinger-boson realization of the helical scar subspace.

Each spin-S site carries two boson flavors; on the physical (constrained)
space every site holds exactly n_up + n_down = 2S bosons, and under the
bijection l_n = n_down it is the spin product basis, state for state and
index for index, with S+_n = c+_{n,up} c_{n,down} mapping exactly.  So tau'
is one site's monomial on every site, assembled by local_sum, and the
zeta-states tau'^m |down..> reproduce the helical tower in a
site-dependently rotated frame, the hopping and pairing bilinears annihilate
all of them, and the rotated XXZ chain equals a group-theoretical assembly
H0 + sum_a O_a T_a of those bilinears, bond by bond.  Both bilinear checks
are sums of one two-site fact, so they run on sites 0 and 1 at any N, and
FockBasis is built on one or two sites only.  Both towers are powers of a
sum of one-site operators on a product state, so their fidelities are
products of N site polynomials: no check holds a (2S+1)^N array.

A boson monomial carries exact sqrt(n) amplitudes through its intermediates
and changes every state's occupations alike, so its image is the state's
index plus the change of the n_down digits, kept on the constrained states
(a product of two bilinears is one composed four-factor monomial there) or,
in the annihilation check, with every site total at most 2S.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidInput, InvalidSpin
from .hamiltonian import chain_couplings, coupling_terms
from .scar import _site_product, hypergeometric_weights
from .spinops import (Csr, ManyBodyOperator, SpinSystem, _check_spin, _index_dtype, all_down,
                      check_bytes, local_spin_matrices, tower)

UP, DOWN = 0, 1
# kind: (sign, flavor at m, dagger at m, flavor at n) of each of its two
# monomials; site n is always annihilated
_BILINEARS = {
    "zeta": ((1, UP, True, UP), (1, DOWN, True, DOWN)),
    "eta": ((1, UP, False, DOWN), (-1, DOWN, False, UP)),
    "epsilon": ((1, UP, True, DOWN), (-1, DOWN, True, UP)),
    "O1": ((1, UP, True, UP), (-1, DOWN, False, DOWN)),
    "O2": ((1, UP, True, DOWN), (1, DOWN, True, UP)),
}


class FockBasis:
    """The constrained two-flavor boson states of N spin-S sites by spin index.

    states: int8 array (dim, N, 2) of occupations [site, flavor]; state s has
    n_down = l_n(s), the n-th base-(2S+1) digit of s (site 0 least
    significant), and n_up = 2S - l_n(s).
    """

    def __init__(self, N: int, S: float):
        d = _check_spin(S) + 1
        self.N, self.S = N, S
        # the occupations, and a monomial's working arrays beside them (28 B a state)
        check_bytes(d ** N * (2 * N + 32),
                    f"the {d ** N:,} states of the N={N} S={S} basis and one monomial on them")
        self.states = np.empty((d ** N, N, 2), dtype=np.int8)
        for n in range(N):
            # index s = (a d + l) d^n + c: a view whose middle axis is digit n
            site = self.states.reshape(d ** (N - 1 - n), d, d ** n, N, 2)[:, :, :, n]
            site[..., DOWN], site[..., UP] = np.arange(d)[:, None], np.arange(d)[::-1, None]
        self._place = d ** np.arange(N, dtype=np.int64)

    @property
    def dim(self) -> int:
        return len(self.states)

    def _images(self, ops):
        """A product of c / c+ factors, ops = [(site, flavor, dagger), ...]
        applied right to left, on every state with no intermediate projected.

        Returns (cols, rows, amp, change): the states it does not annihilate,
        their images' n_down digits as an index (a digit past 2S needs a site
        total above 2S), the exact sqrt(n) boson amplitudes, and each site's
        change of total, the same for every state.
        """
        amp = np.ones(self.dim)
        alive = np.ones(self.dim, dtype=bool)
        counts = {}
        change = np.zeros((self.N, 2), dtype=np.int64)
        for site, flavor, dagger in reversed(list(ops)):
            cnt = counts.get((site, flavor), self.states[:, site, flavor])
            # counts are int8, and np.sqrt of int8 is float16: cast first
            if dagger:
                amp, counts[site, flavor] = amp * np.sqrt((cnt + 1).astype(float)), cnt + 1
            else:
                alive &= cnt > 0
                # a dead state's count stays at 0 so no sqrt sees a negative
                amp, counts[site, flavor] = amp * np.sqrt(cnt.astype(float)), np.maximum(cnt - 1, 0)
            change[site, flavor] += 1 if dagger else -1
        cols = np.flatnonzero(alive)
        return cols, cols + change[:, DOWN] @ self._place, amp[cols], change.sum(axis=1)

    def monomial(self, ops) -> Csr:
        """_images projected onto the constrained states (P o P): a monomial
        that changes a site total has no constrained image."""
        cols, rows, amp, change = self._images(ops)
        if change.any():
            cols, rows, amp = cols[:0], rows[:0], amp[:0]
        # every state moves by one index shift, so rows ascend with cols, one entry each
        index = _index_dtype(self.dim)
        indptr = np.zeros(self.dim + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=self.dim), out=indptr[1:])
        return Csr(amp, cols.astype(index), indptr, (self.dim, self.dim))


def _monomials(kind: str, m: int, n: int) -> list:
    """(sign, ops) of the two monomials of a bilinear."""
    return [(sign, ((m, fm, dm), (n, fn, False))) for sign, fm, dm, fn in _BILINEARS[kind]]


def tau_prime(N: int, S: float) -> ManyBodyOperator:
    """Raising generator sum_n c+_{n,up} c_{n,down}.  It keeps every site
    total, so on the constrained states each monomial is one site's operator:
    the one-site basis's monomial on every site, assembled by local_sum."""
    hop = FockBasis(1, S).monomial([(0, UP, True), (0, DOWN, False)]).toarray()
    return ManyBodyOperator(SpinSystem(S, N), [((n,), hop) for n in range(N)])


def zeta_states(N: int, S: float) -> list:
    """The normalized tau'^m |down...down>, m = 0..2NS: the tower of tau'
    from all_down."""
    lift = tau_prime(N, S)
    return list(tower(lift.matrix, all_down(lift.system).amplitudes, int(round(2 * N * S))))


def zeta_tower_fidelities(N: int, S: float, p: int) -> list:
    """|<m_zeta | rotated tower state 2NS-m>| for every m (should all be 1),
    with no (2S+1)^N state.  Both towers are powers of a sum of one-site
    operators on a product state: tau'^m |down...> = m! [z^m] prod_n exp(z h)
    |down>_n, h tau''s one-site matrix, and likewise e^{i(n+1)q0} S-_n, q0 =
    2 pi p / N, on |up...>, phased by exp(i (n+1) q0 Sz_n).  Power j of h meets
    power 2S - j of S- on one basis state, so the overlap and both squared
    norms are z^m coefficients of products of N site polynomials of degree 2S."""
    two_s = _check_spin(S)
    if N < 1:
        raise InvalidSpin(f"need at least one site, got N={N}")
    d, phi = two_s + 1, 2.0 * math.pi * p / N * np.arange(1, N + 1)
    hop, zeta = FockBasis(1, S).monomial([(0, UP, True), (0, DOWN, False)]), [np.eye(d)[two_s]]
    for j in range(1, d):
        zeta.append(hop @ zeta[-1] / j)         # h^j |down> / j!
    _, _, sz, _, lower = local_spin_matrices(S)
    phase, rot, rows = np.exp(1j * np.multiply.outer(phi, sz.diagonal())), np.eye(1, d), []
    for r in range(d):                      # (e^{i(n+1)q0} S-)^r |up> / r! on site n, phased
        z, v = zeta[two_s - r], phase * rot
        rows.append((v @ z, np.full(N, z @ z), (np.abs(v) ** 2).sum(axis=1)))
        rot = np.exp(1j * phi)[:, None] * (rot @ lower.T) / (r + 1)
    # over the C(2S, j) that _site_product multiplies back; its C(2NS, m) cancels in the ratio
    site = np.array(rows[::-1]).transpose(1, 2, 0) / [math.comb(two_s, j) for j in range(d)]
    overlap, zeta_norm2, rot_norm2 = _site_product(site, 1)
    return (np.abs(overlap) / np.sqrt(zeta_norm2.real * rot_norm2.real)).tolist()


def annihilator_report(N: int, S: float) -> dict:
    """max_m ||op |m_zeta>|| for zeta, eta, epsilon on sites 0 and 1, plus a
    control, the bare pair annihilator c_{0,up} c_{1,down}, whose residual is O(1).

    A zeta-state is symmetric: |m_zeta> = sum_j sqrt(w_mj) |D_j>_01
    |D_{m-j}>_rest, D_j the two-site zeta-states and w_mj = C(4S, j)
    C(2S(N-2), m-j) / C(2SN, m), so ||op |m_zeta>||^2 = sum_j w_mj ||op D_j||^2.
    op is projected onto site totals at most 2S.  Every monomial of zeta and
    epsilon creates on the full site 0, so their rows are exact zeros by that
    projection alone; eta and the control carry the check."""
    if N < 2:
        raise InvalidInput(f"the bilinears act on sites 0 and 1: need N >= 2 sites, got N={N}")
    two_s = _check_spin(S)
    basis, pair = FockBasis(2, S), np.array(zeta_states(2, S))
    weights = next(hypergeometric_weights(2 * two_s, [two_s * (N - 2)]))   # w_mj at [j, m - j]
    m = np.add.outer(np.arange(len(pair)), np.arange(weights.shape[1])).ravel()
    kinds = {kind: _monomials(kind, 0, 1) for kind in ("zeta", "eta", "epsilon")}
    kinds["generic"] = [(1, ((0, UP, False), (1, DOWN, False)))]
    report = {}
    for kind, monos in kinds.items():
        out = np.zeros_like(pair)
        for sign, ops in monos:
            cols, rows, amp, change = basis._images(ops)
            if change.max() <= 0:                # else it creates on a full site
                out[:, rows] += sign * amp * pair[:, cols]
        norm2 = weights * (np.abs(out) ** 2).sum(axis=1)[:, None]        # w_mj ||op D_j||^2
        report[kind] = math.sqrt(np.bincount(m, norm2.ravel()).max())
    return report


def _rotated_spin_hamiltonian(N: int, S: float, q0: float) -> ManyBodyOperator:
    """cos(q0) sum S.S - sin(q0) sum (Sx_n Sy_{n+1} - Sy_n Sx_{n+1}) on the ring."""
    M = math.cos(q0) * np.eye(3)
    M[0, 1], M[1, 0] = -math.sin(q0), math.sin(q0)
    return ManyBodyOperator(SpinSystem(S, N), coupling_terms(*chain_couplings(N, M), S))


def _bond_monomials(n: int, m: int, q0: float) -> dict:
    """Composed four-factor monomials of bond (n, m)'s six bilinear products,
    each distinct ops tuple once: {ops: coefficient}."""
    def adjoint(monos):
        return [(s, tuple((i, f, not d) for i, f, d in reversed(ops))) for s, ops in monos]

    hop, cur = math.cos(q0) / 4.0, -0.5j * math.sin(q0)
    products = [(hop, _monomials("zeta", n, m), _monomials("zeta", m, n)),
                (hop, adjoint(_monomials("eta", n, m)), _monomials("eta", m, n)),
                (cur, _monomials("O1", n, m), _monomials("zeta", m, n)),
                (-cur, _monomials("O1", m, n), _monomials("zeta", n, m)),
                (cur, _monomials("O2", n, m), _monomials("epsilon", m, n)),
                (-cur, _monomials("O2", m, n), _monomials("epsilon", n, m))]
    coef = {}
    for c, left, right in products:
        for (sa, a), (sb, b) in itertools.product(left, right):
            coef[a + b] = coef.get(a + b, 0.0) + c * sa * sb
    return coef


def _bilinear_bond(S: float, q0: float) -> np.ndarray:
    """Bond (0, 1)'s composed monomials on FockBasis(2, S) as one dense
    d^2 x d^2 array, summed from zero in their listed order."""
    basis = FockBasis(2, S)
    return sum(c * basis.monomial(ops).toarray() for ops, c in _bond_monomials(0, 1, q0).items())


def decomposition_check(N: int, S: float, q0: float) -> float:
    """Entrywise deviation between the rotated ring of N sites and its
    bilinear form, in units of its coupling.  Each bond is one d^2 x d^2
    identity: bond (0, 1)'s composed monomials equal the spin bond plus
    S cos(q0)/2 + a (Sz_0 - Sz_1), a = i (2S + 1/2) sin q0, compared entry by
    entry (the bond gap).  Over the ring's coupling table a site n that is the
    first end of out_n bonds and the second of in_n keeps a (out_n - in_n) Sz_n,
    so the deviation is the larger of the bond gap and |a| S sum_n
    |out_n - in_n|, which is 0 on a ring of N >= 3.  The dense bond arrays
    peak at 3.5-3.7 x 16 B an entry at S=15/2-15, charged as 64 B."""
    d2 = (_check_spin(S) + 1) ** 2
    check_bytes(64 * d2 * d2, f"the dense {d2:,} x {d2:,} bond arrays of the S={S} decomposition")
    bond, a = _rotated_spin_hamiltonian(2, S, q0), 1j * (2 * S + 0.5) * math.sin(q0)
    sz = local_spin_matrices(S)[2]
    spin = ManyBodyOperator(bond.system, bond.terms + [
        ((0,), S * math.cos(q0) / 2.0 * np.eye(len(sz)) + a * sz), ((1,), -a * sz)]).matrix
    gap = float(np.abs(_bilinear_bond(S, q0) - spin.toarray()).max())
    u, v, _ = chain_couplings(N, np.eye(3))
    imbalance = int(np.abs(np.bincount(u, minlength=N) - np.bincount(v, minlength=N)).sum())
    return max(gap, abs(a) * S * imbalance)
