"""Schwinger-boson realization of the helical scar subspace.

Each spin-S site carries two boson flavors; on the physical (constrained)
space every site holds exactly n_up + n_down = 2S bosons, and under the
bijection l_n = n_down that space is isometric to the spin product basis with
S+_n = c+_{n,up} c_{n,down} mapping exactly.  The zeta-states tau'^m |down..>
reproduce the helical tower in a site-dependently rotated frame, the hopping
and pairing bilinears annihilate all of them, and the rotated XXZ chain
equals a group-theoretical assembly H0 + sum_a O_a T_a of those bilinears,
bond by bond over the ring's coupling table (hamiltonian.chain_couplings).

Two basis modes:
  constrained - per-site total exactly 2S (the physical space);
  hardcore    - per-site total at most 2S, global total within 2 of 2SN;
                the home of the annihilation checks, where creation on a
                full site projects to zero.

Operators are applied as boson monomials (amplitude sqrt factors from the
occupations, projection onto the basis only at the final state), so no
truncation corrupts intermediate states.  A product of two bilinears is one
composed four-factor monomial on the constrained basis: from a constrained
state a bilinear leaves every site total within 2S +- 1 and the global total
within 2 of 2SN, so no intermediate is ever projected out.  A basis is an
integer occupation array with one integer key per state, so a monomial is
one vectorized pass over all states: column arithmetic on the touched
occupations, then a sorted-key lookup of the final states.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DimensionCap, SameSite, ScarlabError
from .hamiltonian import chain_couplings, coupling_terms
from .spinops import (Csr, ManyBodyOperator, SpinSystem, _check_spin, _index_dtype,
                      check_bytes, coo_csr, local_spin_matrices, local_sum, max_gap, tower)

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
    """Two-flavor boson occupation basis in one of the two modes.

    states: int8 array (dim, N, 2) of occupations [site, flavor] in product
    order, site 0 most significant.  Each state has one integer key, sum
    occ[n, f] (2S+1)^(2n+f); a lookup is a searchsorted on the keys.
    """

    def __init__(self, N: int, S: float, mode: str = "constrained"):
        two_s = _check_spin(S)
        if mode not in ("constrained", "hardcore"):
            raise ScarlabError(f"unknown basis mode {mode!r}")
        self.N, self.S, self.mode = N, S, mode
        if (two_s + 1) ** (2 * N) > np.iinfo(np.int64).max:
            raise DimensionCap(f"occupation keys of N={N} S={S} {mode} overflow int64")
        lo, hi = two_s * N - (2 if mode == "hardcore" else 0), two_s * N
        # states per global total: a site of total t has t + 1 flavor splits
        per_total = functools.reduce(np.convolve, [np.arange(1, two_s + 2)] * N, np.ones(1, int))
        dim = int(per_total[max(lo, 0):hi + 1].sum())
        # two int8 occupation copies at the last step; int64 keys, order, sorted keys, temporary
        check_bytes(dim * (4 * N + 32), f"the {dim:,} states of the N={N} S={S} {mode} basis")
        site_occ = np.array([(u, t - u) for t in range(two_s + 1) for u in range(t + 1)],
                            dtype=np.int8)
        # extend site by site, keeping prefixes whose total can still land in [lo, hi]
        states, run = np.zeros((1, 0, 2), dtype=np.int8), np.zeros(1, dtype=np.int64)
        for left in range(N - 1, -1, -1):
            tot = run[:, None] + site_occ.sum(axis=1)
            i, j = np.nonzero((tot <= hi) & (tot + left * two_s >= lo))
            states, run = np.concatenate([states[i], site_occ[j, None]], axis=1), tot[i, j]
        self.states, self._site_cap = states, two_s
        self._weights = (two_s + 1) ** np.arange(2 * N, dtype=np.int64).reshape(N, 2)
        self._keys = self._key(states)
        self._order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._order]

    @property
    def dim(self) -> int:
        return len(self.states)

    def _key(self, occ: np.ndarray) -> np.ndarray:
        # column by column: a matmul would first copy every occupation to int64
        return sum(w * col for col, w in zip(occ.reshape(len(occ), -1).T, self._weights.ravel()))

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Basis index of each key, -1 where the key is not a basis state."""
        pos = np.searchsorted(self._sorted_keys, keys).clip(max=self.dim - 1)
        return np.where(self._sorted_keys[pos] == keys, self._order[pos], -1)

    def monomial(self, ops) -> Csr:
        """Normal boson action of a product of c / c+ factors.

        ops is a sequence of (site, flavor, dagger) applied right to left,
        each to every state at once.  Amplitudes are the exact sqrt(n) boson
        factors; only the final state is checked against the basis, which
        implements the projection P o P without truncating intermediates.
        """
        amp = np.ones(self.dim)
        alive = np.ones(self.dim, dtype=bool)
        counts = {}
        for site, flavor, dagger in reversed(list(ops)):
            cnt = counts.get((site, flavor), self.states[:, site, flavor])
            # counts are int8, and np.sqrt of int8 is float16: cast first
            if dagger:
                amp, counts[site, flavor] = amp * np.sqrt((cnt + 1).astype(float)), cnt + 1
            else:
                alive &= cnt > 0
                # a dead state's count stays at 0 so no sqrt sees a negative
                amp, counts[site, flavor] = amp * np.sqrt(cnt.astype(float)), np.maximum(cnt - 1, 0)
        shift = np.zeros(self.dim, dtype=np.int64)
        for (site, flavor), cnt in counts.items():
            alive &= cnt <= self._site_cap
            shift += self._weights[site, flavor] * (cnt - self.states[:, site, flavor])
        cols = np.flatnonzero(alive)
        rows = self._lookup(self._keys[cols] + shift[cols])
        cols, rows = cols[rows >= 0], rows[rows >= 0]
        # every surviving state moves by one key shift: a row holds at most one entry
        cols = cols[np.argsort(rows)]
        index = _index_dtype(self.dim)
        indptr = np.zeros(self.dim + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=self.dim), out=indptr[1:])
        return Csr(amp[cols], cols.astype(index), indptr, (self.dim, self.dim))

    def monomial_sum(self, coef_ops, diagonal: float = 0.0) -> Csr:
        """diagonal times the identity plus sum_j c_j monomial(ops_j) over the
        (c_j, ops_j) pairs; entries at one place are summed in the listed
        order, the identity first (coo_csr)."""
        states = np.arange(self.dim)
        parts = [(states, states, np.full(self.dim, diagonal))]
        for c, ops in coef_ops:
            term = self.monomial(ops)
            parts.append((term.rows(), term.indices, c * term.data))
        rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
        return coo_csr(rows, cols, vals, (self.dim, self.dim))

    def vacuum_product(self) -> np.ndarray:
        """|down...down>: every site filled with 2S down bosons."""
        occ = np.broadcast_to([0, int(round(2 * self.S))], (1, self.N, 2))
        vec = np.zeros(self.dim, dtype=complex)
        vec[self._lookup(self._key(occ))] = 1.0
        return vec

    def spin_index(self) -> np.ndarray:
        """Spin product-basis index of each constrained Fock state.

        The spin module indexes local states by the number of lowerings from
        Sz = +S, site 0 least significant; that number is n_down, so the
        bijection is a permutation of labels.
        """
        if self.mode != "constrained":
            raise ScarlabError("spin bijection is defined on the constrained basis")
        return self.states[:, :, DOWN] @ (self._site_cap + 1) ** np.arange(self.N)


def _monomials(kind: str, m: int, n: int) -> list:
    """(sign, ops) of the two monomials of a bilinear."""
    return [(sign, ((m, fm, dm), (n, fn, False))) for sign, fm, dm, fn in _BILINEARS[kind]]


def bilinear(basis: FockBasis, kind: str, m: int, n: int) -> Csr:
    """Two-site boson bilinears of the group-theoretical decomposition.

    zeta    = c+_{m,up} c_{n,up} + c+_{m,down} c_{n,down}   (flavor-blind hop)
    eta     = c_{m,up} c_{n,down} - c_{m,down} c_{n,up}     (pair annihilation)
    epsilon = c+_{m,up} c_{n,down} - c+_{m,down} c_{n,up}
    O1      = c+_{m,up} c_{n,up} - c_{m,down} c_{n,down}
    O2      = c+_{m,up} c_{n,down} + c+_{m,down} c_{n,up}

    The pair annihilator carries the antisymmetric flavor combination: the
    symmetric one does not annihilate the flavor-symmetric zeta-states.
    """
    if m == n:
        raise SameSite(f"bilinear requires two distinct sites, got {m}")
    if kind not in _BILINEARS:
        raise ScarlabError(f"unknown bilinear kind {kind!r}")
    return basis.monomial_sum(_monomials(kind, m, n))


def tau_prime(basis: FockBasis) -> Csr:
    """Raising generator sum_n c+_{n,up} c_{n,down}; preserves the constraint."""
    return basis.monomial_sum((1, [(n, UP, True), (n, DOWN, False)]) for n in range(basis.N))


def zeta_states(N: int, S: float, basis: FockBasis | None = None) -> tuple:
    """Normalized tau'^m |down...down>, m = 0..2NS."""
    basis = FockBasis(N, S) if basis is None else basis
    return basis, tower(tau_prime(basis), basis.vacuum_product(), int(round(2 * N * S)))


def rotated_tower_states(N: int, S: float, p: int) -> list:
    """Helical tower mapped by the frame rotation prod_n exp(i (n+1) q0 Sz_n).

    In this frame the helical phases cancel, so state m becomes the uniform
    spin-wave state (sum_n S-_n)^m |up...up>, matching zeta-state 2NS - m
    under the Fock-spin bijection up to a global phase.
    """
    from .scar import helical_tower
    system = SpinSystem(S, N)
    q0 = 2.0 * math.pi * p / N
    sz = local_spin_matrices(S)[2]
    angle = local_sum(system, [((n,), (n + 1) * q0 * sz) for n in range(N)]).diagonal()
    return [np.exp(1j * angle) * st.amplitudes for st in helical_tower(N, S, +1, p).states]


def zeta_tower_fidelities(N: int, S: float, p: int) -> list:
    """|<m_zeta | rotated tower state 2NS-m>| for every m (should all be 1)."""
    basis, zstates = zeta_states(N, S)
    index = basis.spin_index()
    rotated = rotated_tower_states(N, S, p)
    return [float(abs(np.vdot(zv, rotated[-1 - m][index]))) for m, zv in enumerate(zstates)]


def annihilator_report(N: int, S: float) -> dict:
    """max_m ||op |m_zeta>|| for zeta, eta, epsilon plus a generic control bilinear.

    Evaluated on the hardcore basis, where creation on a full site projects
    to zero.  The control is the bare pair annihilator c_{0,up} c_{1,down},
    which lowers site totals (so it survives the hard-core projection) but
    does not annihilate the zeta-states; its residual must be O(1).
    """
    basis = FockBasis(N, S, mode="hardcore")
    _, zstates = zeta_states(N, S, basis=basis)
    ops = {kind: bilinear(basis, kind, 0, 1) for kind in ("zeta", "eta", "epsilon")}
    ops["generic"] = basis.monomial([(0, UP, False), (1, DOWN, False)])
    return {kind: max(float(np.linalg.norm(op @ z)) for z in zstates)
            for kind, op in ops.items()}


def _rotated_spin_hamiltonian(N: int, S: float, q0: float, Jx: float) -> ManyBodyOperator:
    """Jx cos(q0) sum S.S - Jx sin(q0) sum (Sx_n Sy_{n+1} - Sy_n Sx_{n+1}) on the ring."""
    M = Jx * math.cos(q0) * np.eye(3)
    M[0, 1], M[1, 0] = -Jx * math.sin(q0), Jx * math.sin(q0)
    return ManyBodyOperator(SpinSystem(S, N), coupling_terms(*chain_couplings(N, M), S))


def _bond_monomials(n: int, m: int, q0: float, Jx: float) -> dict:
    """Composed four-factor monomials of bond (n, m)'s six bilinear products,
    each distinct ops tuple once: {ops: coefficient}."""
    def adjoint(monos):
        return [(s, tuple((i, f, not d) for i, f, d in reversed(ops))) for s, ops in monos]

    hop, cur = Jx * math.cos(q0) / 4.0, -0.5j * Jx * math.sin(q0)
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


def bilinear_form(basis: FockBasis, bonds: list, q0: float, Jx: float = 1.0) -> Csr:
    """The bilinear side of decomposition_check on the constrained basis.

    Per bond (n, m): -Jx S cos(q0)/2, the hopping/pairing block
    (Jx cos(q0)/4) (zeta_nm zeta_mn + eta+_nm eta_mn), and the current block
    (-i Jx sin(q0)/2) (O1_nm zeta_mn - O1_mn zeta_nm + O2_nm eps_mn -
    O2_mn eps_nm).  Each product of two bilinears is its composed monomials,
    one monomial call per distinct ops tuple, and every term of every bond is
    summed in one monomial_sum.
    """
    return basis.monomial_sum([(c, ops) for n, m in bonds
                               for ops, c in _bond_monomials(n, m, q0, Jx).items()],
                              -len(bonds) * Jx * basis.S * math.cos(q0) / 2.0)


def decomposition_check(N: int, S: float, q0: float, Jx: float = 1.0) -> float:
    """Entrywise deviation between the rotated spin chain and its bilinear form.

    The bilinear side is bilinear_form over the bonds of the spin side's
    terms.  The pair terms that drop two bosons telescope out of the
    constrained space, and the locally non-Hermitian Sz difference term sums
    to zero on the periodic ring, so the two sides must agree exactly.  The
    spin side is read in the Fock order through the spin bijection, an index
    permutation of its CSR entries.
    """
    H = _rotated_spin_hamiltonian(N, S, q0, Jx)
    basis = FockBasis(N, S)
    index = basis.spin_index()
    rhs = bilinear_form(basis, [sites for sites, _ in H.terms], q0, Jx)
    fock = np.empty_like(index)
    fock[index] = np.arange(index.size)              # Fock position of every spin state
    A = H.matrix
    return max_gap(rhs, fock[A.rows()], fock[A.indices], A.data)
