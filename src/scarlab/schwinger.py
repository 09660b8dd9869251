"""Schwinger-boson realization of the helical scar subspace.

Each spin-S site carries two boson flavors; on the physical (constrained)
space every site holds exactly n_up + n_down = 2S bosons, and under the
bijection l_n = n_down that space is isometric to the spin product basis with
S+_n = c+_{n,up} c_{n,down} mapping exactly.  The zeta-states tau'^m |down..>
reproduce the helical tower in a site-dependently rotated frame, the hopping
and pairing bilinears annihilate all of them, and the rotated XXZ chain
equals a group-theoretical assembly H0 + sum_a O_a T_a of those bilinears,
bond by bond over the ring's coupling table (hamiltonian.chain_couplings).

Three basis modes:
  constrained - per-site total exactly 2S (the physical space);
  hardcore    - per-site total at most 2S, global total within 2 of 2SN;
                the home of the annihilation checks, where creation on a
                full site projects to zero;
  enlarged    - per-site total at most 2S+2, global total within 2 of 2SN;
                large enough to hold every intermediate of a product of two
                bilinears, used for the Hamiltonian assembly.

Operators are applied as boson monomials (amplitude sqrt factors from the
occupations, projection onto the basis only at the final state), so the
hard-core truncation never corrupts intermediate states.  A basis is an
integer occupation array with one integer key per state, so a monomial is
one vectorized pass over all states: column arithmetic on the touched
occupations, then a sorted-key lookup of the final states.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .errors import DimensionCap, DimensionMismatch, SameSite, ScarlabError
from .hamiltonian import chain_couplings, coupling_terms
from .spinops import (ManyBodyOperator, SpinSystem, _check_spin, local_spin_matrices, local_sum,
                      tower)

UP, DOWN = 0, 1
_MODES = ("constrained", "hardcore", "enlarged")
_KINDS = ("zeta", "eta", "epsilon", "O1", "O2")


class FockBasis:
    """Two-flavor boson occupation basis in one of the three modes.

    states: int8 array (dim, N, 2) of occupations [site, flavor] in product
    order, site 0 most significant.  Each state has one integer key, sum
    occ[n, f] (site_cap+1)^(2n+f); a lookup is a searchsorted on the keys.
    """

    def __init__(self, N: int, S: float, mode: str = "constrained"):
        two_s = _check_spin(S)
        if mode not in _MODES:
            raise ScarlabError(f"unknown basis mode {mode!r}")
        self.N, self.S, self.mode = N, S, mode
        if mode == "constrained":
            site_cap, slack = two_s, 0
        elif mode == "hardcore":
            site_cap, slack = two_s, 2
        else:
            site_cap, slack = two_s + 2, 2
        if (site_cap + 1) ** (2 * N) > np.iinfo(np.int64).max:
            raise DimensionCap(f"occupation keys of N={N} S={S} {mode} overflow int64")
        site_occ = np.array([(u, t - u) for t in range(site_cap + 1) for u in range(t + 1)],
                            dtype=np.int8)
        lo, hi = two_s * N - slack, two_s * N + slack
        # extend site by site, keeping prefixes whose total can still land in [lo, hi]
        states, run = np.zeros((1, 0, 2), dtype=np.int8), np.zeros(1, dtype=np.int64)
        for left in range(N - 1, -1, -1):
            tot = run[:, None] + site_occ.sum(axis=1)
            i, j = np.nonzero((tot <= hi) & (tot + left * site_cap >= lo))
            states, run = np.concatenate([states[i], site_occ[j, None]], axis=1), tot[i, j]
        self.states, self._site_cap = states, site_cap
        self._weights = (site_cap + 1) ** np.arange(2 * N, dtype=np.int64).reshape(N, 2)
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

    def monomial(self, ops) -> sp.csr_matrix:
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
        cols = cols[rows >= 0]
        return sp.csr_matrix((amp[cols], (rows[rows >= 0], cols)), shape=(self.dim, self.dim))

    def vacuum_product(self) -> np.ndarray:
        """|down...down>: every site filled with 2S down bosons."""
        occ = np.broadcast_to([0, int(round(2 * self.S))], (1, self.N, 2))
        vec = np.zeros(self.dim, dtype=complex)
        vec[self._lookup(self._key(occ))] = 1.0
        return vec

    def spin_isometry(self) -> np.ndarray:
        """Columns: constrained Fock states as spin product-basis vectors.

        The spin module indexes local states by the number of lowerings from
        Sz = +S, which equals n_down, so the map is a permutation of labels.
        """
        if self.mode != "constrained":
            raise ScarlabError("spin bijection is defined on the constrained basis")
        system = SpinSystem(self.S, self.N)
        if system.total_dim != self.dim:
            raise DimensionMismatch("constrained basis size != spin dimension")
        U = np.zeros((system.total_dim, self.dim))
        U[self.states[:, :, DOWN] @ system.local_dim ** np.arange(self.N), np.arange(self.dim)] = 1.0
        return U

    def embed_into(self, other: "FockBasis") -> sp.csr_matrix:
        """Inclusion matrix of this basis's states inside a larger basis."""
        rows = other._lookup(other._key(self.states))
        if (rows < 0).any():
            raise DimensionMismatch(f"{self.mode} states missing from the {other.mode} basis")
        return sp.csr_matrix((np.ones(self.dim), (rows, range(self.dim))),
                             shape=(other.dim, self.dim))


def bilinear(basis: FockBasis, kind: str, m: int, n: int) -> sp.csr_matrix:
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
    if kind not in _KINDS:
        raise ScarlabError(f"unknown bilinear kind {kind!r}")
    if kind == "zeta":
        return (basis.monomial(((m, UP, True), (n, UP, False)))
                + basis.monomial(((m, DOWN, True), (n, DOWN, False))))
    if kind == "eta":
        return (basis.monomial(((m, UP, False), (n, DOWN, False)))
                - basis.monomial(((m, DOWN, False), (n, UP, False))))
    if kind == "epsilon":
        return (basis.monomial(((m, UP, True), (n, DOWN, False)))
                - basis.monomial(((m, DOWN, True), (n, UP, False))))
    if kind == "O1":
        return (basis.monomial(((m, UP, True), (n, UP, False)))
                - basis.monomial(((m, DOWN, False), (n, DOWN, False))))
    return (basis.monomial(((m, UP, True), (n, DOWN, False)))
            + basis.monomial(((m, DOWN, True), (n, UP, False))))


def tau_prime(basis: FockBasis) -> sp.csr_matrix:
    """Raising generator sum_n c+_{n,up} c_{n,down}; preserves the constraint."""
    total = sp.csr_matrix((basis.dim, basis.dim))
    for n in range(basis.N):
        total = total + basis.monomial([(n, UP, True), (n, DOWN, False)])
    return total.tocsr()


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
    rot = np.exp(1j * angle)
    tower = helical_tower(N, S, +1, p)
    return [rot * st.amplitudes for st in tower.states]


def zeta_tower_fidelities(N: int, S: float, p: int) -> list:
    """|<m_zeta | rotated tower state 2NS-m>| for every m (should all be 1)."""
    basis, zstates = zeta_states(N, S)
    U = basis.spin_isometry()
    rotated = rotated_tower_states(N, S, p)
    M = len(zstates) - 1
    fids = []
    for m, zv in enumerate(zstates):
        spin_vec = U @ zv
        fids.append(float(abs(np.vdot(spin_vec, rotated[M - m]))))
    return fids


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


def decomposition_check(N: int, S: float, q0: float, Jx: float = 1.0) -> float:
    """Entrywise deviation between the rotated spin chain and its bilinear form.

    The bilinear side is the constant -N Jx S cos(q0)/2, the hopping/pairing
    block (Jx cos(q0)/4) sum (zeta_{n,n+1} zeta_{n+1,n} + eta+_{n,n+1}
    eta_{n+1,n}), and the current block (-i Jx sin(q0)/2) sum (O1_{n,n+1}
    zeta_{n+1,n} - O1_{n+1,n} zeta_{n,n+1} + O2_{n,n+1} eps_{n+1,n} -
    O2_{n+1,n} eps_{n,n+1}), assembled as true boson products on the enlarged
    basis and restricted to the constrained subspace.  The pair terms that
    drop two bosons telescope out of the restriction, and the locally
    non-Hermitian Sz difference term sums to zero on the periodic ring, so
    the two sides must agree exactly.  The bonds are those of the spin side's
    terms.
    """
    H = _rotated_spin_hamiltonian(N, S, q0, Jx)
    con = FockBasis(N, S)
    enl = FockBasis(N, S, mode="enlarged")
    E = con.embed_into(enl)
    dim = enl.dim
    total = sp.csr_matrix((dim, dim), dtype=complex)
    cos_q, sin_q = math.cos(q0), math.sin(q0)
    for (n, m), _ in H.terms:
        # bilinear only calls .monomial; O1 and O2 reuse three of the bond's
        # zeta and epsilon monomials each way, so each op tuple is built once
        bond = SimpleNamespace(monomial=functools.cache(enl.monomial))
        z_nm = bilinear(bond, "zeta", n, m)
        z_mn = bilinear(bond, "zeta", m, n)
        e_nm = bilinear(bond, "eta", n, m)
        e_mn = bilinear(bond, "eta", m, n)
        o1_nm = bilinear(bond, "O1", n, m)
        o1_mn = bilinear(bond, "O1", m, n)
        o2_nm = bilinear(bond, "O2", n, m)
        o2_mn = bilinear(bond, "O2", m, n)
        eps_nm = bilinear(bond, "epsilon", n, m)
        eps_mn = bilinear(bond, "epsilon", m, n)
        total = total + (Jx * cos_q / 4.0) * (z_nm @ z_mn + e_nm.conj().T @ e_mn)
        total = total + (-0.5j * Jx * sin_q) * (
            o1_nm @ z_mn - o1_mn @ z_nm + o2_nm @ eps_mn - o2_mn @ eps_nm)
    rhs = (E.T @ total @ E).toarray()
    rhs += -N * Jx * S * cos_q / 2.0 * np.eye(con.dim)
    U = con.spin_isometry()
    lhs = U.T @ H.matrix.toarray() @ U
    return float(np.abs(lhs - rhs).max())
