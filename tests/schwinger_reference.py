"""Test oracles for scarlab.schwinger: the keyed occupation bases that the
spin-index numbering replaced, the hardcore-basis annihilator check and the
enlarged-basis assembly of the bilinear form.

A keyed basis lists its states in product order (site 0 most significant)
with one int64 key per state, sum occ[n, f] (cap+1)^(2n+f), and finds a
monomial's images by a sorted-key lookup.  Its modes:
  constrained - per-site total exactly 2S (the physical space);
  hardcore    - per-site total at most 2S, global total within 2 of 2SN,
                where creation on a full site projects to zero;
  enlarged    - per-site total at most 2S+2, global total within 2 of 2SN.
The enlarged basis holds every intermediate of a product of two bilinears
applied to a constrained state.  There the products are true sparse boson
products, and the inclusion matrix E of the constrained states restricts
their sum: rhs = E^T total E + constant.
"""

import functools
import math
from itertools import product as iter_product

import numpy as np
import scipy.sparse as sp

from spinops_reference import as_scipy

from scarlab.errors import DimensionMismatch
from scarlab.schwinger import DOWN, UP, FockBasis
from scarlab.spinops import Csr, _index_dtype, tower

# mode: (site cap above 2S, global slack around 2SN)
SITE_CAP_SLACK = {"constrained": (0, 0), "hardcore": (0, 2), "enlarged": (2, 2)}


def reference_states(N, S, mode):
    """itertools.product over site occupations, filtered by the global total."""
    two_s = int(round(2 * S))
    extra, slack = SITE_CAP_SLACK[mode]
    site_cap = two_s + extra
    site_occ = [(u, t - u) for t in range(site_cap + 1) for u in range(t + 1)]
    lo, hi = two_s * N - slack, two_s * N + slack
    return [combo for combo in iter_product(site_occ, repeat=N)
            if lo <= sum(u + d for u, d in combo) <= hi]


class KeyedBasis:
    """The states of one mode with occupation keys, a sorted-key lookup and
    the keyed monomial."""

    def __init__(self, N, S, mode):
        self.N, self.S, self.mode = N, S, mode
        ref = reference_states(N, S, mode)
        self.states = np.array(ref, dtype=np.int8).reshape(len(ref), N, 2)
        self._site_cap = int(round(2 * S)) + SITE_CAP_SLACK[mode][0]
        self._weights = (self._site_cap + 1) ** np.arange(2 * N, dtype=np.int64).reshape(N, 2)
        self._keys = self._key(self.states)
        self._order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._order]

    @property
    def dim(self):
        return len(self.states)

    def _key(self, occ):
        return sum(w * col for col, w in zip(occ.reshape(len(occ), -1).T, self._weights.ravel()))

    def _lookup(self, keys):
        """Basis index of each key, -1 where the key is not a basis state."""
        pos = np.searchsorted(self._sorted_keys, keys).clip(max=self.dim - 1)
        return np.where(self._sorted_keys[pos] == keys, self._order[pos], -1)

    def monomial(self, ops) -> Csr:
        """Normal boson action of ops = [(site, flavor, dagger), ...] applied
        right to left; only the final state is looked up in the basis."""
        amp = np.ones(self.dim)
        alive = np.ones(self.dim, dtype=bool)
        counts = {}
        for site, flavor, dagger in reversed(list(ops)):
            cnt = counts.get((site, flavor), self.states[:, site, flavor])
            if dagger:
                amp, counts[site, flavor] = amp * np.sqrt((cnt + 1).astype(float)), cnt + 1
            else:
                alive &= cnt > 0
                amp, counts[site, flavor] = amp * np.sqrt(cnt.astype(float)), np.maximum(cnt - 1, 0)
        shift = np.zeros(self.dim, dtype=np.int64)
        for (site, flavor), cnt in counts.items():
            alive &= cnt <= self._site_cap
            shift += self._weights[site, flavor] * (cnt - self.states[:, site, flavor])
        cols = np.flatnonzero(alive)
        rows = self._lookup(self._keys[cols] + shift[cols])
        cols, rows = cols[rows >= 0], rows[rows >= 0]
        cols = cols[np.argsort(rows)]
        index = _index_dtype(self.dim)
        indptr = np.zeros(self.dim + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=self.dim), out=indptr[1:])
        return Csr(amp[cols], cols.astype(index), indptr, (self.dim, self.dim))

    def vacuum_product(self):
        """|down...down>: every site filled with 2S down bosons."""
        occ = np.broadcast_to([0, int(round(2 * self.S))], (1, self.N, 2))
        vec = np.zeros(self.dim, dtype=complex)
        vec[self._lookup(self._key(occ))] = 1.0
        return vec


@functools.cache
def keyed(N, S, mode):
    return KeyedBasis(N, S, mode)


def embed_into(small, big) -> sp.csr_matrix:
    """Inclusion matrix of small's states, in small's order, inside a keyed basis."""
    rows = big._lookup(big._key(small.states))
    if (rows < 0).any():
        raise DimensionMismatch(f"states missing from the {big.mode} basis")
    return sp.csr_matrix((np.ones(small.dim), (rows, range(small.dim))),
                         shape=(big.dim, small.dim))


def reference_bilinear(basis, kind, m, n) -> sp.csr_matrix:
    """The bilinears written out as sums of two monomials, in scipy arithmetic."""
    def mono(*ops):
        return as_scipy(basis.monomial(ops))

    if kind == "zeta":
        return mono((m, UP, True), (n, UP, False)) + mono((m, DOWN, True), (n, DOWN, False))
    if kind == "eta":
        return mono((m, UP, False), (n, DOWN, False)) - mono((m, DOWN, False), (n, UP, False))
    if kind == "epsilon":
        return mono((m, UP, True), (n, DOWN, False)) - mono((m, DOWN, True), (n, UP, False))
    if kind == "O1":
        return mono((m, UP, True), (n, UP, False)) - mono((m, DOWN, False), (n, DOWN, False))
    return mono((m, UP, True), (n, DOWN, False)) + mono((m, DOWN, True), (n, UP, False))


def hardcore_zeta_states(N, S):
    """The keyed hardcore basis and its normalized tau'^m |down...down>."""
    hc = keyed(N, S, "hardcore")
    tp = sum(as_scipy(hc.monomial([(n, UP, True), (n, DOWN, False)])) for n in range(N))
    return hc, list(tower(tp.tocsr(), hc.vacuum_product(), int(round(2 * N * S))))


def hardcore_annihilator_report(N, S):
    """annihilator_report on the keyed hardcore basis: each bilinear a sparse
    sum of its written-out monomials, applied to every hardcore zeta-state."""
    hc, zstates = hardcore_zeta_states(N, S)
    ops = {kind: reference_bilinear(hc, kind, 0, 1) for kind in ("zeta", "eta", "epsilon")}
    ops["generic"] = as_scipy(hc.monomial([(0, UP, False), (1, DOWN, False)]))
    return {kind: max(float(np.linalg.norm(op @ z)) for z in zstates)
            for kind, op in ops.items()}


def enlarged_bilinear_form(N, S, bonds, q0) -> np.ndarray:
    """Dense rhs of decomposition_check: bond products on the enlarged basis,
    restricted to the constrained states, plus -S cos(q0)/2 per bond."""
    con, enl = FockBasis(N, S), keyed(N, S, "enlarged")
    E = embed_into(con, enl)
    total = sp.csr_matrix((enl.dim, enl.dim), dtype=complex)
    cos_q, sin_q = math.cos(q0), math.sin(q0)
    for n, m in bonds:
        z_nm, z_mn = (reference_bilinear(enl, "zeta", a, b) for a, b in ((n, m), (m, n)))
        e_nm, e_mn = (reference_bilinear(enl, "eta", a, b) for a, b in ((n, m), (m, n)))
        o1_nm, o1_mn = (reference_bilinear(enl, "O1", a, b) for a, b in ((n, m), (m, n)))
        o2_nm, o2_mn = (reference_bilinear(enl, "O2", a, b) for a, b in ((n, m), (m, n)))
        eps_nm, eps_mn = (reference_bilinear(enl, "epsilon", a, b) for a, b in ((n, m), (m, n)))
        total = total + (cos_q / 4.0) * (z_nm @ z_mn + e_nm.conj().T @ e_mn)
        total = total + (-0.5j * sin_q) * (
            o1_nm @ z_mn - o1_mn @ z_nm + o2_nm @ eps_mn - o2_mn @ eps_nm)
    rhs = (E.T @ total @ E).toarray()
    return rhs - len(bonds) * S * cos_q / 2.0 * np.eye(con.dim)
