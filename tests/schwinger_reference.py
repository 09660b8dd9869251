"""Test oracles for scarlab.schwinger: the per-state basis enumeration and the
enlarged-basis assembly of the bilinear form that composed monomials replaced.

The enlarged basis (per-site total at most 2S+2, global total within 2 of
2SN) holds every intermediate of a product of two bilinears applied to a
constrained state.  There the products are true sparse boson products, and
the inclusion matrix E of the constrained states restricts their sum:
rhs = E^T total E + constant.
"""

import functools
import math
from itertools import product as iter_product

import numpy as np
import scipy.sparse as sp

from spinops_reference import as_scipy

from scarlab.errors import DimensionMismatch
from scarlab.schwinger import DOWN, UP, FockBasis

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


class EnlargedBasis:
    """The enlarged states with FockBasis's keys, lookup and monomial."""

    dim = FockBasis.dim
    _key = FockBasis._key
    _lookup = FockBasis._lookup
    monomial = FockBasis.monomial

    def __init__(self, N, S):
        self.N, self.S, self.mode = N, S, "enlarged"
        ref = reference_states(N, S, "enlarged")
        self.states = np.array(ref, dtype=np.int8).reshape(len(ref), N, 2)
        self._site_cap = int(round(2 * S)) + SITE_CAP_SLACK["enlarged"][0]
        self._weights = (self._site_cap + 1) ** np.arange(2 * N, dtype=np.int64).reshape(N, 2)
        self._keys = self._key(self.states)
        self._order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._order]


def embed_into(small, big) -> sp.csr_matrix:
    """Inclusion matrix of small's states inside a larger basis."""
    rows = big._lookup(big._key(small.states))
    if (rows < 0).any():
        raise DimensionMismatch(f"{small.mode} states missing from the {big.mode} basis")
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


@functools.cache
def _enlarged(N, S):
    return EnlargedBasis(N, S)


def enlarged_bilinear_form(N, S, bonds, q0, Jx=1.0) -> np.ndarray:
    """Dense rhs of decomposition_check: bond products on the enlarged basis,
    restricted to the constrained states, plus -Jx S cos(q0)/2 per bond."""
    con, enl = FockBasis(N, S), _enlarged(N, S)
    E = embed_into(con, enl)
    total = sp.csr_matrix((enl.dim, enl.dim), dtype=complex)
    cos_q, sin_q = math.cos(q0), math.sin(q0)
    for n, m in bonds:
        z_nm, z_mn = (reference_bilinear(enl, "zeta", a, b) for a, b in ((n, m), (m, n)))
        e_nm, e_mn = (reference_bilinear(enl, "eta", a, b) for a, b in ((n, m), (m, n)))
        o1_nm, o1_mn = (reference_bilinear(enl, "O1", a, b) for a, b in ((n, m), (m, n)))
        o2_nm, o2_mn = (reference_bilinear(enl, "O2", a, b) for a, b in ((n, m), (m, n)))
        eps_nm, eps_mn = (reference_bilinear(enl, "epsilon", a, b) for a, b in ((n, m), (m, n)))
        total = total + (Jx * cos_q / 4.0) * (z_nm @ z_mn + e_nm.conj().T @ e_mn)
        total = total + (-0.5j * Jx * sin_q) * (
            o1_nm @ z_mn - o1_mn @ z_nm + o2_nm @ eps_mn - o2_mn @ eps_nm)
    rhs = (E.T @ total @ E).toarray()
    return rhs - len(bonds) * Jx * S * cos_q / 2.0 * np.eye(con.dim)
