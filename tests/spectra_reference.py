"""Oracles of `scarlab.spectra` that only the tests use.

blocks is the block discovery that spectra replaced with its numpy component
routine `_components`: connected_components over the graph of the nonzero
entries of H, which numbers each component by its smallest node.
_invariant is the CSR commutation test spectra used before it read its
symmetries from the terms, with _theta_signs the time-reversal signs, and
invariant its scipy form: the relabelled matrix minus A, its largest entry
against the tolerance.  translation_matrix and
translation_sectors are the momentum-sector oracles:
the one-site shift as a sparse matrix, and the spectrum of every momentum.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from spinops_reference import as_scipy

from scarlab.errors import NotTranslationInvariant
from scarlab.spectra import _rotations, _solve
from scarlab.spinops import Csr, max_gap


def blocks(H):
    """(real, labels): whether every entry of H is exactly real, and the block
    of each basis state.

    labels[i] is the connected component of state i in the graph whose edges
    are the nonzero entries of H, so H is exactly block diagonal over them.
    For the XYZ chain the blocks are the two Sz-parity sectors, for XXZ the
    Sz sectors; a coupling that breaks Sz parity (J13, J23) leaves one block.
    """
    A = as_scipy(H.matrix)
    _, labels = connected_components(A != 0, directed=False)
    return A.dtype.kind != "c" or not np.any(A.data.imag), labels


def _invariant(A: Csr, perm: np.ndarray, sign: np.ndarray | None = None) -> bool:
    """Whether A[perm s, perm t] = A[s, t] for all s, t; with sign, whether
    sign[s] sign[t] A[perm s, perm t] = conj(A[s, t]) instead."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    s, t, h = inv[A.rows()], inv[A.indices], A.data  # entry (s, t) of the relabelled A
    if sign is not None:
        h = h * (sign[s] * sign[t])
        A = Csr(A.data.conj(), A.indices, A.indptr, A.shape)
    return max_gap(A, s, t, h) <= 1e-12 * np.abs(A.data).max(initial=0.0)


def _theta_signs(system) -> np.ndarray:
    """(-1)^(sum of the local indices l_n) of every basis index: with the
    complement and complex conjugation this is time reversal, which maps
    |l> to (-1)^l |d-1-l> on every site and flips every spin component."""
    s, total = np.arange(system.total_dim), 0
    for _ in range(system.N):
        s, l = np.divmod(s, system.local_dim)
        total = total + l
    return 1.0 - 2 * (total % 2)


def invariant(A, perm, sign=None) -> bool:
    """Whether A[perm s, perm t] = A[s, t] for all s, t; with sign, whether
    sign[s] sign[t] A[perm s, perm t] = conj(A[s, t]), in scipy arithmetic."""
    A = as_scipy(A)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    B = A[perm]
    B.indices = inv[B.indices]                       # relabelled columns, left unsorted
    B.has_sorted_indices = False
    if sign is not None:
        B.data *= np.repeat(sign, np.diff(B.indptr)) * sign[B.indices]
        A = A.conj()
    return abs(B - A).max() <= 1e-12 * abs(A).max()


def translation_matrix(system):
    """One-site cyclic shift T on the product basis (site n+1 -> n)."""
    rot = _rotations(system)
    return sp.csr_matrix((np.ones(rot.shape[1]), (rot[1 % system.N], rot[0])),
                         shape=(rot.shape[1],) * 2)


def translation_sectors(H, N):
    """Momentum-resolved spectra {k: eigenvalues} of a periodic chain.

    The momentum blocks of _solve; the multiset union over k reproduces the
    full spectrum.
    """
    if H.system.N != N:
        raise NotTranslationInvariant(f"operator acts on {H.system.N} sites, not {N}")
    evals, _, ks, record = _solve(H, vectors=False)
    if record["symmetry"] != "translation":
        raise NotTranslationInvariant("H does not commute with the one-site shift")
    return {k: evals[ks == k] for k in range(N)}
