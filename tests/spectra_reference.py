"""Oracles of `scarlab.spectra` that only the tests use.

blocks is the block discovery that spectra replaced with its numpy component
routine `_components`: connected_components over the graph of the nonzero
entries of H, which numbers each component by its smallest node.
translation_matrix and translation_sectors are the momentum-sector oracles:
the one-site shift as a sparse matrix, and the spectrum of every momentum.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from scarlab.errors import NotTranslationInvariant
from scarlab.spectra import _rotations, _solve


def blocks(H):
    """(real, labels): whether every entry of H is exactly real, and the block
    of each basis state.

    labels[i] is the connected component of state i in the graph whose edges
    are the nonzero entries of H, so H is exactly block diagonal over them.
    For the XYZ chain the blocks are the two Sz-parity sectors, for XXZ the
    Sz sectors; a coupling that breaks Sz parity (J13, J23) leaves one block.
    """
    A = H.matrix
    _, labels = connected_components(A != 0, directed=False)
    return A.dtype.kind != "c" or not np.any(A.data.imag), labels


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
