"""Oracles of `scarlab.algebra` that only the tests use.

masked_subspace is the eigenspace at E read off the whole spectrum: every
eigenvector from full_spectrum(H), the dim x dim V, masked to the columns
within degeneracy_at's window of E.  degenerate_subspace keeps only those
columns as the blocks are solved, and must span the same space.
"""

import numpy as np

from scarlab.errors import ScarlabError
from scarlab.spectra import degeneracy_at, full_spectrum


def masked_subspace(H, E: float) -> np.ndarray:
    """The columns of the full eigenvector matrix within degeneracy_at's window of E."""
    evals, evecs = full_spectrum(H)
    cols = evecs[:, np.abs(evals - E) <= degeneracy_at(evals, E).tol]
    if cols.shape[1] == 0:
        raise ScarlabError(f"no eigenvalues within tolerance of E = {E}")
    return cols
