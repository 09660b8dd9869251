"""Block discovery that `scarlab.spectra` replaced with its numpy component
routine `_components`, kept as the oracle of the block structure.

blocks is the csgraph labelling as it was: connected_components over the
graph of the nonzero entries of H, which numbers each component by its
smallest node.
"""

import numpy as np
from scipy.sparse.csgraph import connected_components


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
