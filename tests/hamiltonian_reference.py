"""Oracles of `scarlab.hamiltonian` that only the tests use.

The term builders the coupling table replaced: chain_bonds numbered the
chain's bonds itself (the periodic two-site chain with its single bond),
chain_terms put one bond matrix on each of them, and graph_terms built one
bond matrix per distinct row of graph_couplings.  hamiltonian.coupling_terms
must give their terms, and the builders their CSR, byte for byte.
"""

import numpy as np

from scarlab.hamiltonian import _bond_matrix, graph_couplings


def chain_bonds(N: int, periodic: bool):
    bonds = [(n, n + 1) for n in range(N - 1)]
    if periodic and N > 2:
        bonds.append((N - 1, 0))
    elif periodic and N == 2:
        bonds = [(0, 1)]          # periodic two-site chain has a single bond
    return bonds


def chain_terms(N: int, S: float, M: np.ndarray, periodic: bool = True) -> list:
    """local_sum terms of the chain with exchange matrix M on every bond."""
    bond = _bond_matrix(S, M)
    return [(b, bond) for b in chain_bonds(N, periodic)]


def graph_terms(g, S: float, q) -> list:
    """local_sum terms of the graph Hamiltonian of graph_couplings.  One bond
    matrix is built per distinct coupling matrix; the terms keep the edge order."""
    M = graph_couplings(g, q)
    distinct, which = np.unique(M.reshape(-1, 9), axis=0, return_inverse=True)
    bonds = [_bond_matrix(S, m.reshape(3, 3)) for m in distinct]
    return [((u, v), bonds[i]) for u, v, i in zip(g.u.tolist(), g.v.tolist(), which.tolist())]
