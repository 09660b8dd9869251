"""Many-body Hamiltonian builders.

Covers the 1D XYZ chain, the centrosymmetric spin-exchange (CSSE) chain with
the full symmetric 3x3 coupling per bond, the graph Hamiltonian whose CSSE
bonds carry couplings J*(dn(r*q), 1, cn(r*q)) and whose SU(2) bonds are
isotropic (graph_couplings, one 3x3 matrix per edge, which both the sparse
builder and scar.local_residual read).  Each builder returns the
ManyBodyOperator of its terms.  The vanishing conditions of the rotated scar
are the per-site and per-bond flip amplitudes of scar.flip_amplitudes on the
chain's coupling table, with no Hilbert-space vector.
"""

from __future__ import annotations

import math

import numpy as np

from .elliptic import CommensurateQ, jacobi_table
from .frames import CsseCouplings
from .lattice import SU2, ScarGraph
from .scar import flip_amplitudes
from .spinops import ManyBodyOperator, SiteAngles, SpinSystem, _check_spin, local_spin_matrices


def _bond_matrix(S: float, M: np.ndarray) -> np.ndarray:
    """d^2 x d^2 matrix of sum_ab M[a,b] S^a_u S^b_v for local_sum's sites (u, v)."""
    ops = local_spin_matrices(S)[:3]
    return sum((M[a, b] * np.kron(ops[b], ops[a])
                for a in range(3) for b in range(3) if M[a, b] != 0.0),
               np.zeros((ops[0].size,) * 2))


def _chain_bonds(N: int, periodic: bool):
    bonds = [(n, n + 1) for n in range(N - 1)]
    if periodic and N > 2:
        bonds.append((N - 1, 0))
    elif periodic and N == 2:
        bonds = [(0, 1)]          # periodic two-site chain has a single bond
    return bonds


def chain_terms(N: int, S: float, M: np.ndarray, periodic: bool = True) -> list:
    """local_sum terms of the chain with exchange matrix M on every bond."""
    bond = _bond_matrix(S, M)
    return [(b, bond) for b in _chain_bonds(N, periodic)]


def _chain_operator(N: int, S: float, M: np.ndarray, periodic: bool) -> ManyBodyOperator:
    return ManyBodyOperator(SpinSystem(S, N), chain_terms(N, S, M, periodic))


def build_xyz_chain(N: int, S: float, Jx: float, Jy: float, Jz: float,
                    periodic: bool = True) -> ManyBodyOperator:
    """H = sum_n Jx Sx_n Sx_{n+1} + Jy Sy_n Sy_{n+1} + Jz Sz_n Sz_{n+1}."""
    return _chain_operator(N, S, np.diag([Jx, Jy, Jz]).astype(float), periodic)


def build_csse_chain(N: int, S: float, c: CsseCouplings,
                     periodic: bool = True) -> ManyBodyOperator:
    """Chain with the full symmetric 3x3 exchange matrix on every bond."""
    return _chain_operator(N, S, c.matrix(), periodic)


def graph_couplings(g: ScarGraph, q: CommensurateQ) -> np.ndarray:
    """(m, 3, 3) exchange matrix of every edge, in edge order: CSSE bonds
    J diag(dn(r q), 1, cn(r q)), SU(2) bonds J times the identity; the r
    multiplier evaluates the elliptic factors at r*q on the exact rational tag,
    in one jacobi_table call over the distinct r."""
    csse = g.kind != SU2
    rs = np.unique(g.r[csse])
    _, index, (_, cn, dn) = jacobi_table([r * q.fraction for r in rs.tolist()], q.modulus)
    diag = np.ones((g.num_edges, 3))
    at = np.searchsorted(rs, g.r[csse])
    diag[csse, 0], diag[csse, 2] = dn[index][at], cn[index][at]
    M = np.zeros((g.num_edges, 3, 3))
    M[:, [0, 1, 2], [0, 1, 2]] = g.J[:, None] * diag
    return M


def graph_terms(g: ScarGraph, S: float, q: CommensurateQ) -> list:
    """local_sum terms of the graph Hamiltonian of graph_couplings.  One bond
    matrix is built per distinct coupling matrix; the terms keep the edge order."""
    M = graph_couplings(g, q)
    distinct, which = np.unique(M.reshape(-1, 9), axis=0, return_inverse=True)
    bonds = [_bond_matrix(S, m.reshape(3, 3)) for m in distinct]
    return [((u, v), bonds[i]) for u, v, i in zip(g.u.tolist(), g.v.tolist(), which.tolist())]


def build_on_graph(g: ScarGraph, S: float, q: CommensurateQ) -> ManyBodyOperator:
    """The graph Hamiltonian as the operator of its graph_terms."""
    return ManyBodyOperator(SpinSystem(S, g.num_vertices), graph_terms(g, S, q))


def chain_couplings(N: int, M: np.ndarray):
    """Bond columns u, v of the periodic chain (_chain_bonds: none at N = 1, one
    at N = 2) and M broadcast to their (m, 3, 3) coupling table."""
    u, v = np.array(_chain_bonds(N, True), dtype=int).reshape(-1, 2).T
    return u, v, np.broadcast_to(M, (len(u), 3, 3))


def vanishing_conditions(N: int, S: float, M: np.ndarray, angles: SiteAngles):
    """(a2, a1): the amplitudes that must vanish for the product state with the
    given Bloch angles to be an eigenstate of the periodic chain with exchange
    matrix M on every bond.

    In the rotated frame H' = V^dag H V, V the product rotation of the angles,
    a1_n = sqrt(2S) <up| s+_n H' |up> (one magnon at site n) and
    a2_b = 2S <up| s+_u s+_v H' |up> (two magnons on bond b = (u, v)).  These
    are sqrt(2S) c and 2S d of scar.flip_amplitudes, so there is no d^N array.
    a1 has N entries; a2 follows the bonds of chain_couplings: bond n is
    (n, n + 1 mod N) for N >= 3, N = 2 has the one bond (0, 1), N = 1 none.
    """
    _check_spin(S)
    c, d = flip_amplitudes(*chain_couplings(N, M), S, angles)
    return 2.0 * S * d, math.sqrt(2.0 * S) * c
