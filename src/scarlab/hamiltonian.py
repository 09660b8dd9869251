"""Many-body Hamiltonian builders.

Every spin-exchange Hamiltonian here is a coupling table (u, v, M): bond k
couples sites u_k and v_k through the 3x3 exchange matrix M[k].
chain_couplings is the table of the 1D XYZ and centrosymmetric spin-exchange
(CSSE) chains, with one matrix on every bond; graph_couplings that of a graph,
whose CSSE bonds carry J*(dn(r*q), 1, cn(r*q)) and whose SU(2) bonds are
isotropic.  coupling_terms turns any table into the local_sum terms every
builder returns as a ManyBodyOperator, and scar.local_residual reads the same
tables.  The vanishing conditions of the rotated scar are the per-site and
per-bond flip amplitudes of scar.flip_amplitudes on the chain's table, with
no Hilbert-space vector.
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


def chain_couplings(N: int, M: np.ndarray, periodic: bool = True):
    """The chain's coupling table: bond columns u, v and M broadcast to (m, 3, 3).
    Bond n is (n, n + 1); a periodic chain of N >= 3 sites adds the closing
    bond (N - 1, 0), so N = 2 has one bond either way and N = 1 none."""
    u = np.arange(N - 1 + (periodic and N >= 3))
    return u, (u + 1) % N, np.broadcast_to(M, (len(u), 3, 3))


def coupling_terms(u, v, M: np.ndarray, S: float) -> list:
    """local_sum terms of sum_k sum_ab M[k, a, b] S^a_{u_k} S^b_{v_k}, the
    Hamiltonian of the coupling table (u, v, M).  One bond matrix is built per
    distinct coupling matrix, shared by its terms; the terms keep the bond order."""
    distinct, which = np.unique(np.reshape(M, (-1, 9)), axis=0, return_inverse=True)
    bonds = [_bond_matrix(S, m.reshape(3, 3)) for m in distinct]
    return [((a, b), bonds[i]) for a, b, i in zip(u.tolist(), v.tolist(), which.tolist())]


def build_xyz_chain(N: int, S: float, Jx: float, Jy: float, Jz: float,
                    periodic: bool = True) -> ManyBodyOperator:
    """H = sum_n Jx Sx_n Sx_{n+1} + Jy Sy_n Sy_{n+1} + Jz Sz_n Sz_{n+1}."""
    M = np.diag([Jx, Jy, Jz]).astype(float)
    return ManyBodyOperator(SpinSystem(S, N), coupling_terms(*chain_couplings(N, M, periodic), S))


def build_csse_chain(N: int, S: float, c: CsseCouplings,
                     periodic: bool = True) -> ManyBodyOperator:
    """Chain with the full symmetric 3x3 exchange matrix on every bond."""
    return ManyBodyOperator(SpinSystem(S, N),
                            coupling_terms(*chain_couplings(N, c.matrix(), periodic), S))


def graph_couplings(g: ScarGraph, q: CommensurateQ) -> np.ndarray:
    """(m, 3, 3) exchange matrix of every edge, in edge order: CSSE bonds
    J diag(dn(r q), 1, cn(r q)), SU(2) bonds J times the identity; the r
    multiplier evaluates the elliptic factors at r*q on the exact rational tag,
    in one jacobi_table call over the distinct r."""
    csse = g.kind != SU2
    rs, at = np.unique(g.r[csse], return_inverse=True)   # a bare np.unique imports numpy.ma
    _, index, (_, cn, dn) = jacobi_table([r * q.fraction for r in rs.tolist()], q.modulus)
    diag = np.ones((g.num_edges, 3))
    diag[csse, 0], diag[csse, 2] = dn[index][at], cn[index][at]
    M = np.zeros((g.num_edges, 3, 3))
    M[:, [0, 1, 2], [0, 1, 2]] = g.J[:, None] * diag
    return M


def build_on_graph(g: ScarGraph, S: float, q: CommensurateQ) -> ManyBodyOperator:
    """The graph Hamiltonian as the operator of its graph_couplings."""
    return ManyBodyOperator(SpinSystem(S, g.num_vertices),
                            coupling_terms(g.u, g.v, graph_couplings(g, q), S))


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
