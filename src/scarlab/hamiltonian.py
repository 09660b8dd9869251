"""Many-body Hamiltonian builders.

Covers the 1D XYZ chain, the centrosymmetric spin-exchange (CSSE) chain with
the full symmetric 3x3 coupling per bond, the graph Hamiltonian whose CSSE
bonds carry couplings J*(dn(r*q), 1, cn(r*q)) and whose SU(2) bonds are
isotropic (graph_couplings, one 3x3 matrix per edge, which both the sparse
builder and scar.local_residual read).  Each builder returns the
ManyBodyOperator of its terms.  The rotated frame H' of the local
vanishing-condition checks is a dense array, and vanishing_conditions reads
its amplitudes from column 0 of H'.
"""

from __future__ import annotations

import numpy as np

from .elliptic import CommensurateQ, jacobi_table
from .frames import CsseCouplings
from .lattice import SU2, ScarGraph
from .spinops import (ManyBodyOperator, SiteAngles, SpinSystem, local_spin_matrices,
                      product_rotation)


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


def rotated_hamiltonian(H: ManyBodyOperator, angles: SiteAngles,
                        helicity: int = +1) -> np.ndarray:
    """H' = U H U^dag, dense, with U the inverse of the coherent-state product
    rotation V, so H' = V^dag H V.

    U maps the product scar state with the given Bloch angles onto |up...up>,
    so when the angles are scar angles, H'|up...up> = E |up...up>.  V is
    dense, hence product_rotation's dimension cap.
    """
    phi = tuple(helicity * p for p in angles.phi)
    V = product_rotation(SiteAngles(angles.theta, phi), H.system)
    HV = H.matrix @ V
    return np.conj(V, out=V).T @ HV      # in place: one dim^2 array fewer at peak


def vanishing_conditions(H_rot: np.ndarray, system: SpinSystem):
    """Per-site amplitudes that must vanish for the rotated scar to be an eigenstate.

    a2_n = <up| s+_n s+_{n+1} H' |up> (two-magnon creation amplitude) and
    a1_n = <up| s+_n H' |up> (single-magnon amplitude), both with periodic
    site indexing.  |up...up> is basis state 0 and flipping site n adds d^n
    to the index, so both are entries of H' column 0 (at N = 1, site n + 1
    is site n and the two-flip state is the one-flip state).
    """
    N, lowered = system.N, 2.0 * system.S     # <S,S-1|S-|S,S> squared
    one = system.local_dim ** np.arange(N)
    two = one + np.roll(one, -1) if N > 1 else one
    w = H_rot[:, 0]
    return lowered * w[two], np.sqrt(lowered) * w[one]
