"""Many-body Hamiltonian builders.

Covers the 1D XYZ chain, the centrosymmetric spin-exchange (CSSE) chain with
the full symmetric 3x3 coupling per bond, the graph Hamiltonian whose CSSE
bonds carry couplings J*(dn(r*q), 1, cn(r*q)) and whose SU(2) bonds are
isotropic (graph_couplings, one 3x3 matrix per edge, which both the sparse
builder and scar.local_residual read), plus the rotated-frame form used for the local vanishing-condition
checks of the scar construction.
"""

from __future__ import annotations

import numpy as np

from .elliptic import CommensurateQ, jacobi_table
from .frames import CsseCouplings
from .lattice import SU2, ScarGraph
from .spinops import (ManyBodyOperator, SiteAngles, SpinSystem, all_up,
                      basis_state, local_spin_matrices, product_rotation)


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
    system = SpinSystem(S, N)
    return ManyBodyOperator.from_terms(system, chain_terms(N, S, M, periodic), hermitian=True)


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
    system = SpinSystem(S, g.num_vertices)
    return ManyBodyOperator.from_terms(system, graph_terms(g, S, q), hermitian=True)


def rotated_hamiltonian(H: ManyBodyOperator, angles: SiteAngles,
                        helicity: int = +1) -> ManyBodyOperator:
    """H' = U H U^dag with U the inverse of the coherent-state product rotation.

    U maps the product scar state with the given Bloch angles onto |up...up>,
    so when the angles are scar angles, H'|up...up> = E |up...up>.  Dense
    under the hood, hence product_rotation's dimension cap.
    """
    phi = tuple(helicity * p for p in angles.phi)
    V = product_rotation(SiteAngles(angles.theta, phi), H.system)
    Vd = V.dagger()
    return ManyBodyOperator(H.system, (Vd.matrix @ H.matrix @ V.matrix).tocsr(),
                            hermitian=H.hermitian)


def vanishing_conditions(H_rot: ManyBodyOperator):
    """Per-site amplitudes that must vanish for the rotated scar to be an eigenstate.

    a2_n = <up| s+_n s+_{n+1} H' |up> (two-magnon creation amplitude) and
    a1_n = <up| s+_n H' |up> (single-magnon amplitude), both with periodic
    site indexing.  Evaluated as overlaps of single basis vectors with H'|up>,
    so no operator products are formed.
    """
    system = H_rot.system
    N = system.N
    S = system.S
    w = H_rot.matrix @ all_up(system).amplitudes
    a2 = np.zeros(N, dtype=complex)
    a1 = np.zeros(N, dtype=complex)
    lowered = 2.0 * S                      # <S,S-1|S-|S,S> squared
    for n in range(N):
        idx1 = [0] * N
        idx1[n] = 1
        a1[n] = np.sqrt(lowered) * np.vdot(basis_state(system, idx1).amplitudes, w)
        idx2 = [0] * N
        idx2[n] = 1
        idx2[(n + 1) % N] = 1
        a2[n] = lowered * np.vdot(basis_state(system, idx2).amplitudes, w)
    return a2, a1

