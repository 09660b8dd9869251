"""Spectrum-generating-algebra (SGA) constructions around the scar towers.

Three layers:

  * the standard ladder pair (tau, Lambda) of the XXZ point, where the scar
    tower is exactly degenerate and [H, tau] = Lambda with Lambda
    annihilating every tower state;
  * the approximated generator tau'' whose site phases follow
    arctan(sc(n q, kappa)), reproducing the deformed subspace to first order
    in kappa^2, together with the perturbative split H = H0 + kappa^2 H1;
  * the generalized family of rotation-generated states at fixed energy,
    whose pairwise energy spacings all vanish.

Eigenpairs come from spectra.full_spectrum, the one many-body eigensolver,
which checks the memory budget: every eigenvector for the reduced resolvent,
and for an eigenspace only the eigenvectors within degeneracy_at's window
around the energy, so the dim x dim eigenvector matrix is never held there.
Commutators are term lists (commutator_terms), assembled by local_sum like
any operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import CommensurateQ, jacobi_fraction, jacobi_table
from .errors import ScarlabError
from .hamiltonian import build_xyz_chain
from .scar import ScarSpec, chain_phases, gz_energy, gz_state, residual
from .spectra import degeneracy_at, full_spectrum
from .spinops import (ManyBodyOperator, SpinSystem, StateVector, all_up, expectation,
                      local_spin_matrices, lowering, tau, tower)


@dataclass
class SgaWitness:
    """Evidence that a generator closes the ladder algebra on the tower."""
    generator: ManyBodyOperator
    commutator: ManyBodyOperator    # [H, generator]
    commutator_residuals: list
    omega: float


def commutator_terms(system: SpinSystem, left, right) -> list:
    """The terms of [A, B] for A and B given by their terms: one term per set
    of sites that an overlapping pair covers (terms on disjoint sites
    commute), the sum of [a, b] over those pairs, sites ascending."""
    d, out = system.local_dim, {}
    for sa, a in left:
        for sb, b in right:
            if set(sa) & set(sb):
                union = tuple(sorted({*sa, *sb}))
                a_u, b_u = _on_union(a, sa, union, d), _on_union(b, sb, union, d)
                out[union] = out.get(union, 0) + (a_u @ b_u - b_u @ a_u)
    return list(out.items())


def _on_union(op: np.ndarray, sites, union, d: int) -> np.ndarray:
    """op on sites (sites[0] its low digit) as a matrix on union (union[0]
    the low digit), identity on union's other sites."""
    k, order = len(union), list(sites) + [n for n in union if n not in sites]
    full = np.kron(np.eye(d ** (k - len(sites))), op).reshape((d,) * 2 * k)
    axes = [k - 1 - order.index(n) for n in reversed(union)]   # tensor axis a is digit k-1-a
    return full.transpose(axes + [k + a for a in axes]).reshape(d ** k, d ** k)


def lambda_op(N: int, S: float, q0: float, sign: int = +1) -> ManyBodyOperator:
    """Lambda = i sin(q0) sum_n e^{+/- i (n+1) q0} S^-_n (S^z_{n+1} - S^z_{n-1}).

    Satisfies [H_XXZ, tau] = Lambda for Jx = Jy = 1, Jz = cos(q0) on the
    periodic chain, [tau, Lambda] = 0, and Lambda |up...up> = 0.
    """
    system = SpinSystem(S, N)
    _, _, sz, _, sm = local_spin_matrices(S)
    terms = [((n, (n + s) % N), s * 1j * math.sin(q0) * np.exp(1j * sign * (n + 1) * q0)
              * np.kron(sz, sm)) for n in range(N) for s in (+1, -1)]
    return ManyBodyOperator(system, terms)


def standard_sga_witness(N: int, S: float, p: int, helicity: int = +1) -> SgaWitness:
    """Per-m residuals ||([H, tau] - omega tau) S^(m)|| with omega = 0.

    At the XXZ point with Jz = cos(q0) the whole helical tower is degenerate,
    so the ladder relation holds with zero energy spacing.  The tower is the
    helical_tower of the same helicity.
    """
    q0 = 2.0 * math.pi * p / N
    H = build_xyz_chain(N, S, 1.0, 1.0, math.cos(q0))
    t = tau(N, S, q0, sign=helicity)
    comm = ManyBodyOperator(t.system, commutator_terms(t.system, H.terms, t.terms))
    states = tower(t.matrix, all_up(t.system).amplitudes, int(round(2 * N * S)))
    residuals = [float(np.linalg.norm(comm.matrix @ st)) for st in states]
    return SgaWitness(generator=t, commutator=comm, commutator_residuals=residuals, omega=0.0)


def _lifted_sc_angles(fracs, modulus) -> list:
    """Continuous branch of arctan(sc(u, kappa)) at each u = 4K * frac.

    The principal arctangent jumps at the sc poles u = (2k+1) K; the lift adds
    the winding accumulated over full periods so the kappa -> 0 limit gives
    exactly u (arctan(tan u) unwrapped).
    """
    _, index, (sn, cn, _) = jacobi_table(fracs, modulus)
    # atan2 jumps by 2 pi at u = 2K + 4kK; floor((u + 2K)/4K) jumps there too
    return [math.atan2(s, c) + 2.0 * math.pi * math.floor(frac + 0.5)
            for s, c, frac in zip(sn[index].tolist(), cn[index].tolist(), fracs)]


def tau_double_prime(N: int, S: float, q: CommensurateQ) -> ManyBodyOperator:
    """Deformed generator sum_n e^{i q_n} S^-_n with q_n = arctan(sc((n+1)q, kappa))."""
    return lowering(SpinSystem(S, N), _lifted_sc_angles(chain_phases(N, q), q.modulus))


def deformed_tower_deficit(N: int, S: float, q: CommensurateQ) -> float:
    """Worst subspace_deficit of tau''^m |up...up>, m = 1..2NS, against the chain's
    ED eigenspace at gz_energy(N, S, q); first-order accurate, so ~ kappa^4."""
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    basis = degenerate_subspace(build_xyz_chain(N, S, dn, 1.0, cn), gz_energy(N, S, q))
    tpp = tau_double_prime(N, S, q)
    states = list(tower(tpp.matrix, all_up(tpp.system).amplitudes, int(round(2 * N * S))))
    return max(subspace_deficit(basis, StateVector(tpp.system, st)) for st in states[1:])


def perturbative_split(N: int, S: float, q0: float):
    """H(kappa) ~ H0 + kappa^2 H1 + O(kappa^4) for the chain with q = 4pK/N.

    H0 is the XXZ chain at Jz = cos(q0); H1 = -(sin^2(q0)/2) * sum_n
    [Sx_n Sx_{n+1} + (cos(q0)/2) Sz_n Sz_{n+1}].
    """
    s2 = math.sin(q0) ** 2
    return (build_xyz_chain(N, S, 1.0, 1.0, math.cos(q0)),
            build_xyz_chain(N, S, -0.5 * s2, 0.0, -0.25 * s2 * math.cos(q0)))


def reduced_resolvent_apply(H0: ManyBodyOperator, E0: float, vec: np.ndarray) -> np.ndarray:
    """(H0 - E0)^+ vec with the degenerate eigenspace at E0 projected out.

    Eigenpairs from spectra.full_spectrum; the inverse is taken only on
    eigenvalues outside degeneracy_at's window around E0 (the standard
    first-order prescription when the unperturbed level is degenerate).
    """
    evals, evecs = full_spectrum(H0)
    coeffs = evecs.conj().T @ vec
    keep = np.abs(evals - E0) > degeneracy_at(evals, E0).tol
    coeffs = np.where(keep, coeffs / np.where(keep, evals - E0, 1.0), 0.0)
    return evecs @ coeffs


def first_order_deformation(N: int, S: float, p: int, kappa: float,
                            psi0: StateVector) -> StateVector:
    """psi0 - kappa^2 (H0 - E0)^+ H1 psi0, normalized; E0 from psi0 itself."""
    q0 = 2.0 * math.pi * p / N
    h0, h1 = perturbative_split(N, S, q0)
    e0 = expectation(h0, psi0).real
    corr = reduced_resolvent_apply(h0, e0, h1.matrix @ psi0.amplitudes)
    amps = psi0.amplitudes - kappa ** 2 * corr
    return StateVector(psi0.system, amps).normalized()


def degenerate_subspace(H: ManyBodyOperator, E: float) -> np.ndarray:
    """Orthonormal columns spanning the eigenspace of H within degeneracy_at's
    window of E, the only eigenvectors full_spectrum keeps."""
    _, cols = full_spectrum(H, E=E)
    if cols.shape[1] == 0:
        raise ScarlabError(f"no eigenvalues within tolerance of E = {E}")
    return cols


def subspace_deficit(basis: np.ndarray, psi: StateVector) -> float:
    """1 - ||P psi||^2 for the projector P onto the given orthonormal columns."""
    w = basis.conj().T @ psi.amplitudes
    return float(max(0.0, 1.0 - np.vdot(w, w).real))


@dataclass
class FamilyVerdict:
    energies: list
    residuals: list
    max_energy_spread: float
    max_residual: float
    rank: int


def orthonormalize(vectors):
    """Modified Gram-Schmidt with one re-orthogonalization pass; drops residuals <= 1e-10."""
    basis = []
    for v in vectors:
        w = np.array(v, dtype=complex)
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        nrm = np.linalg.norm(w)
        if nrm > 1e-10:
            basis.append(w / nrm)
    return basis


def generalized_family(N: int, S: float, p: int, kappa: float, helicity: int,
                       gammas) -> tuple:
    """Scar states over a gamma list, their shared-energy verdict, and a basis.

    All family members are eigenstates of the same chain Hamiltonian at the
    same energy (pairwise spacings zero), which is the content of the
    generalized ladder relation with vanishing omega.
    """
    system = SpinSystem(S, N)
    q = ScarSpec.make(helicity, p, 0.0, kappa, N).q
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    H = build_xyz_chain(N, S, dn, 1.0, cn)
    states, energies, residuals = [], [], []
    for gamma in sorted(float(g) for g in gammas):
        spec = ScarSpec(helicity=helicity, p=p, gamma=gamma, kappa=kappa, q=q)
        psi = gz_state(system, spec)
        states.append(psi)
        energies.append(expectation(H, psi).real)
        residuals.append(residual(H, psi))
    basis = orthonormalize([s.amplitudes for s in states])
    verdict = FamilyVerdict(
        energies=energies,
        residuals=residuals,
        max_energy_spread=float(max(energies) - min(energies)) if energies else 0.0,
        max_residual=float(max(residuals)) if residuals else 0.0,
        rank=len(basis))
    return states, basis, verdict
