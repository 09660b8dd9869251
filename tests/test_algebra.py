"""Ladder algebra, deformed generators, and the generalized scar family."""

import math
import tracemalloc

import numpy as np
import pytest

import elliptic_reference as ref
from algebra_reference import masked_subspace
from spinops_reference import as_scipy, embed
from scarlab import algebra
from scarlab.algebra import (commutator_terms, deformed_tower_deficit, degenerate_subspace,
                             first_order_deformation, generalized_family, lambda_op,
                             perturbative_split, reduced_resolvent_apply,
                             standard_sga_witness, subspace_deficit, tau,
                             tau_double_prime)
from scarlab.elliptic import commensurate_q, jacobi_fraction
from scarlab.errors import ScarlabError
from scarlab.frames import CsseCouplings
from scarlab.hamiltonian import build_csse_chain, build_xyz_chain
from scarlab.scar import gz_energy
from scarlab.spinops import (SpinSystem, StateVector, all_up,
                             local_spin_matrices, local_sum)


def test_ladder_commutation_relations():
    for (N, S, p) in [(5, 0.5, 1), (4, 1.0, 1), (6, 0.5, 2)]:
        q0 = 2.0 * math.pi * p / N
        H = build_xyz_chain(N, S, 1.0, 1.0, math.cos(q0))
        t = tau(N, S, q0)
        lam = lambda_op(N, S, q0)
        H, t, lam = as_scipy(H.matrix), as_scipy(t.matrix), as_scipy(lam.matrix)
        comm = H @ t - t @ H
        assert np.abs((comm - lam).toarray()).max() <= 1e-12
        mutual = t @ lam - lam @ t
        assert np.abs(mutual.toarray()).max() <= 1e-12
        # Lambda annihilates the fully polarized state
        assert np.linalg.norm(lam @ all_up(SpinSystem(S, N)).amplitudes) == 0.0


@pytest.mark.parametrize("S", [0.5, 1.0])
def test_commutator_terms_assemble_the_scipy_commutator(S):
    # random terms on 1-3 sites, in any site order, overlapping or not: the
    # term-wise commutator against the product of the two assembled matrices
    rng = np.random.default_rng(int(4 * S))
    system = SpinSystem(S, 5)
    d = system.local_dim

    def random_terms(count):
        out = []
        for _ in range(count):
            sites = tuple(rng.permutation(5)[:rng.integers(1, 4)].tolist())
            shape = (d ** len(sites),) * 2
            out.append((sites, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
        return out

    left, right = random_terms(4), random_terms(3)
    A, B = (as_scipy(local_sum(system, terms)) for terms in (left, right))
    got = as_scipy(local_sum(system, commutator_terms(system, left, right)))
    want = A @ B - B @ A
    assert abs(got - want).max() <= 1e-13 * abs(want).max()


def test_sga_witness_closes_on_tower():
    wit = standard_sga_witness(6, 1.0, 1)
    assert wit.omega == 0.0
    assert max(wit.commutator_residuals) <= 1e-10


def test_tau_and_lambda_match_kron_reference():
    for N, S, sign in [(5, 1.0, +1), (4, 1.5, -1)]:
        q0 = 2.0 * math.pi / N
        system = SpinSystem(S, N)
        _, _, sz, _, sm = local_spin_matrices(S)
        want_tau = want_lam = 0.0
        for n in range(N):
            lower = np.exp(1j * sign * (n + 1) * q0) * embed(sm, n, system)
            zdiff = (embed(sz, (n + 1) % N, system)
                     - embed(sz, (n - 1) % N, system))
            want_tau = want_tau + lower
            want_lam = want_lam + 1j * math.sin(q0) * lower @ zdiff
        assert abs(as_scipy(tau(N, S, q0, sign).matrix) - want_tau).max() <= 1e-14
        assert abs(as_scipy(lambda_op(N, S, q0, sign).matrix) - want_lam).max() <= 1e-14


def test_tau_double_prime_equals_the_per_site_construction():
    # one table over the phases (n+1) q, against one scalar evaluation per site
    for (N, S, kappa) in [(5, 0.5, 0.4), (6, 1.0, 0.8), (7, 0.5, 0.93)]:
        q = commensurate_q(2, N, kappa)
        mod = ref.modulus(kappa)
        sm = local_spin_matrices(S)[4]
        terms = []
        for n in range(N):
            frac = (n + 1) * q.fraction
            sn, cn, _ = ref.jacobi_fraction(frac, mod)
            angle = math.atan2(sn, cn) + 2.0 * math.pi * math.floor(frac + 0.5)
            terms.append(((n,), np.exp(1j * angle) * sm))
        got = as_scipy(tau_double_prime(N, S, q).matrix)
        want = as_scipy(local_sum(SpinSystem(S, N), terms))
        assert (got != want).nnz == 0


def test_tau_double_prime_reduces_to_tau():
    for (N, S) in [(5, 0.5), (4, 1.0)]:
        q = commensurate_q(1, N, 0.0)
        q0 = 2.0 * math.pi / N
        diff = as_scipy(tau_double_prime(N, S, q).matrix) - as_scipy(tau(N, S, q0).matrix)
        assert np.abs(diff.toarray()).max() <= 1e-13


def test_deformed_tower_deficit_scaling():
    N, S, p = 5, 0.5, 1
    kappas = [0.1, 0.2, 0.4]
    defs = [deformed_tower_deficit(N, S, commensurate_q(p, N, k)) for k in kappas]
    assert defs[0] < defs[1] < defs[2]
    # first-order accuracy: deficit ~ kappa^4, slope >= 1.7 vs kappa^2
    x = np.log([k * k for k in kappas])
    y = np.log(defs)
    slope = np.polyfit(x, y, 1)[0]
    assert slope >= 1.7


def test_perturbative_split_remainder_order():
    N, S, p = 5, 0.5, 1
    q0 = 2.0 * math.pi * p / N
    h0, h1 = perturbative_split(N, S, q0)
    norms = []
    kappas = [0.05, 0.1, 0.2]
    for kappa in kappas:
        q = commensurate_q(p, N, kappa)
        sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
        H = build_xyz_chain(N, S, dn, 1.0, cn)
        rem = as_scipy(H.matrix) - as_scipy(h0.matrix) - kappa ** 2 * as_scipy(h1.matrix)
        norms.append(np.abs(rem.toarray()).max())
    slope = np.polyfit(np.log(kappas), np.log(norms), 1)[0]
    assert slope >= 3.5   # remainder is O(kappa^4)


def test_reduced_resolvent_solves_off_kernel():
    N, S = 4, 0.5
    q0 = 2.0 * math.pi / N
    h0, _ = perturbative_split(N, S, q0)
    evals, evecs = np.linalg.eigh(h0.matrix.toarray())
    E0 = evals[0]
    rng = np.random.default_rng(3)
    vec = rng.normal(size=h0.system.total_dim) + 0j
    out = reduced_resolvent_apply(h0, E0, vec)
    # (H0 - E0) out must equal vec with the degenerate subspace removed
    kernel = evecs[:, np.abs(evals - E0) <= 1e-8]
    vperp = vec - kernel @ (kernel.conj().T @ vec)
    assert np.linalg.norm(h0.matrix.toarray() @ out - E0 * out - vperp) <= 1e-9
    assert np.linalg.norm(kernel.conj().T @ out) <= 1e-12


@pytest.mark.parametrize("H, dtype", [
    # momentum blocks: 1-state, real (k = 0, pi) and complex blocks
    (build_xyz_chain(4, 0.5, 0.7, 1.0, 0.2), np.complex128),
    # trivial group, the two real Sz-parity blocks
    (build_xyz_chain(5, 0.5, 0.7, 1.0, 0.2, periodic=False), np.float64),
    # J13/J23 break Sz parity: one complex block per momentum
    (build_csse_chain(4, 0.5, CsseCouplings(J1=0.7, J2=1.0, J3=0.2, J12=0.1,
                                            J13=0.3, J23=-0.25)), np.complex128),
])
def test_degenerate_subspace_matches_dense_eigh(H, dtype):
    evals, evecs = np.linalg.eigh(H.matrix.toarray())
    tol = 1e-8 * max(1.0, evals[-1] - evals[0])
    for E in evals:
        want = evecs[:, np.abs(evals - E) <= tol]
        got = degenerate_subspace(H, E)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got @ got.conj().T - want @ want.conj().T).max() <= 1e-10
    # the window path keeps only the columns at E; the whole V, masked, is its oracle.
    # E is each eigenvalue and 0.99 tol off it, where a window narrower than tol drops it
    for E in np.concatenate([evals, evals + 0.99 * tol, evals - 0.99 * tol]):
        assert _projector_gap(degenerate_subspace(H, E), masked_subspace(H, E)) <= 1e-12
    # 1.01 tol beyond either end no eigenvalue is in the window, though one is in its superset
    for E in (evals[0] - 1.01 * tol, evals[-1] + 1.01 * tol):
        for subspace in (degenerate_subspace, masked_subspace):
            with pytest.raises(ScarlabError, match="no eigenvalues within tolerance"):
                subspace(H, E)


def _projector_gap(got: np.ndarray, want: np.ndarray) -> float:
    """An upper bound on max |P_got - P_want| for orthonormal columns of one
    count, ||P_got - P_want||_F = sqrt(2) ||(1 - P_want) got||_F, with no
    dim x dim matrix."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got.conj().T @ got - np.eye(got.shape[1])).max() <= 1e-12
    return math.sqrt(2) * float(np.linalg.norm(got - want @ (want.conj().T @ got)))


@pytest.mark.parametrize("S, N", [(0.5, N) for N in range(6, 13)]
                         + [(1.0, N) for N in range(4, 7)] + [(1.5, 4)])
def test_deformed_tower_deficit_equals_the_masked_full_spectrum(monkeypatch, S, N):
    q = commensurate_q(1, N, 0.2)
    _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    H, E = build_xyz_chain(N, S, dn, 1.0, cn), gz_energy(N, S, q)
    got, want = degenerate_subspace(H, E), masked_subspace(H, E)
    assert _projector_gap(got, want) <= 1e-12       # one count, at N = 4 the special q's too
    deficit = deformed_tower_deficit(N, S, q)
    monkeypatch.setattr(algebra, "degenerate_subspace", masked_subspace)
    assert abs(deficit - deformed_tower_deficit(N, S, q)) <= 1e-12


def test_degenerate_subspace_holds_no_dim_by_dim_matrix():
    N, S = 10, 0.5
    q = commensurate_q(1, N, 0.2)
    _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    H = build_xyz_chain(N, S, dn, 1.0, cn)
    H.matrix                                  # assembled before the trace
    dim = H.system.total_dim
    tracemalloc.start()
    try:
        basis = degenerate_subspace(H, gz_energy(N, S, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full path peaks above 16 dim^2 bytes (its complex V); this one near 1.5 MB
    assert basis.shape == (dim, 20) and peak <= 16 * dim * dim / 4


def test_first_order_deformation_improves_deficit():
    N, S, p, kappa = 5, 0.5, 1, 0.1
    q = commensurate_q(p, N, kappa)
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    H = build_xyz_chain(N, S, dn, 1.0, cn)
    basis = degenerate_subspace(H, gz_energy(N, S, q))
    system = SpinSystem(S, N)
    t = tau(N, S, 2.0 * math.pi * p / N)
    vec = t.matrix @ (t.matrix @ all_up(system).amplitudes)
    psi0 = StateVector(system, vec / np.linalg.norm(vec))
    before = subspace_deficit(basis, psi0)
    after = subspace_deficit(basis, first_order_deformation(N, S, p, kappa, psi0))
    assert after < 1e-2 * before


def test_generalized_family_shares_energy():
    states, basis, verdict = generalized_family(
        6, 0.5, 1, 0.6, +1, gammas=np.linspace(-0.8, 0.8, 9))
    assert verdict.max_energy_spread <= 1e-10
    assert verdict.max_residual <= 1e-10
    assert 1 <= verdict.rank <= int(round(4 * 6 * 0.5))
    assert len(states) == 9
