"""Elliptic scar states: eigenstate property, towers, projections, spans."""

import math

import numpy as np
import pytest

import elliptic_reference as ref
from spectra_reference import translation_matrix
from spinops_reference import embed, stub_everywhere
from test_spectra_properties import DM_X, _chain_with_field
from scarlab import scar as scar_module
from scarlab.scar import _table_angles as table_angles
from scarlab import spinops
from scarlab.elliptic import commensurate_q, jacobi_fraction, jacobi_table
from scarlab.errors import DimensionMismatch, IncommensurateQ, InvalidInput, ScarlabError
from scarlab.hamiltonian import (_bond_matrix, _chain_bonds, build_on_graph, build_xyz_chain,
                                 graph_couplings, rotated_hamiltonian, vanishing_conditions)
from scarlab.lattice import (Edge, ScarGraph, assign_site_phases, chain,
                             check_circuit_rule, honeycomb_su2, kagome_su2, lieb,
                             modified_honeycomb,
                             nnn_chain, square, square_shifted, triangular_su2,
                             trimer_brickwall, trimer_ladder, vertex_flow)
from scarlab.scar import (ScarSpec, chain_phases, flip_amplitudes, gz_angles, gz_energy,
                          gz_state, helical_expansion, helical_tower, local_residual,
                          local_sz_current, predicted_sz_current, projection_table,
                          projections, residual, shared_state_overlaps, site_angles, span_rank)
from scarlab.spinops import (ManyBodyOperator, SiteAngles, SpinSystem, coherent_product_state,
                             expectation, local_spin_matrices, local_sum,
                             site_spin_expectations)


def chain_setup(N, S, p, kappa):
    q = commensurate_q(p, N, kappa)
    sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    return q, build_xyz_chain(N, S, dn, 1.0, cn)


@pytest.mark.parametrize("N,S,p,kappa,gamma,helicity", [
    (5, 0.5, 1, 0.0, 0.0, +1),
    (5, 0.5, 1, 0.6, 0.5, -1),
    (6, 1.0, 1, 0.8, 0.9, +1),
    (7, 0.5, 2, 0.4, 0.3, +1),
    (4, 1.5, 1, 0.5, 0.7, -1),
])
def test_eigenstate_residual(N, S, p, kappa, gamma, helicity):
    q, H = chain_setup(N, S, p, kappa)
    system = SpinSystem(S, N)
    psi = gz_state(system, ScarSpec.make(helicity, p, gamma, kappa, N))
    assert residual(H, psi) <= 1e-12


def test_gz_energy_equals_the_per_point_sum_bit_for_bit():
    # one table over the phases n q, n = 1..N+1, against 2N+1 scalar evaluations
    for (N, S, p, kappa) in [(5, 0.5, 1, 0.5), (8, 1.5, 3, 0.6), (12, 1.0, 5, 0.93)]:
        q = commensurate_q(p, N, kappa)
        mod = ref.modulus(kappa)
        sn_q, cn_q, dn_q = ref.jacobi_fraction(q.fraction, mod)
        acc = 0.0
        for n in range(1, N + 1):
            acc += (ref.jacobi_fraction(n * q.fraction, mod)[0]
                    * ref.jacobi_fraction((n + 1) * q.fraction, mod)[0])
        assert gz_energy(N, S, q) == N * S * S * cn_q * dn_q + (kappa * S * sn_q) ** 2 * acc


def test_site_expectations_follow_elliptic_profile():
    N, S, p, kappa, gamma = 6, 1.0, 1, 0.7, 0.5
    q = commensurate_q(p, N, kappa)
    spec = ScarSpec.make(+1, p, gamma, kappa, N)
    psi = gz_state(SpinSystem(S, N), spec)
    exp = site_spin_expectations(psi)
    for n in range(N):
        sn, cn, dn = jacobi_fraction((n + 1) * q.fraction, q.modulus)
        want = S * np.array([spec.alpha * cn, spec.beta * sn, gamma * dn])
        assert np.abs(exp[n] - want).max() <= 1e-12


def test_gz_energy_matches_expectation():
    for (N, S, p, kappa) in [(5, 0.5, 1, 0.5), (6, 1.0, 1, 0.8), (7, 1.0, 2, 0.4)]:
        q, H = chain_setup(N, S, p, kappa)
        psi = gz_state(SpinSystem(S, N), ScarSpec.make(+1, p, 0.6, kappa, N))
        assert gz_energy(N, S, q) == pytest.approx(
            expectation(H, psi).real, abs=1e-10)


def test_incommensurate_q_rejected():
    spec = ScarSpec.make(+1, 1, 0.0, 0.5, 7)
    with pytest.raises(IncommensurateQ):
        gz_state(SpinSystem(0.5, 6), spec)


def test_tower_sz_and_translation_eigenstates():
    N, S, p = 5, 1.0, 1
    system = SpinSystem(S, N)
    tower = helical_tower(N, S, +1, p)
    _, _, szl, _, _ = local_spin_matrices(S)
    sz_tot = None
    for n in range(N):
        t = embed(szl, n, system).matrix
        sz_tot = t if sz_tot is None else sz_tot + t
    T = translation_matrix(system)
    for m, st in enumerate(tower.states):
        v = st.amplitudes
        # total Sz eigenvalue NS - m
        assert np.linalg.norm(sz_tot @ v - (N * S - m) * v) <= 1e-12
        # translation eigenvalue e^{+i m q0}
        lam = np.exp(1j * m * tower.q0)
        assert np.linalg.norm(T @ v - lam * v) <= 1e-12


def test_helical_expansion_reproduces_xxz_scar():
    for N in (4, 5, 6, 7):
        for S in (0.5, 1.0):
            p = 1
            q0 = 2.0 * math.pi * p / N
            gamma = 0.35
            psi = gz_state(SpinSystem(S, N), ScarSpec.make(+1, p, gamma, 0.0, N))
            chi = helical_expansion(helical_tower(N, S, +1, p), math.acos(gamma))
            ov = chi.overlap(psi)
            assert abs(abs(ov) - 1.0) <= 1e-12
            # global phase carried by the product state relative to the tower
            want = -S * N * (N + 1) * q0 / 2.0
            dev = (np.angle(ov) - want) % (2.0 * math.pi)
            assert min(dev, 2.0 * math.pi - dev) <= 1e-10


def test_projections_limits_and_budget():
    N, S, p = 7, 1.0, 1
    for gamma in (0.1, 0.5, 0.9):
        p_same, p_oppo = projections(N, S, p, 0.0, gamma)
        assert p_same == pytest.approx(1.0, abs=1e-10)
    for kappa in (0.4, 0.8):
        prev = None
        for gamma in np.arange(0.1, 0.95, 0.1):
            p_same, p_oppo = projections(N, S, p, kappa, float(gamma))
            assert p_same + p_oppo <= 1.0 + 1e-12
            if prev is not None:
                assert p_same <= prev + 1e-12
            prev = p_same


@pytest.mark.parametrize("N,p", [(N, p) for N in range(3, 9) for p in range(1, N)])
def test_opposite_tower_weight_vanishes_at_kappa_zero(N, p):
    # the shared stride N / gcd(2p, N) skips every opposite-tower state the
    # helical scar touches, also when gcd(2p, N) > 2
    for gamma in (0.2, 0.7):
        p_same, p_oppo = projections(N, 0.5, p, 0.0, gamma)
        assert p_same == pytest.approx(1.0, abs=1e-10)
        assert p_oppo <= 1e-28


def _reference_projections(N, S, p, kappa, gamma, helicity=+1):
    """The per-call projections: both towers rebuilt for every gamma."""
    system = SpinSystem(S, N)
    psi = gz_state(system, ScarSpec.make(helicity, p, gamma, kappa, N))
    same = helical_tower(N, S, helicity, p)
    oppo = helical_tower(N, S, -helicity, p)
    p_same = sum(abs(st.overlap(psi)) ** 2 for st in same.states)
    shared = N // math.gcd(2 * p, N)
    p_oppo = 0.0
    for m in range(1, len(same.states) - 1):
        if m % shared:
            p_oppo += abs(oppo.states[m].overlap(psi)) ** 2
    return float(p_same), float(p_oppo)


@pytest.mark.parametrize("N,S,p,helicity", [(6, 0.5, 1, +1), (5, 1.0, 2, -1), (4, 1.5, 1, +1),
                                            (8, 0.5, 2, -1)])
def test_projection_table_equals_the_per_call_path(N, S, p, helicity, monkeypatch):
    gammas = [-0.9, -0.3, 0.0, 0.45, 0.9]
    for kappa in (0.0, 0.35, 0.8):
        want = [_reference_projections(N, S, p, kappa, g, helicity) for g in gammas]
        calls, tables, angles = [], [], []
        monkeypatch.setattr(scar_module, "helical_tower",
                            lambda *a: calls.append(a) or helical_tower(*a))
        monkeypatch.setattr(scar_module, "jacobi_table",
                            lambda *a: tables.append(a) or jacobi_table(*a))
        monkeypatch.setattr(scar_module, "_table_angles",
                            lambda *a: angles.append(a) or table_angles(*a))
        assert projection_table(N, S, p, kappa, gammas, helicity) == want    # bit for bit
        assert len(calls) == 2
        assert len(tables) == 1     # one phase table for every gamma
        assert len(angles) == 1     # and one angle grid
        monkeypatch.undo()
        assert projections(N, S, p, kappa, gammas[1], helicity) == want[1]


def test_shared_states_between_towers():
    idx, mat = shared_state_overlaps(6, 0.5, 1)
    # ends of the tower are the fully polarized states, shared exactly
    assert idx[0] == 0 and idx[-1] == len(idx) * 0 + max(idx)
    assert abs(abs(mat[0, 0]) - 1.0) <= 1e-12
    assert abs(abs(mat[-1, -1]) - 1.0) <= 1e-12


def test_span_rank_bounds():
    N, S = 7, 1.0
    assert span_rank(N, S, 0.0) == int(round(2 * N * S)) + 1
    ranks = [span_rank(N, S, k) for k in (0.2, 0.5, 0.8)]
    assert all(r <= int(round(4 * N * S)) for r in ranks)
    assert len(set(ranks + [15])) >= 2


def _span_rank_per_column(N, S, kappa, helicity=+1, p=1, rel_tol=1e-8):
    """Reference: one ScarSpec.make and one gz_state per gamma, doubling audit kept."""
    system = SpinSystem(S, N)
    min_pts = int(round(4 * N * S)) + 4

    def grid(count):
        nodes = np.cos((2 * np.arange(count) + 1) * np.pi / (2 * count))
        return 0.99 * nodes

    def rank_for(gammas):
        cols = [gz_state(system, ScarSpec.make(helicity, p, float(g), kappa, N)).amplitudes
                for g in gammas]
        sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
        return int(np.sum(sv > rel_tol * sv[0]))

    r1, r2 = rank_for(grid(2 * min_pts)), rank_for(grid(4 * min_pts))
    assert r1 == r2
    return r1


@pytest.mark.parametrize("N,S", [(6, 0.5), (5, 1.0), (4, 1.5), (7, 1.0), (9, 0.5)])
def test_span_rank_matches_per_column_reference(N, S):
    for kappa in (0.0, 0.35, 0.85):
        for helicity, p in ((+1, 1), (-1, 2)):
            assert span_rank(N, S, kappa, helicity, p) == _span_rank_per_column(
                N, S, kappa, helicity, p)


def _table_angles_per_spec(helicity, p, kappa, gammas, q, table):
    """Reference: one ScarSpec per gamma and a Python loop over the distinct
    phases, math.atan2 and math.acos per element."""
    winding, index, elliptic = table
    two_pi, thetas, phis = 2.0 * math.pi, [], []
    for gamma in gammas:
        spec = ScarSpec(helicity, p, float(gamma), float(kappa), q)
        theta, local = [], []
        for sn, cn, dn in zip(*(f.tolist() for f in elliptic)):
            ux, uy = spec.alpha * cn, spec.beta * sn
            local.append(math.atan2(uy, ux) % two_pi if (abs(ux) > 0 or abs(uy) > 0) else 0.0)
            theta.append(math.acos(max(-1.0, min(1.0, spec.gamma * dn))))
        thetas.append(np.array(theta)[index])
        phis.append(spec.helicity * (two_pi * winding + np.array(local)[index]))
    return np.array(thetas), np.array(phis)


@pytest.mark.parametrize("N", [1, 2, 5, 12])
@pytest.mark.parametrize("kappa", [0.0, 0.55, 0.9])
@pytest.mark.parametrize("helicity", [+1, -1])
def test_grid_angles_bit_identical_to_per_spec_loop(N, kappa, helicity):
    q = commensurate_q(1, N, kappa)
    table = jacobi_table(chain_phases(N, q), q.modulus)
    # the Chebyshev grids of span_rank at S = 1/2 and S = 1; the ends and the
    # middle; NaN, which passes the |gamma| <= 1 check and Python's max and min;
    # gammas where libm's pow(x, 2) and x * x give alpha (the first) or beta at
    # kappa 0.55 and 0.9 one ulp apart
    grids = [scar_module._chebyshev_grid(count) for count in (4 * N + 8, 8 * N + 8, 16 * N + 16)]
    for gammas in grids + [np.array([-1.0, 0.0, 1.0, math.nan, -0.803434124030634,
                                     -0.7736516799071553, 0.41426112845625895])]:
        theta, phi = table_angles(helicity, kappa, gammas, table)
        want_theta, want_phi = _table_angles_per_spec(helicity, 1, kappa, gammas, q, table)
        assert theta.shape == phi.shape == (len(gammas), N)
        assert theta.tobytes() == want_theta.tobytes()
        assert phi.tobytes() == want_phi.tobytes()


def test_span_rank_rejects_small_grid():
    with pytest.raises(ScarlabError):
        span_rank(5, 0.5, 0.3, gamma_grid=np.linspace(-0.9, 0.9, 5))


def test_gamma_families_are_checked_like_scar_specs():
    with pytest.raises(InvalidInput, match=r"\|gamma\| must be <= 1, got 1.5"):
        projection_table(5, 0.5, 1, 0.3, [0.2, 1.5])
    with pytest.raises(InvalidInput, match="helicity"):
        projection_table(5, 0.5, 1, 0.3, [0.2], helicity=0)
    with pytest.raises(InvalidInput, match="got -1.2"):
        span_rank(5, 0.5, 0.3, gamma_grid=np.linspace(-1.2, 0.9, 30))
    with pytest.raises(InvalidInput, match="helicity"):
        span_rank(5, 0.5, 0.3, helicity=2)


def test_graph_scar_and_current():
    g = square(3, 3)
    S = 0.5
    q = commensurate_q(1, 3, 0.5)
    system = SpinSystem(S, g.num_vertices)
    spec = ScarSpec(helicity=+1, p=1, gamma=0.4, kappa=0.5, q=q)
    H = build_on_graph(g, S, q)
    psi = gz_state(system, spec, graph=g)
    assert residual(H, psi) <= 1e-12
    cur = local_sz_current(g, system, spec, H)
    # the vertex rule zeroes the predicted current on this lattice
    assert np.abs(predicted_sz_current(g, system, spec)).max() <= 1e-12
    assert np.abs(cur).max() <= 1e-10


def test_gz_angles_checks_like_gz_state():
    spec = ScarSpec.make(+1, 1, 0.3, 0.5, 5)
    with pytest.raises(IncommensurateQ):
        gz_angles(6, spec)
    with pytest.raises(DimensionMismatch):
        gz_angles(8, spec, graph=square(3, 3))


def _site_angles_per_site(spec, phases):
    """Reference: one elliptic evaluation per site, no sharing."""
    thetas, phis = [], []
    for frac in phases:
        sn, cn, dn = ref.jacobi_fraction(frac, spec.q.modulus)
        ux, uy, uz = spec.alpha * cn, spec.beta * sn, spec.gamma * dn
        thetas.append(math.acos(max(-1.0, min(1.0, uz))))
        local = math.atan2(uy, ux) % (2.0 * math.pi) if (abs(ux) > 0 or abs(uy) > 0) else 0.0
        phis.append(spec.helicity * (2.0 * math.pi * math.floor(frac) + local))
    return tuple(thetas), tuple(phis)


def test_site_angles_bit_identical_to_per_site_evaluation():
    for kappa, gamma, helicity in [(0.0, 0.0, +1), (0.4, 0.6, -1), (0.9, -0.8, +1)]:
        q = commensurate_q(1, 4, kappa)
        spec = ScarSpec(helicity=helicity, p=1, gamma=gamma, kappa=kappa, q=q)
        for phases in (chain_phases(13, q), assign_site_phases(lieb(4, 4), q),
                       [q.fraction * k for k in (-9, -1, 0, 3, 7, 7, 22)]):
            angles = site_angles(spec, phases)
            assert (angles.theta, angles.phi) == _site_angles_per_site(spec, phases)


def _site_angles_fraction_loop(spec, phases):
    """Reference: the Fraction loop with a dict of reduced phases."""
    two_pi = 2.0 * math.pi
    local_angles = {}
    thetas, phis = [], []
    for frac in phases:
        winding = math.floor(frac)
        reduced = frac - winding
        if reduced not in local_angles:
            sn, cn, dn = ref.jacobi_fraction(reduced, spec.q.modulus)
            ux, uy = spec.alpha * cn, spec.beta * sn
            local = math.atan2(uy, ux) % two_pi if (abs(ux) > 0 or abs(uy) > 0) else 0.0
            local_angles[reduced] = (math.acos(max(-1.0, min(1.0, spec.gamma * dn))), local)
        theta, local = local_angles[reduced]
        thetas.append(theta)
        phis.append(spec.helicity * (two_pi * winding + local))
    return tuple(thetas), tuple(phis)


def _phase_sets(q):
    yield chain_phases(13, q)
    for g in (lieb(3, 3), square_shifted(4, 3), nnn_chain(12)):
        if check_circuit_rule(g, q).satisfied:
            yield assign_site_phases(g, q)


@pytest.mark.parametrize("kappa,gamma", [(0.0, -1.0), (0.0, 0.0), (0.0, 1.0),
                                         (0.45, 0.3), (0.9, -0.75)])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("helicity", [+1, -1])
def test_site_angles_bit_identical_to_fraction_loop(kappa, gamma, p, helicity):
    counted = 0
    for denom in (13, 12, 6, 4, 3):
        q = commensurate_q(p, denom, kappa)
        spec = ScarSpec(helicity=helicity, p=p, gamma=gamma, kappa=kappa, q=q)
        for phases in _phase_sets(q):
            angles = site_angles(spec, phases)
            theta, phi = _site_angles_fraction_loop(spec, phases)
            assert np.array(angles.theta).tobytes() == np.array(theta).tobytes()
            assert np.array(angles.phi).tobytes() == np.array(phi).tobytes()
            counted += 1
    assert counted >= 8


@pytest.mark.parametrize("g,denom", [(square(100, 100), 100), (nnn_chain(3000), 3000)])
def test_site_angles_on_large_lattices_bit_identical_to_fraction_loop(g, denom):
    # 10^4 sites with 100 distinct phases, 3,000 sites with 3,000 distinct phases
    for kappa, gamma, helicity in [(0.0, 0.4, +1), (0.37, -0.6, -1), (0.93, 0.9, +1)]:
        q = commensurate_q(1, denom, kappa)
        spec = ScarSpec(helicity=helicity, p=1, gamma=gamma, kappa=kappa, q=q)
        phases = assign_site_phases(g, q)
        angles = site_angles(spec, phases)
        theta, phi = _site_angles_fraction_loop(spec, phases)
        assert np.array(angles.theta).tobytes() == np.array(theta).tobytes()
        assert np.array(angles.phi).tobytes() == np.array(phi).tobytes()


def test_predicted_sz_current_bit_identical_to_per_vertex_evaluation():
    # an open path carries net sigma flow at its ends and where sigma turns
    g = ScarGraph(5, [Edge(0, 1, +1), Edge(1, 2, +1), Edge(2, 3, -1), Edge(3, 4, +1, r=2)])
    system = SpinSystem(1.0, 5)
    for kappa in (0.0, 0.55):
        spec = ScarSpec.make(-1, 1, 0.3, kappa, 7)
        phases = assign_site_phases(g, spec.q)
        sn_q, _, _ = ref.jacobi_fraction(spec.q.fraction, spec.q.modulus)
        flow = vertex_flow(g)
        want = [-spec.alpha * spec.beta * 1.0 * 1.0
                * ref.jacobi_fraction(phases[n], spec.q.modulus)[2] * sn_q * flow[n]
                for n in range(5)]
        got = predicted_sz_current(g, system, spec)
        assert np.any(got != 0.0)
        assert got.tobytes() == np.array(want).tobytes()


# every generator at ED size, with the spin per graph
ED_GRAPHS = [
    (chain(6), 0.5), (square(3, 3), 0.5), (square_shifted(4, 3), 0.5), (lieb(2, 2), 0.5),
    (triangular_su2(3, 3), 0.5), (kagome_su2(2, 2), 0.5), (honeycomb_su2(4, 2), 0.5),
    (modified_honeycomb(4, 3), 0.5), (trimer_ladder(4), 0.5), (trimer_brickwall(3, 3), 0.5),
    (nnn_chain(8), 1.0),
]


def _largest_admitted_denominator(g):
    return max(d for d in range(1, 13)
               if check_circuit_rule(g, commensurate_q(1, d, 0.5)).satisfied)


def _chain_couplings(N, q):
    """Bond columns and (m, 3, 3) couplings diag(dn(q), 1, cn(q)) of the periodic chain."""
    _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    u, v = np.array(_chain_bonds(N, True), dtype=int).reshape(-1, 2).T
    return u, v, np.broadcast_to(np.diag([dn, 1.0, cn]), (len(u), 3, 3))


@pytest.mark.parametrize("g,S", ED_GRAPHS)
def test_term_list_residual_matches_sparse_residual(g, S):
    # local_residual on graph_couplings against the ED residual of build_on_graph
    denom = _largest_admitted_denominator(g)
    system = SpinSystem(S, g.num_vertices)
    spec = ScarSpec(helicity=-1, p=1, gamma=0.3, kappa=0.4, q=commensurate_q(1, denom, 0.4))
    angles = gz_angles(g.num_vertices, spec, graph=g)
    psi = gz_state(system, spec, graph=g)
    # kappa_H = 0.4 is the scar's own H; 0.8 makes psi a non-eigenstate
    for kappa_h in (0.4, 0.8):
        q = commensurate_q(1, denom, kappa_h)
        got = local_residual(g.u, g.v, graph_couplings(g, q), S, angles)
        want = residual(build_on_graph(g, S, q), psi)
        assert abs(got - want) <= 1e-13 + 1e-12 * want
    assert local_residual(g.u, g.v, graph_couplings(g, spec.q), S, angles) <= 1e-12


def test_term_list_residual_on_the_chain():
    # local_residual on the chain's bonds with diag(dn, 1, cn) against the ED residual
    for N, S, p, kappa, gamma in [(5, 0.5, 1, 0.6, 0.5), (6, 1.0, 1, 0.8, 0.9),
                                  (4, 1.5, 1, 0.5, 0.7), (2, 1.0, 1, 0.4, 0.3),
                                  (1, 0.5, 1, 0.5, 0.2)]:
        spec = ScarSpec.make(+1, p, gamma, kappa, N)
        psi = gz_state(SpinSystem(S, N), spec)
        for kappa_h in (kappa, 0.3):
            q = commensurate_q(p, N, kappa_h)
            sn, cn, dn = jacobi_fraction(q.fraction, q.modulus)
            got = local_residual(*_chain_couplings(N, q), S, gz_angles(N, spec))
            want = residual(build_xyz_chain(N, S, dn, 1.0, cn), psi)
            assert abs(got - want) <= 1e-13 + 1e-12 * want
            # N = 1 has no bond, and at N = 2, q = 2K gives (dn, cn) = (1, -1) at any
            # kappa_H: there psi is an eigenstate of every kappa_H's H
            assert (got <= 1e-12) == (kappa_h == kappa or N <= 2)


@pytest.mark.parametrize("N,S", [(1, 0.5), (2, 1.0), (3, 0.5), (5, 1.5), (6, 1.0)])
def test_local_residual_matches_ed_on_random_product_states(N, S):
    # a random real 3x3 coupling per bond, not symmetric, and random Bloch angles
    rng = np.random.default_rng(17 + N)
    system = SpinSystem(S, N)
    u, v = np.array(_chain_bonds(N, True), dtype=int).reshape(-1, 2).T
    for _ in range(4):
        M = rng.normal(size=(len(u), 3, 3))
        angles = SiteAngles.make(rng.uniform(0.0, math.pi, N), rng.uniform(-4.0, 4.0, N))
        H = local_sum(system, [((a, b), _bond_matrix(S, m)) for a, b, m in zip(u, v, M)])
        got = local_residual(u, v, M, S, angles)
        want = residual(ManyBodyOperator(system, H, hermitian=True),
                        coherent_product_state(angles, system))
        assert abs(got - want) <= 1e-13 + 1e-12 * want
        assert (want > 1e-2) == (N > 1)


@pytest.mark.parametrize("N,S,kappa,kappa_h", [(6, 1.0, 0.6, 0.6), (6, 1.0, 0.6, 0.85),
                                               (5, 0.5, 0.4, 0.7), (4, 1.5, 0.5, 0.2)])
def test_flip_amplitudes_are_the_vanishing_conditions(N, S, kappa, kappa_h):
    # a1_n = sqrt(2S) <flip_n|H'|up>, a2_n = 2S <flip_n flip_n+1|H'|up> in the rotated frame
    spec = ScarSpec.make(+1, 1, 0.4, kappa, N)
    angles = gz_angles(N, spec)
    q = commensurate_q(1, N, kappa_h)
    _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    a2, a1 = vanishing_conditions(rotated_hamiltonian(build_xyz_chain(N, S, dn, 1.0, cn), angles))
    c, d = flip_amplitudes(*_chain_couplings(N, q), S, angles)
    assert np.abs(np.abs(a1) - math.sqrt(2 * S) * np.abs(c)).max() <= 1e-12
    assert np.abs(np.abs(a2) - 2 * S * np.abs(d)).max() <= 1e-12
    assert (max(np.abs(a1).max(), np.abs(a2).max()) > 1e-3) == (kappa_h != kappa)


def _local_sz_current_per_site(g, system, spec, H):
    """Reference: one diagonal Sz_n and one extra matvec per site."""
    psi = gz_state(system, spec, graph=g).amplitudes
    sz = local_spin_matrices(system.S)[2]
    out = np.zeros(g.num_vertices)
    hpsi = H.matrix @ psi
    for n in range(g.num_vertices):
        zn = local_sum(system, [((n,), sz)]).diagonal()
        out[n] = (1j * (np.vdot(psi, H.matrix @ (zn * psi)) - np.vdot(psi, zn * hpsi))).real
    return out


@pytest.mark.parametrize("g,S,denom", [(square(3, 3), 0.5, 3), (nnn_chain(8), 1.0, 8)])
def test_local_sz_current_matches_per_site_reference(g, S, denom):
    system = SpinSystem(S, g.num_vertices)
    spec = ScarSpec(helicity=+1, p=1, gamma=0.4, kappa=0.4, q=commensurate_q(1, denom, 0.4))
    for kappa_h in (0.4, 0.8):
        H = build_on_graph(g, S, commensurate_q(1, denom, kappa_h))
        want = _local_sz_current_per_site(g, system, spec, H)
        assert np.abs(local_sz_current(g, system, spec, H) - want).max() <= 1e-14
    # at kappa_H = 0.8 the state is no eigenstate and carries a current
    assert np.abs(want).max() >= 1e-2


@pytest.mark.parametrize("g,S", ED_GRAPHS)
def test_local_sz_current_matches_per_site_reference_on_every_generator(g, S):
    denom = _largest_admitted_denominator(g)
    system = SpinSystem(S, g.num_vertices)
    spec = ScarSpec(helicity=-1, p=1, gamma=0.3, kappa=0.55, q=commensurate_q(1, denom, 0.55))
    # kappa_H = 0.55 is the scar's own H; 0.8 is a mismatched one
    for kappa_h in (0.55, 0.8):
        H = build_on_graph(g, S, commensurate_q(1, denom, kappa_h))
        want = _local_sz_current_per_site(g, system, spec, H)
        assert np.abs(local_sz_current(g, system, spec, H) - want).max() <= 1e-14


@pytest.mark.parametrize("S", [0.5, 1.0])
def test_local_sz_current_of_a_complex_hermitian_chain(S):
    # DM bonds and a field off every axis: complex terms, one- and two-site
    N = 6
    spec = ScarSpec.make(+1, 1, 0.4, 0.6, N)
    H = _chain_with_field(N, S, np.diag([0.7, 1.0, 0.3]) + 0.5 * DM_X, (0.3, 0.4, 0.5))
    assert H.matrix.dtype == np.complex128
    want = _local_sz_current_per_site(chain(N), SpinSystem(S, N), spec, H)
    got = local_sz_current(chain(N), SpinSystem(S, N), spec, H)
    assert np.abs(got - want).max() <= 1e-14
    assert np.abs(want).max() >= 1e-2


def test_local_sz_current_builds_no_state_and_no_matrix(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("local_sz_current assembled a sparse operator")

    def no_vector(*args, **kwargs):
        raise AssertionError("local_sz_current built a (2S+1)^N state vector")
    g, system = square(3, 3), SpinSystem(0.5, 9)
    spec = ScarSpec(helicity=+1, p=1, gamma=0.4, kappa=0.4, q=commensurate_q(1, 3, 0.4))
    big, big_system = square(4, 6), SpinSystem(0.5, 24)
    big_spec = ScarSpec(helicity=-1, p=1, gamma=0.2, kappa=0.7, q=commensurate_q(1, 2, 0.7))
    with monkeypatch.context() as m:
        stub_everywhere(m, {spinops.local_sum: no_matrix,
                            spinops.coherent_product_states: no_vector})
        H = build_on_graph(g, 0.5, commensurate_q(1, 3, 0.8))
        got = local_sz_current(g, system, spec, H)
        # dim 2^24: the per-site reference would need a 415,469,100-entry CSR
        big_got = local_sz_current(big, big_system, big_spec,
                                   build_on_graph(big, 0.5, big_spec.q))
    assert np.abs(got - _local_sz_current_per_site(g, system, spec, H)).max() <= 1e-14
    assert np.abs(got).max() >= 1e-2
    assert np.abs(big_got - predicted_sz_current(big, big_system, big_spec)).max() <= 1e-12


def test_local_sz_current_checks_its_operator_first():
    g = square(3, 3)
    spec = ScarSpec(helicity=+1, p=1, gamma=0.4, kappa=0.4, q=commensurate_q(1, 3, 0.4))
    H = build_on_graph(g, 1.0, spec.q)
    with pytest.raises(DimensionMismatch):
        local_sz_current(g, SpinSystem(0.5, 9), spec, H)
    # an operator given as a matrix carries no terms to read
    with pytest.raises(InvalidInput, match="terms"):
        local_sz_current(g, H.system, spec, ManyBodyOperator(H.system, H.matrix, hermitian=True))
