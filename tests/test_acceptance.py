"""Acceptance gate: one test per headline claim, one PASS/FAIL line each."""

import math

import numpy as np
from spectra_reference import translation_matrix
from spinops_reference import as_scipy, embed

from scarlab.elliptic import (commensurate_q, complete_K_array, jacobi, jacobi_array,
                              jacobi_fraction, solve_q_kappa)
from scarlab.frames import CsseCouplings, angle_equations, solve_frame_angles, \
    xyz_reduction
from scarlab.hamiltonian import (build_csse_chain, build_on_graph,
                                 build_xyz_chain, vanishing_conditions)
from scarlab.lattice import (CLASS_DEPENDENT, CLASS_INDEPENDENT, CLASS_NONE,
                             as_uniform_csse, check_circuit_rule, classify,
                             honeycomb_su2, kagome_su2, lieb, square,
                             square_shifted, triangular_su2, trimer_brickwall,
                             trimer_ladder)
from scarlab.scar import (ScarSpec, gz_angles, gz_state, helical_expansion,
                          helical_tower, projections, residual, span_rank)
from scarlab.schwinger import (annihilator_report, decomposition_check,
                               zeta_tower_fidelities)
from scarlab.spectra import scan_degeneracy
from scarlab.spinops import SiteAngles, SpinSystem, local_spin_matrices

RNG = np.random.default_rng(2024)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def chain_at(N, S, p, kappa):
    q = commensurate_q(p, N, kappa)
    _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
    return q, build_xyz_chain(N, S, dn, 1.0, cn)


def test_criterion_01_eigenstate_residual_matrix():
    worst = 0.0
    for N in range(4, 9):
        for S in (0.5, 1.0):
            system = SpinSystem(S, N)
            for p in (1, 2):
                for kappa in (0.0, 0.4, 0.8):
                    q, H = chain_at(N, S, p, kappa)
                    for gamma in (0.0, 0.5, 0.9):
                        for helicity in (+1, -1):
                            spec = ScarSpec(helicity=helicity, p=p, gamma=gamma,
                                            kappa=kappa, q=q)
                            worst = max(worst, residual(H, gz_state(system, spec)))
    report(1, worst <= 1e-10,
           f"max eigenstate residual over the full parameter matrix: {worst:.2e}")


def test_criterion_02_degeneracy_scan():
    scan = scan_degeneracy([1.0, 0.5], range(4, 8), 0.8, [1])
    rows = {(r.S, r.N): r for r in scan.rows}
    ok = True
    notes = []
    # S=1: the three generic sizes count exactly 4NS with a passing gap audit
    for N, want in [(5, 20), (6, 24), (7, 28)]:
        r = rows[(1.0, N)]
        good = r.count == want and r.flag == ""
        ok &= good
        notes.append(f"N={N}:{r.count}")
    # N=4 is the special commensurability q = K: flagged, audit still resolved
    r4 = rows[(1.0, 4)]
    ok &= "special-q" in r4.flag and "unresolved" not in r4.flag
    notes.append(f"N=4 flag={r4.flag!r} count={r4.count}")
    # S=1/2 rows: the integrable point shows up as flagged deviations
    half = [rows[(0.5, N)] for N in range(4, 8)]
    ok &= any("deviates" in r.flag for r in half)
    ok &= all("deviates" in r.flag or r.count == r.expected for r in half)
    report(2, ok, "counts " + " ".join(notes))


def test_criterion_03_span_bounds():
    N, S = 7, 1.0
    r0 = span_rank(N, S, 0.0)
    ranks = {k: span_rank(N, S, k) for k in (0.2, 0.5, 0.8)}
    ok = (r0 == 2 * 7 + 1
          and all(r <= 28 for r in ranks.values())
          and len(set(ranks.values())) >= 2)
    report(3, ok, f"rank(kappa=0)={r0}, ranks={ranks} (doubling-stable)")


def test_criterion_04_projection_weights():
    N, S, p = 7, 1.0, 1
    gammas = [round(0.1 * i, 1) for i in range(1, 10)]
    ok = True
    for gamma in gammas:
        p_same, p_oppo = projections(N, S, p, 0.0, gamma)
        ok &= abs(p_same - 1.0) <= 1e-10
        ok &= p_same + p_oppo <= 1.0 + 1e-12
    curve = []
    for gamma in gammas:
        p_same, p_oppo = projections(N, S, p, 0.8, gamma)
        ok &= p_same + p_oppo <= 1.0 + 1e-12
        curve.append(p_same)
    ok &= curve[0] == max(curve)
    ok &= all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    report(4, ok, f"P+ at kappa=0.8 decreases from {curve[0]:.4f} to {curve[-1]:.4f}")


def test_criterion_05_frame_reduction():
    worst_eq = worst_spec = worst_eig = 0.0
    for _ in range(20):
        vals = RNG.uniform(-1.0, 1.0, 6)
        c = CsseCouplings(J1=vals[0], J2=vals[1], J3=vals[2],
                          J12=vals[3], J13=vals[4], J23=vals[5])
        psi, phi = solve_frame_angles(c)[0]
        f1, f2 = angle_equations(c, psi, phi)
        worst_eq = max(worst_eq, abs(f1), abs(f2))
        sol = xyz_reduction(c)
        jx, jy, jz = sol.xyz
        e_full = np.linalg.eigvalsh(build_csse_chain(4, 0.5, c).matrix.toarray())
        e_xyz = np.linalg.eigvalsh(build_xyz_chain(4, 0.5, jx, jy, jz).matrix.toarray())
        worst_spec = max(worst_spec, float(np.abs(e_full - e_xyz).max()))
        want = np.sort(np.linalg.eigvalsh(c.matrix()))
        worst_eig = max(worst_eig, float(np.abs(np.sort(sol.xyz) - want).max()))
    ok = worst_eq <= 1e-12 and worst_spec <= 1e-8 and worst_eig <= 1e-10
    report(5, ok, f"angle eqs {worst_eq:.1e}, chain spectra {worst_spec:.1e}, "
                  f"3x3 eigenvalues {worst_eig:.1e} over 20 random sets")


def test_criterion_06_vanishing_conditions():
    ok = True
    worst_on = 0.0
    worst_off = math.inf
    for (N, S, p, kappa, gamma) in [(5, 0.5, 1, 0.5, 0.3), (6, 1.0, 1, 0.6, 0.4),
                                    (7, 0.5, 2, 0.8, 0.6)]:
        q = commensurate_q(p, N, kappa)
        _, cn, dn = jacobi_fraction(q.fraction, q.modulus)
        M = np.diag([dn, 1.0, cn])
        spec = ScarSpec.make(+1, p, gamma, kappa, N)
        a2, a1 = vanishing_conditions(N, S, M, gz_angles(N, spec))
        worst_on = max(worst_on, float(np.abs(a2).max()), float(np.abs(a1).max()))
        # sharpness: detune q by 0.05 and rebuild the site angles
        thetas, phis = [], []
        for n in range(N):
            sn, cn, dn = jacobi((n + 1) * (q.value + 0.05), kappa)
            uz = max(-1.0, min(1.0, spec.gamma * dn))
            thetas.append(math.acos(uz))
            phis.append(math.atan2(spec.beta * sn, spec.alpha * cn))
        b2, b1 = vanishing_conditions(N, S, M, SiteAngles(tuple(thetas), tuple(phis)))
        worst_off = min(worst_off, max(float(np.abs(b2).max()),
                                       float(np.abs(b1).max())))
    ok = worst_on <= 1e-11 and worst_off > 1e-4
    report(6, ok, f"amplitudes {worst_on:.1e} at the scar point, "
                  f">= {worst_off:.1e} when q is detuned by 0.05")


def test_criterion_07_elliptic_layer():
    draws = [(float(RNG.uniform(0.0, 0.95)), *RNG.uniform(-20.0, 20.0, 2)) for _ in range(10000)]
    kappa, u, v = np.array(draws).T
    K = complete_K_array(kappa)
    # one kernel call per argument column; the identities are summed per point in floats
    columns = [zip(*(f.tolist() for f in jacobi_array(arg, kappa, K)))
               for arg in (u, u + 4.0 * K, v, u + v)]
    worst_id = 0.0
    for kappa, (sn, cn, dn), (s4, c4, d4), (snv, cnv, dnv), (snuv, _, _) in zip(
            kappa.tolist(), *columns):
        worst_id = max(worst_id, abs(sn * sn + cn * cn - 1.0),
                       abs(dn * dn + kappa * kappa * sn * sn - 1.0))
        worst_id = max(worst_id, abs(s4 - sn), abs(c4 - cn), abs(d4 - dn))
        denom = 1.0 - (kappa * sn * snv) ** 2
        add = (sn * cnv * dnv + snv * cn * dn) / denom
        worst_id = max(worst_id, abs(snuv - add))
    worst_rt = 0.0
    done = 0
    while done < 50:
        vals = np.sort(RNG.uniform(-1.0, 1.0, 3))
        jz, jx, jy = map(float, vals)
        if jy <= 0 or jx <= 0 or jx - jz < 1e-3 or jy - jx < 1e-6 or abs(jz) >= jx:
            continue
        qv, mod = solve_q_kappa(jx, jy, jz)
        _, cn, dn = jacobi(qv, mod.kappa)
        worst_rt = max(worst_rt, abs(dn - jx / jy), abs(cn - jz / jy))
        done += 1
    ok = worst_id <= 1e-11 and worst_rt <= 1e-10
    report(7, ok, f"identities {worst_id:.1e} over 1e4 points, "
                  f"round-trip {worst_rt:.1e}")


def test_criterion_08_xxz_tower_and_expansion():
    ok = True
    worst_fid = worst_phase = worst_eig = 0.0
    for N in range(4, 8):
        for S in (0.5, 1.0):
            p = 1
            q0 = 2.0 * math.pi * p / N
            system = SpinSystem(S, N)
            tower = helical_tower(N, S, +1, p)
            _, _, szl, _, _ = local_spin_matrices(S)
            sz_tot = sum((embed(szl, n, system) for n in range(N)),
                         start=0.0 * embed(szl, 0, system))
            T = translation_matrix(system)
            for m, st in enumerate(tower.states):
                v = st.amplitudes
                worst_eig = max(worst_eig,
                                float(np.linalg.norm(sz_tot @ v - (N * S - m) * v)),
                                float(np.linalg.norm(T @ v - np.exp(1j * m * q0) * v)))
            gamma = 0.35
            psi = gz_state(system, ScarSpec.make(+1, p, gamma, 0.0, N))
            chi = helical_expansion(tower, math.acos(gamma))
            ov = chi.overlap(psi)
            worst_fid = max(worst_fid, abs(abs(ov) - 1.0))
            dev = (np.angle(ov) + S * N * (N + 1) * q0 / 2.0) % (2.0 * math.pi)
            worst_phase = max(worst_phase, min(dev, 2.0 * math.pi - dev))
    ok = worst_eig <= 1e-10 and worst_fid <= 1e-12 and worst_phase <= 1e-10
    report(8, ok, f"tower eigen-defect {worst_eig:.1e}, expansion fidelity "
                  f"dev {worst_fid:.1e}, global phase dev {worst_phase:.1e}")


def test_criterion_09_boson_decomposition():
    ok = True
    details = []
    for N in (3, 4):
        S = 0.5
        fids = zeta_tower_fidelities(N, S, 1)
        fdev = max(abs(1.0 - f) for f in fids)
        rep = annihilator_report(N, S)
        ann = max(rep[kind] for kind in ("zeta", "eta", "epsilon"))
        dec = decomposition_check(N, S, 2.0 * math.pi / N)
        ok &= fdev <= 1e-12 and ann <= 1e-12 and dec <= 1e-11
        details.append(f"N={N}: fid dev {fdev:.1e}, annihilation {ann:.1e}, "
                       f"decomposition {dec:.1e}")
    report(9, ok, "; ".join(details))


def test_criterion_10_lattice_rules():
    ok = True
    notes = []
    # classification table
    cls = {
        "honeycomb": (classify(as_uniform_csse(honeycomb_su2(4, 2))), CLASS_NONE),
        "triangular": (classify(as_uniform_csse(triangular_su2(3, 3))), CLASS_DEPENDENT),
        "kagome": (classify(as_uniform_csse(kagome_su2(2, 2))), CLASS_DEPENDENT),
        "square": (classify(as_uniform_csse(square(3, 3))), CLASS_INDEPENDENT),
        "lieb": (classify(as_uniform_csse(lieb(2, 2))), CLASS_INDEPENDENT),
    }
    for name, (got, want) in cls.items():
        ok &= got == want
    notes.append("classifications " + ("ok" if ok else str(cls)))
    # shifted square torus admits the helix only at unit shift
    q43 = commensurate_q(1, 4, 0.5)
    shifts = {s: check_circuit_rule(square_shifted(4, 3, shift=s), q43).satisfied
              for s in (0, 1, 2, 3)}
    ok &= shifts == {0: False, 1: True, 2: False, 3: False}
    notes.append(f"square_shifted(4,3) passes only shift 1: {shifts[1]}")
    # scar residuals on the 2D generators, S = 1/2, kappa = 0.5, gamma = 0.4
    worst = 0.0
    cases = [(square(4, 4), 4), (square(3, 3), 3), (triangular_su2(3, 3), 3),
             (trimer_brickwall(3, 3), 3), (kagome_su2(2, 2), 4),
             (honeycomb_su2(4, 2), 4), (lieb(2, 2), 4), (trimer_ladder(4), 4)]
    for g, denom in cases:
        q = commensurate_q(1, denom, 0.5)
        system = SpinSystem(0.5, g.num_vertices)
        spec = ScarSpec(helicity=+1, p=1, gamma=0.4, kappa=0.5, q=q)
        H = build_on_graph(g, 0.5, q)
        worst = max(worst, residual(H, gz_state(system, spec, graph=g)))
    ok &= worst <= 1e-10
    notes.append(f"max graph residual {worst:.1e} (incl. square(4,4), dim 65536)")
    report(10, ok, "; ".join(notes))


def test_criterion_11_approximated_sga():
    from scarlab.algebra import deformed_tower_deficit, tau, tau_double_prime
    N, S, p = 5, 0.5, 1
    q0 = 2.0 * math.pi * p / N
    diff = (as_scipy(tau_double_prime(N, S, commensurate_q(p, N, 0.0)).matrix)
            - as_scipy(tau(N, S, q0).matrix))
    entrywise = float(np.abs(diff.toarray()).max())
    deficits = [deformed_tower_deficit(N, S, commensurate_q(p, N, kappa))
                for kappa in (0.1, 0.2, 0.4)]
    slope = float(np.polyfit(np.log([0.01, 0.04, 0.16]), np.log(deficits), 1)[0])
    ok = (entrywise <= 1e-13 and deficits[0] < deficits[1] < deficits[2]
          and slope >= 1.7)
    report(11, ok, f"tau'' -> tau entrywise {entrywise:.1e}; deficits "
                   f"{['%.1e' % d for d in deficits]} monotone, "
                   f"log-log slope vs kappa^2 = {slope:.2f}")
