"""Command-line front end.

One subcommand per experiment family.  Every run prints one PASS/FAIL line
per check and writes a CSV (deterministic body) plus a JSON sidecar carrying
the tool version, the resolved configuration, and a timestamp.

Exit codes: 0 all checks pass, 1 a physics check failed, 2 numerical
failure, 3 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import os
import re
import sys
import time

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_NUMERICAL = 2
EXIT_INVALID = 3


def _apply_thread_cap():
    cap = os.environ.get("SCARLAB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

import numpy as np  # noqa: E402  (after the thread cap)

from . import __version__  # noqa: E402
from .errors import InvalidInput, ScarlabError  # noqa: E402


class CheckLog:
    """Collects named checks, prints PASS/FAIL lines, tracks the exit code."""

    def __init__(self):
        self.failed = False

    def check(self, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}: {name}{suffix}")
        if not ok:
            self.failed = True

    def info(self, name: str, detail: str):
        print(f"INFO: {name}  ({detail})")

    @property
    def exit_code(self) -> int:
        return EXIT_PHYSICS if self.failed else EXIT_OK


def _write_outputs(outdir: str, name: str, header, rows, config: dict, record=None):
    """<name>.csv and the <name>.json sidecar: record's keys, then config,
    version and timestamp."""
    os.makedirs(outdir, exist_ok=True)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    csv_path = os.path.join(outdir, f"{name}.csv")
    with open(csv_path, "w") as fh:
        fh.write(buf.getvalue())
    config = {k: v for k, v in config.items()
              if isinstance(v, (int, float, str, bool, list, type(None)))}
    sidecar = {**(record or {}), "version": __version__, "config": config,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    with open(os.path.join(outdir, f"{name}.json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return csv_path


def _parse_range(text: str):
    """'4..7' -> [4,5,6,7]; '4,6,8' -> [4,6,8]; '5' -> [5]."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def _parse_floats(text: str):
    return [float(t) for t in text.split(",")]


def _parse_spin(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        if float(den) == 0.0:
            raise ValueError(f"zero denominator in spin {text!r}")
        return float(num) / float(den)
    return float(text)


def _check_spins(args):
    """--S >= 1/2 (at S = 0 every spin operator vanishes and each check is
    vacuous), then a half-integer, for every value before any work."""
    from .spinops import _check_spin
    for S in map(_parse_spin, args.S.split(",")) if isinstance(args.S, str) else [args.S]:
        if not S >= 0.5:
            raise InvalidInput(f"{args.command} needs S >= 1/2, got S={S:g}")
        _check_spin(S)


def _lattice_dims(kind: str, text: str):
    """--dims as ints, exactly as many as the generator's size arguments."""
    from .lattice import GENERATORS
    if kind not in GENERATORS:
        raise ValueError(f"unknown lattice kind {kind!r}; valid kinds: {', '.join(GENERATORS)}")
    dims = [int(t) for t in text.split(",")]
    params = inspect.signature(GENERATORS[kind]).parameters.values()
    need = sum(prm.default is prm.empty for prm in params)
    if len(dims) != need:
        raise ValueError(f"lattice {kind!r} takes {need} dims, got {len(dims)} ({text!r})")
    return dims


def cmd_elliptic(args, log: CheckLog) -> int:
    from .elliptic import complete_K_array, jacobi_array, solve_q_kappa_array
    if args.points < 1:
        raise InvalidInput(f"--points must be >= 1, got {args.points}")
    rng = np.random.default_rng(args.seed)
    kappas = rng.uniform(0.0, 0.95, args.points)
    us = rng.uniform(-20.0, 20.0, args.points)
    K = complete_K_array(kappas)
    sn, cn, dn = jacobi_array(us, kappas, K)
    worst_id1 = float(np.abs(sn * sn + cn * cn - 1.0).max())
    worst_id2 = float(np.abs(dn * dn + kappas * kappas * sn * sn - 1.0).max())
    shifted = jacobi_array(us + 4.0 * K, kappas, K)
    worst_per = float(max(np.abs(a - b).max() for a, b in zip(shifted, (sn, cn, dn))))
    log.check("sn^2 + cn^2 = 1", worst_id1 <= 1e-11, f"max {worst_id1:.2e}")
    log.check("dn^2 + k^2 sn^2 = 1", worst_id2 <= 1e-11, f"max {worst_id2:.2e}")
    log.check("4K periodicity", worst_per <= 1e-11, f"max {worst_per:.2e}")
    jz, jx, jy = np.sort(rng.uniform(-1.0, 1.0, (50, 3)), axis=1).T
    # kappa^2 = (Jy^2-Jx^2)/(Jy^2-Jz^2) <= 1 needs |Jz| < Jx
    keep = (jy > 0.0) & (jx > 0.0) & (jx - jz >= 1e-3) & (jy - jx >= 1e-8) & (np.abs(jz) < jx)
    jx, jy, jz = jx[keep], jy[keep], jz[keep]
    _, _, _, cn, dn = solve_q_kappa_array(jx, jy, jz)
    dev = np.maximum(np.abs(dn - jx / jy), np.abs(cn - jz / jy))
    worst_rt = float(dev.max(initial=0.0))
    log.check("coupling round-trip", worst_rt <= 1e-10, f"max {worst_rt:.2e}")
    rows = [[name, repr(float(worst))] for name, worst in (
        ("sn2cn2", worst_id1), ("dn2k2sn2", worst_id2),
        ("periodicity", worst_per), ("roundtrip", worst_rt))]
    _write_outputs(args.out, "elliptic", ["check", "max_residual"], rows, vars(args))
    return log.exit_code


def cmd_frame(args, log: CheckLog) -> int:
    from .frames import CsseCouplings, xyz_reduction
    if args.couplings:
        with open(args.couplings) as fh:
            c = CsseCouplings.from_json(fh.read())
    else:
        c = CsseCouplings(J1=args.J1, J2=args.J2, J3=args.J3,
                          J12=args.J12, J13=args.J13, J23=args.J23)
    sol = xyz_reduction(c)
    jx, jy, jz = sol.xyz
    M = c.matrix()
    evals = np.sort(np.linalg.eigvalsh(M))
    match = float(np.abs(np.sort(np.array([jx, jy, jz])) - evals).max())
    tol = 1e-10 * max(1.0, float(np.abs(M).max()))   # relative above |M| = 1, as the root filter
    log.check("frame residual", sol.residual <= tol, f"{sol.residual:.2e}")
    log.check("eigenvalue match", match <= tol, f"{match:.2e}")
    log.check("ordering Jy >= Jx", jy >= jx - 1e-12, f"Jx={jx:.6f} Jy={jy:.6f}")
    rows = [[sol.psi, sol.phi, sol.theta, repr(jx), repr(jy), repr(jz), repr(sol.residual)]]
    _write_outputs(args.out, "frame", ["psi", "phi", "theta", "Jx", "Jy", "Jz", "residual"],
                   rows, vars(args))
    return log.exit_code


def cmd_scar_verify(args, log: CheckLog) -> int:
    from .elliptic import jacobi_fraction
    from .hamiltonian import chain_couplings, graph_couplings
    from .lattice import ScarGraph, check_circuit_rule, generate, winding_gcd
    from .scar import ScarSpec, gz_angles, local_residual
    helicity = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}.get(args.helicity)
    if helicity is None:
        raise InvalidInput(f"--helicity must be +, +1, 1, - or -1, got {args.helicity!r}")
    on_chain = args.graph is None and args.lattice == "chain"
    N = _lattice_dims("chain", args.dims)[0] if on_chain and args.dims else args.N
    if on_chain and args.denominator is None:
        args.denominator = N                    # the sidecar records the denominator used
    # the denominator, kappa and gamma are checked before any graph is read
    spec = ScarSpec.make(helicity, args.p, args.gamma, args.kappa,
                         N if args.denominator is None else args.denominator)
    if on_chain:
        angles = gz_angles(N, spec)             # checks denominator == N
        _, cn, dn = jacobi_fraction(spec.q.fraction, spec.q.modulus)
        u, v, M = chain_couplings(N, np.diag([dn, 1.0, cn]))    # no bond at N = 1
    else:
        if args.graph:
            with open(args.graph) as fh:
                g = ScarGraph.from_json(fh.read())
        else:
            g = generate(args.lattice, *_lattice_dims(args.lattice, args.dims or str(args.N)))
        if args.denominator is None:            # the largest one the windings admit
            args.denominator = winding_gcd(g) or g.num_vertices
            spec = ScarSpec.make(helicity, args.p, args.gamma, args.kappa, args.denominator)
        rep = check_circuit_rule(g, spec.q)
        log.check("circuit rule", rep.satisfied, rep.admissible_q)
        N, u, v, M = g.num_vertices, g.u, g.v, graph_couplings(g, spec.q)
        angles = gz_angles(N, spec, graph=g) if rep.satisfied else None
    res = math.nan                              # the row of a failed circuit rule
    if angles is not None:
        res = local_residual(u, v, M, args.S, angles)
        log.check("eigenstate residual", res <= args.tol, f"{res:.2e} <= {args.tol:.1e}")
    rows = [[args.S, N, args.p, args.kappa, args.gamma, helicity, repr(res)]]
    _write_outputs(args.out, "scar_verify",
                   ["S", "N", "p", "kappa", "gamma", "helicity", "residual"],
                   rows, vars(args))
    return log.exit_code


def cmd_degeneracy_scan(args, log: CheckLog) -> int:
    from .spectra import DegeneracyScan, scan_degeneracy
    if not 0.0 <= args.kappa < 1.0:
        raise InvalidInput(f"--kappa must lie in [0, 1), got {args.kappa}")
    S_list = [_parse_spin(t) for t in args.S.split(",")]
    scan = scan_degeneracy(S_list, _parse_range(args.N), args.kappa, _parse_range(args.p))
    csv_path = _write_outputs(args.out, "degeneracy_scan", DegeneracyScan.HEADER,
                              scan.table(), vars(args), scan.summary())
    for r in scan.rows:
        if "error:" in r.flag:
            log.check(f"S={r.S} N={r.N} p={r.p}", False, r.flag)
        elif "special-q" in r.flag:
            log.info(f"S={r.S} N={r.N} p={r.p}",
                     f"count={r.count} special-q (4NS not expected)")
        else:
            log.check(f"S={r.S} N={r.N} p={r.p} count=4NS",
                      r.count == r.expected, f"count={r.count} expected={r.expected}")
    print(f"wrote {csv_path}")
    return log.exit_code


def cmd_projections(args, log: CheckLog) -> int:
    from .scar import projection_table
    gammas = _parse_floats(args.gammas)
    rows = []
    ok_budget = True
    for gamma, (p_same, p_oppo) in zip(gammas, projection_table(args.N, args.S, args.p,
                                                                 args.kappa, gammas)):
        rows.append([gamma, repr(p_same), repr(p_oppo)])
        if p_same + p_oppo > 1.0 + 1e-12:
            ok_budget = False
    log.check("P+ + P- <= 1", ok_budget)
    if args.kappa == 0.0:
        worst = max(abs(1.0 - float(r[1])) for r in rows)
        log.check("P+ = 1 at kappa=0", worst <= 1e-10, f"max dev {worst:.2e}")
    _write_outputs(args.out, "projections", ["gamma", "P_plus", "P_minus"],
                   rows, vars(args))
    return log.exit_code


def cmd_span(args, log: CheckLog) -> int:
    from .elliptic import complete_K_array
    from .scar import span_rank
    kappas = _parse_floats(args.kappas)
    complete_K_array(kappas)        # every kappa is checked before any rank
    cap = int(round(4 * args.N * args.S))
    ranks = [span_rank(args.N, args.S, kappa, p=args.p) for kappa in kappas]
    rows = [[kappa, int(rank)] for kappa, rank in zip(kappas, ranks)]
    cut = [{"kappa": kappa, **rank.cuts} for kappa, rank in zip(kappas, ranks)]
    log.check(f"rank <= 4NS = {cap}", max(ranks) <= cap, str([int(r) for r in ranks]))
    _write_outputs(args.out, "span", ["kappa", "rank"], rows, vars(args), {"cut": cut})
    return log.exit_code


def cmd_lattice_check(args, log: CheckLog) -> int:
    from .elliptic import commensurate_q
    from .lattice import ScarGraph, check_circuit_rule, check_vertex_rule, classify
    if (args.p is None) != (args.denominator is None):
        raise ValueError("the circuit rule needs both --p and --denominator")
    # q is checked before any graph is read or any line printed
    q = None if args.p is None else commensurate_q(args.p, args.denominator, args.kappa)
    with open(args.graph) as fh:
        g = ScarGraph.from_json(fh.read())
    violations = check_vertex_rule(g)
    log.check("vertex rule", not violations,
              f"{len(violations)} violating vertices" if violations else "all zero")
    if q is not None:
        rep = check_circuit_rule(g, q)
        log.check("circuit rule", rep.satisfied, rep.admissible_q)
    else:
        log.info("circuit rule", "not checked: needs --p and --denominator")
    cls = classify(g)
    log.info("classification", cls)
    rows = [[g.num_vertices, g.num_edges, cls]]
    _write_outputs(args.out, "lattice_check", ["vertices", "edges", "classification"],
                   rows, vars(args))
    return log.exit_code


def cmd_lattice_generate(args, log: CheckLog) -> int:
    from .lattice import generate
    dims = _lattice_dims(args.kind, args.dims)
    if args.shift is not None and args.kind != "square_shifted":
        raise InvalidInput(f"--shift applies to square_shifted only, not {args.kind!r}")
    options = {} if args.shift is None else {"shift": args.shift}
    g = generate(args.kind, *dims, **options)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.kind}.json")
    with open(path, "w") as fh:
        fh.write(g.to_json())
    log.check("generated", True, f"{g.num_vertices} vertices, {g.num_edges} edges")
    print(f"wrote {path}")
    return log.exit_code


def cmd_algebra_check(args, log: CheckLog) -> int:
    from .algebra import (commutator_terms, deformed_tower_deficit, lambda_op,
                          standard_sga_witness, tau_double_prime)
    from .elliptic import commensurate_q, jacobi_fraction
    from .spectra import _check_xyz_blocks
    from .spinops import SpinSystem, local_sum
    N, S, p = args.N, args.S, args.p
    if N < 3:
        # the tower energy counts N bonds of a periodic ring
        raise InvalidInput(f"algebra-check needs a ring of N >= 3 sites, got N={N}")
    kappas = _parse_floats(args.kappas)
    qs = [commensurate_q(p, N, kappa) for kappa in kappas]   # every kappa, before any check
    for q in qs:
        # a nonzero kappa solves the chain's blocks: stop at the budget before any check runs
        _check_xyz_blocks(SpinSystem(S, N), jacobi_fraction(q.fraction, q.modulus)[2], 1.0)
    wit = standard_sga_witness(N, S, p)
    t = wit.generator
    lam = lambda_op(N, S, 2.0 * math.pi * p / N)

    def largest_entry(terms) -> float:
        """max |entry| of the operator of a term list: no dim x dim dense copy."""
        return float(np.abs(local_sum(t.system, terms).data).max(initial=0.0))

    d1 = largest_entry(wit.commutator.terms + [(sites, -op) for sites, op in lam.terms])
    d2 = largest_entry(commutator_terms(t.system, t.terms, lam.terms))
    log.check("[H, tau] = Lambda", d1 <= 1e-11, f"{d1:.2e}")
    log.check("[tau, Lambda] = 0", d2 <= 1e-11, f"{d2:.2e}")
    worst = max(wit.commutator_residuals)
    log.check("tower ladder closure", worst <= 1e-10, f"max {worst:.2e}")
    rows = [["commutator", repr(d1)], ["mutual", repr(d2)], ["tower", repr(worst)]]
    for kappa, q in zip(kappas, qs):
        if kappa == 0.0:
            dev = largest_entry(tau_double_prime(N, S, q).terms
                                + [(sites, -op) for sites, op in t.terms])
            log.check("tau'' = tau at kappa=0", dev <= 1e-13, f"{dev:.2e}")
            rows.append(["tau_pp_limit", repr(dev)])
            continue
        worst_def = deformed_tower_deficit(N, S, q)
        log.info(f"tau'' deficit kappa={kappa}", f"{worst_def:.3e}")
        rows.append([f"deficit_{kappa}", repr(worst_def)])
    _write_outputs(args.out, "algebra_check", ["check", "value"], rows, vars(args))
    return log.exit_code


def cmd_schwinger_check(args, log: CheckLog) -> int:
    from .schwinger import annihilator_report, decomposition_check, zeta_tower_fidelities
    N, S, p = args.N, args.S, args.p
    if N < 3:
        # the decomposition telescopes around a periodic ring of N >= 3 bonds
        raise ValueError(f"schwinger-check needs a ring of N >= 3 sites, got N={N}")
    # the one charged step first: over the budget it stops before any line
    dcp = decomposition_check(N, S, 2.0 * math.pi * p / N)
    dev = max(abs(1.0 - f) for f in zeta_tower_fidelities(N, S, p))
    log.check("zeta-states = rotated tower", dev <= 1e-12, f"max dev {dev:.2e}")
    rep = annihilator_report(N, S)
    worst = max(rep[k] for k in ("zeta", "eta", "epsilon"))
    log.check("zeta/eta/epsilon annihilate", worst <= 1e-12, f"max {worst:.2e}")
    log.check("generic bilinear fails", rep["generic"] > 1e-4, f"{rep['generic']:.2e}")
    log.check("bilinear decomposition", dcp <= 1e-11, f"{dcp:.2e}")
    rows = [["tower_fidelity_dev", repr(dev)], ["annihilation", repr(worst)],
            ["generic_control", repr(rep["generic"])], ["decomposition", repr(dcp)]]
    _write_outputs(args.out, "schwinger_check", ["check", "value"], rows, vars(args))
    return log.exit_code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scarlab",
                                 description="Elliptic scar state toolkit")
    ap.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    p_el = sub.add_parser("elliptic", help="elliptic identity suite")
    p_el.add_argument("--points", type=int, default=10000)
    p_el.add_argument("--seed", type=int, default=0)
    p_el.set_defaults(func=cmd_elliptic)

    p_fr = sub.add_parser("frame", help="reduce a CSSE coupling set to XYZ")
    p_fr.add_argument("--couplings", help="couplings JSON path")
    for name in ("J1", "J2", "J3", "J12", "J13", "J23"):
        p_fr.add_argument(f"--{name}", type=float, default=0.0)
    p_fr.set_defaults(func=cmd_frame)

    p_sv = sub.add_parser("scar-verify", help="eigenstate residual of a scar state")
    p_sv.add_argument("--lattice", default="chain")
    p_sv.add_argument("--graph", help="graph JSON path (overrides --lattice)")
    p_sv.add_argument("--dims", help="generator dims, comma separated")
    p_sv.add_argument("--N", type=int, default=6)
    p_sv.add_argument("--S", type=_parse_spin, default=0.5)
    p_sv.add_argument("--p", type=int, default=1)
    p_sv.add_argument("--kappa", type=float, default=0.0)
    p_sv.add_argument("--gamma", type=float, default=0.0)
    p_sv.add_argument("--helicity", default="+")
    p_sv.add_argument("--denominator", type=int)
    p_sv.add_argument("--tol", type=float, default=1e-10)
    p_sv.set_defaults(func=cmd_scar_verify)

    p_dg = sub.add_parser("degeneracy-scan", help="degeneracy at the scar energy")
    p_dg.add_argument("--S", default="1")
    p_dg.add_argument("--N", default="4..7")
    p_dg.add_argument("--kappa", type=float, default=0.8)
    p_dg.add_argument("--p", default="1")
    p_dg.set_defaults(func=cmd_degeneracy_scan)

    p_pj = sub.add_parser("projections", help="tower projections of the scar")
    p_pj.add_argument("--N", type=int, default=7)
    p_pj.add_argument("--S", type=_parse_spin, default=1.0)
    p_pj.add_argument("--p", type=int, default=1)
    p_pj.add_argument("--kappa", type=float, default=0.8)
    p_pj.add_argument("--gammas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p_pj.set_defaults(func=cmd_projections)

    p_sp = sub.add_parser("span", help="rank of the scar family span")
    p_sp.add_argument("--N", type=int, default=7)
    p_sp.add_argument("--S", type=_parse_spin, default=1.0)
    p_sp.add_argument("--p", type=int, default=1)
    p_sp.add_argument("--kappas", default="0.0,0.2,0.5,0.8")
    p_sp.set_defaults(func=cmd_span)

    p_lc = sub.add_parser("lattice-check", help="rules and classification of a graph")
    p_lc.add_argument("--graph", required=True)
    p_lc.add_argument("--p", type=int)
    p_lc.add_argument("--denominator", type=int)
    p_lc.add_argument("--kappa", type=float, default=0.0)
    p_lc.set_defaults(func=cmd_lattice_check)

    p_lg = sub.add_parser("lattice-generate", help="write a generator graph JSON")
    p_lg.add_argument("--kind", required=True)
    p_lg.add_argument("--dims", required=True)
    p_lg.add_argument("--shift", type=int)
    p_lg.set_defaults(func=cmd_lattice_generate)

    p_ac = sub.add_parser("algebra-check", help="ladder algebra and deformations")
    p_ac.add_argument("--N", type=int, default=5)
    p_ac.add_argument("--S", type=_parse_spin, default=0.5)
    p_ac.add_argument("--p", type=int, default=1)
    p_ac.add_argument("--kappas", default="0.0,0.2,0.4")
    p_ac.set_defaults(func=cmd_algebra_check)

    p_sc = sub.add_parser("schwinger-check", help="boson realization checks")
    p_sc.add_argument("--N", type=int, default=4)
    p_sc.add_argument("--S", type=_parse_spin, default=0.5)
    p_sc.add_argument("--p", type=int, default=1)
    p_sc.set_defaults(func=cmd_schwinger_check)
    return ap


_NEGATIVE_VALUE = re.compile(r"^-[\d.]")


def _attach_negative_values(argv):
    """['--gammas', '-0.6,0.2'] -> ['--gammas=-0.6,0.2'].

    argparse takes a token such as '-0.6,0.2' for a flag; joining it to the
    option before it makes it that option's value.
    """
    out = []
    for tok in argv:
        if (out and _NEGATIVE_VALUE.match(tok) and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser once per process; building it costs about 2 ms."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0,) else 0
    log = CheckLog()
    try:
        if hasattr(args, "S"):
            _check_spins(args)
        return args.func(args, log)
    except (FileNotFoundError, json.JSONDecodeError, ValueError, KeyError, InvalidInput) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ScarlabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
