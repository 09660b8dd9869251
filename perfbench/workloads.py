"""The four benchmark workloads, as lists of cases.

Each case drives scarlab the way a user does: through the subcommands of
``scarlab.cli.main(argv)``, called in-process, plus the few library calls no
subcommand reaches yet.  A case returns a one-line detail when its outputs
are correct and raises ``CaseFailed`` (or whatever the program raised) when
they are not.

Seed discipline: the seed draws only continuous inputs (kappa, gamma,
helicity and the CSSE rotation; see lattice_scale for the elliptic sample
points).  Sizes, ``p``
and lattice dims are fixed, because they set how much work a case does: on
lieb 2x2 S=1, p = d/2 cancels matrix entries and halves nnz (7,976,564
instead of 15,552,680), so a seed that picked p would move wall time and
peak RSS between seeds.

Library functions are looked up on their module at call time
(``hamiltonian.build_csse_chain(...)``), never imported by name here, so a
traced run sees the span wrappers installed on those modules.

Every option is passed as ``--opt=value``: argparse reads ``--gammas
-0.6,0.2`` as a flag and the CLI exits 3 (a known CLI defect, left for a
fix in the program).
"""

from __future__ import annotations

import contextlib
import csv
import math
import signal
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from scarlab import cli, elliptic, frames, hamiltonian, lattice, scar, spectra, spinops

WORKLOADS = ("chain_ed", "graph_scar", "lattice_scale", "tower_algebra")


class CaseFailed(Exception):
    """A case ran but its outputs are wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CaseFailed(message)


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise CaseFailed in the main thread if the block runs longer than seconds."""
    def expire(signum, frame):
        raise CaseFailed(f"timed out after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable  # run(ctx) -> detail string
    # A known program defect makes this case fail with a message containing
    # this text.  The failure is still counted in `failed`; only a failure
    # of another kind makes the run incorrect.
    known_defect: str = ""


def _spin(text: str) -> float:
    return float(Fraction(text))


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _call(ctx, argv) -> object:
    """Run one subcommand and require exit code 0."""
    res = ctx.cli(argv)
    expect(res.code == 0, f"`{' '.join(argv)}` exited {res.code}: {res.tail()}")
    return res


def _subcommand(argv):
    """A case that runs one subcommand and requires exit code 0."""
    def run(ctx):
        res = _call(ctx, argv)
        return f"{res.passes} PASS lines"
    return run


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# chain_ed: degeneracy counts on chains; dense diagonalization dominates.
# Sizes are the largest each spin reaches in a few seconds at dim <= 2187
# (S=1/2 N=11: 2048, S=1 N=7: 2187, S=3/2 N=5: 1024), so full_spectrum is
# most of the pass and an O3-style block solver would show here first.
# ---------------------------------------------------------------------------

def _degeneracy_scan(S: str, N: str, kappa: float, offset: int = 0):
    """Scan rows off special-q must count 4NS (+offset) with an empty flag."""
    def run(ctx):
        res = _call(ctx, ["degeneracy-scan", f"--S={S}", f"--N={N}",
                          f"--kappa={kappa!r}", "--p=1"])
        rows = _read_csv(res.outdir / "degeneracy_scan.csv")
        lo, _, hi = N.partition("..")
        expect(len(rows) == int(hi or lo) - int(lo) + 1, f"{len(rows)} rows for N={N}")
        checked = 0
        for row in rows:
            if "special-q" in row["flag"]:
                continue
            expected = int(round(4 * int(row["N"]) * _spin(S))) + offset
            expect(int(row["count"]) == expected and row["flag"] == "",
                   f"N={row['N']}: count={row['count']} expected={expected} "
                   f"flag={row['flag']!r}")
            checked += 1
        return f"{checked} rows count 4NS, {len(rows) - checked} special-q"
    return run


def _random_rotation(rng) -> np.ndarray:
    qmat, rmat = np.linalg.qr(rng.normal(size=(3, 3)))
    qmat = qmat * np.sign(np.diag(rmat))
    if np.linalg.det(qmat) < 0:
        qmat[:, 0] = -qmat[:, 0]
    return qmat


def _csse_chain(S: str, N: int, kappa: float, rot: np.ndarray):
    """M = R diag(dn, 1, cn) R^T: frame reduction, then 4NS at the scar energy."""
    def run(ctx):
        q = elliptic.commensurate_q(1, N, kappa)
        _, cn, dn = elliptic.jacobi_fraction(q.fraction, q.modulus)
        m = rot @ np.diag([dn, 1.0, cn]) @ rot.T
        couplings = {name: float(m[i, j]) for name, (i, j) in (
            ("J1", (0, 0)), ("J2", (1, 1)), ("J3", (2, 2)),
            ("J12", (0, 1)), ("J13", (0, 2)), ("J23", (1, 2)))}
        res = _call(ctx, ["frame", *(f"--{k}={v!r}" for k, v in couplings.items())])
        row = _read_csv(res.outdir / "frame.csv")[0]
        got = sorted(float(row[k]) for k in ("Jx", "Jy", "Jz"))
        dev = max(abs(a - b) for a, b in zip(got, sorted([dn, 1.0, cn])))
        expect(dev <= 1e-9, f"frame couplings off by {dev:.2e}")
        H = hamiltonian.build_csse_chain(N, _spin(S), frames.CsseCouplings(**couplings))
        evals = spectra.full_spectrum(H, vectors=False)
        deg = spectra.degeneracy_at(evals, scar.gz_energy(N, _spin(S), q))
        expected = int(round(4 * N * _spin(S)))
        expect(deg.count == expected and deg.resolved,
               f"count={deg.count} expected={expected} resolved={deg.resolved}")
        return f"count={deg.count} = 4NS, frame dev {dev:.1e}"
    return run


def chain_ed(rng, toy: bool) -> list:
    kappa = float(rng.uniform(0.3, 0.85))
    if toy:
        scans = [("1/2", "4..6"), ("1", "3..4")]
        csse = [("1/2", 5), ("1", 3)]
    else:
        scans = [("1/2", "8..11"), ("1", "4..7"), ("3/2", "4..5")]
        csse = [("1/2", 10), ("1", 6), ("3/2", 5)]
    cases = [Case(f"degeneracy-scan S={S} N={N}", _degeneracy_scan(S, N, kappa))
             for S, N in scans]
    for S, N in csse:
        cases.append(Case(f"csse S={S} N={N}",
                          _csse_chain(S, N, float(rng.uniform(0.3, 0.85)),
                                      _random_rotation(rng))))
    if toy:
        # A deliberately wrong expected count: the self-test requires it to fail.
        cases.append(Case("canary: expects 4NS+1", _degeneracy_scan("1/2", "5", kappa, offset=1)))
    return cases


# ---------------------------------------------------------------------------
# graph_scar: the 2D scar check against ED through the sparse residual;
# sparse operator assembly dominates and spectra does nothing.  One case per
# generator at a few-thousand to 65536 dim, plus lieb 2x2 S=1 (dim 531441)
# as the one large operator.  modified_honeycomb is left out (it emits the
# same edges as square and is slated for deletion); chain is covered by
# chain_ed.
# ---------------------------------------------------------------------------

GRAPH_CASES = (
    # kind, dims, S, denominator
    ("square", "4,4", "1/2", 4),
    ("square", "3,3", "1", 3),
    ("lieb", "2,2", "1/2", 4),
    ("kagome_su2", "2,2", "1/2", 4),
    ("trimer_ladder", "4", "1/2", 4),
    ("nnn_chain", "12", "1/2", 12),
    ("square_shifted", "4,3", "1/2", 4),
    ("triangular_su2", "3,3", "1/2", 3),
    ("honeycomb_su2", "4,2", "1", 4),
    ("trimer_brickwall", "3,3", "1", 3),
    ("lieb", "2,2", "1", 4),
)
GRAPH_TOY = (("square", "3,3", "1/2", 3), ("trimer_ladder", "3", "1/2", 3))


def _scar_verify(kind, dims, S, denom, kappa, gamma, helicity):
    def run(ctx):
        res = _call(ctx, ["scar-verify", f"--lattice={kind}", f"--dims={dims}",
                          f"--S={S}", "--p=1", f"--denominator={denom}",
                          f"--kappa={kappa!r}", f"--gamma={gamma!r}",
                          f"--helicity={helicity}"])
        row = _read_csv(res.outdir / "scar_verify.csv")[0]
        r = float(row["residual"])
        expect(r <= 1e-10, f"residual {r:.2e}")
        return f"residual {r:.1e}"
    return run


def _sz_current(dims, denom, kappa, gamma, helicity):
    """Library case: <i[H, Sz_n]> from ED equals the closed form within 1e-10."""
    def run(ctx):
        g = lattice.generate("square", *dims)
        q = elliptic.commensurate_q(1, denom, kappa)
        spec = scar.ScarSpec(helicity=helicity, p=1, gamma=gamma, kappa=kappa, q=q)
        system = spinops.SpinSystem(0.5, g.num_vertices)
        H = hamiltonian.build_on_graph(g, 0.5, q)
        got = scar.local_sz_current(g, system, spec, H)
        want = scar.predicted_sz_current(g, system, spec)
        dev = float(np.abs(got - want).max())
        expect(dev <= 1e-10, f"current deviates by {dev:.2e}")
        return f"max deviation {dev:.1e}"
    return run


def _helicity(rng) -> int:
    return int(rng.choice([-1, 1]))


def graph_scar(rng, toy: bool) -> list:
    cases = []
    for kind, dims, S, denom in (GRAPH_TOY if toy else GRAPH_CASES):
        h = _helicity(rng)
        cases.append(Case(f"scar-verify {kind} {dims} S={S}",
                          _scar_verify(kind, dims, S, denom, float(rng.uniform(0.2, 0.9)),
                                       float(rng.uniform(-0.9, 0.9)), "+" if h > 0 else "-")))
    dims, denom = ((3, 3), 3) if toy else ((4, 4), 4)
    cases.append(Case(f"local_sz_current square {dims[0]}x{dims[1]} S=1/2",
                      _sz_current(dims, denom, float(rng.uniform(0.2, 0.9)),
                                  float(rng.uniform(-0.9, 0.9)), _helicity(rng))))
    return cases


# ---------------------------------------------------------------------------
# lattice_scale: 10^3-10^4-site lattices with no Hilbert space; lattice
# rules, the elliptic layer and per-site scar angles dominate.  Each
# denominator is one that the lattice's windings admit at that size.
#
# Two known defects stay in and fail on every seed:
# * trimer_brickwall 30x30: for Ny >= 6 the generator emits disconnected
#   three-row bands, lattice-check exits 2 and assign_site_phases raises
#   DisconnectedGraph.
# * solve_q_kappa as kappa -> 1 (|Jz| just below Jx): the adaptive
#   quadrature in incomplete_F halves an absolute tolerance down to 40
#   levels, below rounding error, and runs for minutes or longer.  The
#   elliptic subcommand's coupling round-trip hits this on about 5% of its
#   seeds, so the subcommand runs with a fixed --seed (its sample points
#   are not drawn from the benchmark seed) and the defect is exercised
#   deterministically by its own time-limited case instead.
# ---------------------------------------------------------------------------

ELLIPTIC_SEED = 0          # its round-trip triples stay at kappa <= 0.991
RUNAWAY_COUPLINGS = (0.19690911936288535, 0.9898076994458243, -0.1954703025328386)

LATTICE_CASES = (
    # kind, dims, denominator
    ("square", "100,100", 100),
    ("square_shifted", "60,60", 60),
    ("lieb", "30,30", 60),
    ("kagome_su2", "30,30", 60),
    ("honeycomb_su2", "60,60", 60),
    ("triangular_su2", "50,50", 50),
    ("trimer_ladder", "1000", 1000),
    ("nnn_chain", "3000", 3000),
    ("trimer_brickwall", "30,30", 30),
)
LATTICE_TOY = (("square", "6,6", 6), ("lieb", "3,3", 6))


def _lattice(kind, dims, denom, kappa, gamma, helicity):
    def run(ctx):
        gen = _call(ctx, ["lattice-generate", f"--kind={kind}", f"--dims={dims}"])
        path = gen.outdir / f"{kind}.json"
        _call(ctx, ["lattice-check", f"--graph={path}", "--p=1",
                    f"--denominator={denom}", f"--kappa={kappa!r}"])
        g = lattice.ScarGraph.from_json(path.read_text())
        q = elliptic.commensurate_q(1, denom, kappa)
        phases = lattice.assign_site_phases(g, q)
        spec = scar.ScarSpec(helicity=helicity, p=1, gamma=gamma, kappa=kappa, q=q)
        angles = scar.site_angles(spec, phases)
        theta = np.asarray(angles.theta)
        expect(theta.size == g.num_vertices and np.all(np.isfinite(angles.phi))
               and np.all((theta >= 0.0) & (theta <= math.pi)),
               "site angles missing or out of range")
        return f"{g.num_vertices} sites, {len(g.edges)} edges"
    return run


def _q_kappa_near_one(ctx):
    """Library case: invert Jx, Jy, Jz with kappa = 0.9997 within 0.5 s."""
    with time_limit(0.5):
        q, mod = elliptic.solve_q_kappa(*RUNAWAY_COUPLINGS)
    return f"q={q:.6f} kappa={mod.kappa:.4f}"


def lattice_scale(rng, toy: bool) -> list:
    points = 500 if toy else 20000
    cases = [Case(f"elliptic {points} points",
                  _subcommand(["elliptic", f"--points={points}", f"--seed={ELLIPTIC_SEED}"])),
             Case("solve_q_kappa kappa=0.9997", _q_kappa_near_one, known_defect="timed out")]
    for kind, dims, denom in (LATTICE_TOY if toy else LATTICE_CASES):
        cases.append(Case(f"lattice {kind} {dims}",
                          _lattice(kind, dims, denom, float(rng.uniform(0.2, 0.9)),
                                   float(rng.uniform(-0.9, 0.9)), _helicity(rng)),
                          known_defect="vertices unreachable" if kind == "trimer_brickwall" else ""))
    return cases


# ---------------------------------------------------------------------------
# tower_algebra: the only workload that reaches the schwinger and algebra
# layers (Fock bases, boson monomials, dense eigh with vectors).  Sizes keep
# each subcommand near a second; decomposition_check at N=5 is the largest
# Fock basis that does.
# ---------------------------------------------------------------------------

def tower_algebra(rng, toy: bool) -> list:
    (pn, ps), (sn, ss), algebra_sizes, (wn, ws) = (
        ((4, "1/2"), (4, "1/2"), ((4, "1/2"),), (3, "1/2")) if toy else
        ((8, "1"), (7, "1"), ((6, "1"), (9, "1/2")), (5, "1/2")))
    kappa = float(rng.uniform(0.2, 0.9))
    gammas = rng.uniform(-0.9, 0.9, 9)
    cases = [
        Case(f"projections N={pn} S={ps}",
             _subcommand(["projections", f"--N={pn}", f"--S={ps}", "--p=1",
                          f"--kappa={kappa!r}", f"--gammas={_floats(gammas)}"])),
        Case(f"span N={sn} S={ss}",
             _subcommand(["span", f"--N={sn}", f"--S={ss}", "--p=1",
                          f"--kappas={_floats(rng.uniform(0.1, 0.9, 4))}"])),
    ]
    for N, S in algebra_sizes:
        kappas = [0.0, *rng.uniform(0.1, 0.6, 2)]
        cases.append(Case(f"algebra-check N={N} S={S}",
                          _subcommand(["algebra-check", f"--N={N}", f"--S={S}", "--p=1",
                                       f"--kappas={_floats(kappas)}"])))
    cases.append(Case(f"schwinger-check N={wn} S={ws}",
                      _subcommand(["schwinger-check", f"--N={wn}", f"--S={ws}", "--p=1"])))
    return cases


CASE_MAKERS = {"chain_ed": chain_ed, "graph_scar": graph_scar,
            "lattice_scale": lattice_scale, "tower_algebra": tower_algebra}


def make_cases(workload: str, seed: int, toy: bool = False) -> list:
    """The workload's cases, with continuous inputs drawn from the seed."""
    return CASE_MAKERS[workload](np.random.default_rng(seed), toy)
