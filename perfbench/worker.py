"""One workload process: set up, optionally install tracing, run one pass.

run.py starts this as a fresh interpreter with the BLAS thread variables and
PYTHONPATH=<checkout>/src already in its environment, and passes the
monotonic time it started the process at.  Modes:

  pass   import scarlab, generate the inputs (setup_s ends here), then run
         every case once with tracing off;
  trace  the same, with span wrappers installed before the pass; the spans
         are written to <out>-spans.npz when the pass ends.

Prints one JSON object on stdout; the program's own output is captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    outdir: Path

    @property
    def passes(self) -> int:
        return sum(line.startswith("PASS:") for line in self.stdout.splitlines())

    def tail(self) -> str:
        lines = (self.stderr or self.stdout).strip().splitlines()
        return lines[-1] if lines else ""


class Context:
    """What a case sees: a CLI runner writing into a fresh directory per call."""

    def __init__(self, root: Path, cli_module, tracer=None):
        self.root = root
        self.cli_module = cli_module
        self.tracer = tracer
        self.case_index = -1
        self.calls = 0
        self.bytes_written = 0

    def begin_case(self, index: int) -> None:
        self.case_index = index
        if self.tracer is not None:
            self.tracer.case_index = index

    def cli(self, argv) -> CliResult:
        self.calls += 1
        outdir = self.root / f"case{self.case_index:02d}-call{self.calls:03d}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # looked up at call time, so a traced run goes through the wrapper
            code = self.cli_module.main([f"--out={outdir}", *argv])
        if outdir.is_dir():
            self.bytes_written += sum(f.stat().st_size for f in outdir.iterdir() if f.is_file())
        return CliResult(code, out.getvalue(), err.getvalue(), outdir)


def run_pass(cases, ctx: Context) -> list:
    verdicts = []
    for i, case in enumerate(cases):
        ctx.begin_case(i)
        t0 = time.perf_counter()
        try:
            detail, ok = case.run(ctx), True
        except Exception as exc:  # a failing case is counted; the pass goes on
            detail, ok = f"{type(exc).__name__}: {exc}", False
        known = bool(case.known_defect) and not ok and case.known_defect in detail
        verdicts.append({"case": case.name, "ok": ok, "known_defect": known,
                         "seconds": time.perf_counter() - t0, "detail": detail})
    return verdicts


def versions() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--out", required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    import workloads  # imports numpy, scipy.sparse and every scarlab layer
    cases = workloads.make_cases(args.workload, args.seed, args.toy)
    setup_s = time.monotonic() - args.spawned
    out = Path(args.out)
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{out.name}")
        tracing.install(tracer)
    ctx = Context(out, workloads.cli, tracer)
    t0 = time.perf_counter()
    verdicts = run_pass(cases, ctx)
    wall_s = time.perf_counter() - t0
    report = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "verdicts": verdicts, "cli_bytes_written": ctx.bytes_written,
              "versions": versions()}
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, wall_s)
        tracer.save(out.with_name(out.name + "-spans.npz"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
