"""scarlab benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 perfbench/run.py --workload chain_ed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; scarlab is imported from <checkout>/src.
Each pass over a workload's cases runs in a fresh interpreter
(perfbench/worker.py), a closed loop with one caller: cases run one after
another, and the BLAS pools of every worker are pinned to nproc threads
before numpy is imported.  Nothing else runs meanwhile.

--trace 0 reports the end-to-end metrics:
  setup_s      start of a worker process until its first case can begin
               (interpreter, imports, BLAS initialisation, input
               generation); median over the pass workers;
  wall_s       one pass over the cases; median over the passes;
  peak_rss_mb  ru_maxrss of the worker after its pass; median over passes;
  passed_frac  cases whose outputs checked out / cases attempted.  Its
               complement failed_frac = failed / attempted is printed and
               carried in the result's "failed" and "attempted" counts.
--trace 1 alternates untraced and traced passes and, when the workload
calls spectra, runs one more traced pass at a single BLAS thread.  It
reports the per-layer metrics (tracing.py), trace.overhead_frac = traced
wall_s / untraced wall_s - 1, and spectra.self_s_1thread.

Passes start until --seconds of measuring is used up, but at least
MIN_PASSES run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Everything a run writes goes under
<checkout>/.perfbench_runs/<workload>-seed<seed>-trace<t>/: result.json
(metrics, samples, case verdicts, the run record) and, for traced passes,
the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain_ed", "graph_scar", "lattice_scale", "tower_algebra")
MIN_PASSES = 3
TRACE_PAIRS = 2    # untraced/traced pass pairs in a traced run
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "SCARLAB_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def units(section: str) -> dict:
    """Metric name -> unit, for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class Runner:
    """Starts worker processes one at a time and collects their reports."""

    def __init__(self, workload: str, seed: int, rundir: Path, toy: bool, deadline: float):
        self.workload, self.seed, self.rundir = workload, seed, rundir
        self.toy, self.deadline = toy, deadline
        self.count = 0

    def spawn(self, mode: str, threads: int) -> dict:
        self.count += 1
        out = self.rundir / f"{mode}{self.count:02d}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.rundir))
        env.update({var: str(threads) for var in THREAD_VARS})
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode, "--out", str(out)]
        if self.toy:
            argv.append("--toy")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        started = time.monotonic()
        try:
            proc = subprocess.run(argv + ["--spawned", repr(started)], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker still running at the deadline") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)   # the CLI outputs of this pass
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{tail}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["process_s"] = time.monotonic() - started
        return report


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def summarize(name: str, values, unit: str) -> str:
    med = statistics.median(values)
    line = f"  {name:<14} {med:12.6g} {unit:<6} n={len(values)}"
    if len(values) >= 2:
        line += f"  min={min(values):.6g} max={max(values):.6g}"
    tail = tail_percentile(values)
    line += (f"  p{tail[0]:.0f}={tail[1]:.6g}" if tail
             else "  (no percentile has >= 10 samples above it)")
    return line


def measure(runner: Runner, seconds: float, threads: int, min_passes: int) -> dict:
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(runner.spawn("pass", threads))
        elapsed = time.monotonic() - t0
        estimate = statistics.median(p["process_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + estimate > seconds:
            break
    return {"setup": [p["setup_s"] for p in passes], "passes": passes}


def trace(runner: Runner, threads: int, pairs: int) -> dict:
    plain, traced = [], []
    for _ in range(pairs):
        plain.append(runner.spawn("pass", threads))
        traced.append(runner.spawn("trace", threads))
    layers = {key: statistics.median(t["layers"][key] for t in traced)
              for key in traced[0]["layers"]}
    single = []
    if layers["spectra.calls"]:
        # the plain single-threaded baseline; without spectra work it is 0
        single.append(runner.spawn("trace", 1))
    layers["spectra.self_s_1thread"] = single[0]["layers"]["spectra.self_s"] if single else 0.0
    layers["cli.bytes_written"] = statistics.median(t["cli_bytes_written"] for t in traced)
    layers["trace.overhead_frac"] = (statistics.median(t["wall_s"] for t in traced)
                                     / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return {"passes": plain + traced + single, "traced": traced, "layers": layers}


def verdict_table(passes) -> list:
    """One entry per case: name, passes ok, passes failed, known defect, detail."""
    rows = {}
    for p in passes:
        for v in p["verdicts"]:
            row = rows.setdefault(v["case"], {"case": v["case"], "ok": 0, "failed": 0,
                                              "unexpected": 0, "detail": v["detail"]})
            if v["ok"]:
                row["ok"] += 1
            else:
                row["failed"] += 1
                row["unexpected"] += not v["known_defect"]
                row["detail"] = v["detail"]
    return list(rows.values())


def run(workload: str, seed: int, seconds: float, traced: bool, toy: bool = False) -> dict:
    """Run one workload and return the result record (see module docstring)."""
    if not (ROOT / "src" / "scarlab" / "__init__.py").is_file():
        raise BenchError(f"no scarlab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    rundir = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    threads = nproc()
    runner = Runner(workload, seed, rundir, toy, deadline)
    min_passes = 1 if toy else MIN_PASSES
    if traced:
        data = trace(runner, threads, 1 if toy else TRACE_PAIRS)
        counted = data["traced"]
    else:
        data = measure(runner, seconds, threads, min_passes)
        counted = data["passes"]
    attempted = sum(len(p["verdicts"]) for p in counted)
    failed = sum(not v["ok"] for p in counted for v in p["verdicts"])
    unexpected = sum(not v["ok"] and not v["known_defect"] for p in counted for v in p["verdicts"])
    if traced:
        values = data["layers"]
    else:
        samples = {"setup_s": data["setup"],
                   "wall_s": [p["wall_s"] for p in counted],
                   "peak_rss_mb": [p["peak_rss_mb"] for p in counted]}
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["passed_frac"] = 1.0 - failed / attempted
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in units("per_layer" if traced else "end_to_end").items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "toy": toy, "nproc": nproc(), "blas_threads": threads,
        "versions": counted[0]["versions"], "commit": git_commit(),
        "src_sha256": source_digest(),
    }
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full = dict(result, record=record, verdicts=verdict_table(data["passes"]),
                samples=None if traced else samples)
    with open(rundir / "result.json", "w") as fh:
        json.dump(full, fh, indent=1)
    return full


def report_lines(full: dict) -> list:
    rec = full["record"]
    lines = [f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']}",
             "run: " + " ".join(f"{k}={rec[k]}" for k in ("nproc", "blas_threads", "commit",
                                                          "src_sha256"))
             + " " + " ".join(f"{k}={v}" for k, v in rec["versions"].items()),
             "cases:"]
    for row in full["verdicts"]:
        tag = "PASS" if not row["failed"] else ("KNOWN-DEFECT" if not row["unexpected"] else "FAIL")
        lines.append(f"  {tag:<12} {row['case']} ({row['ok']} ok, {row['failed']} failed): "
                     f"{row['detail']}")
    lines.append("metrics:")
    if full["samples"]:
        for name, values in full["samples"].items():
            lines.append(summarize(name, values, full["metrics"][name]["unit"]))
        frac = full["failed"] / full["attempted"]
        lines.append(f"  {'failed_frac':<14} {frac:12.6g} ratio  "
                     f"({full['failed']} of {full['attempted']} case runs)")
        lines.append(f"  {'passed_frac':<14} {1.0 - frac:12.6g} ratio")
    else:
        shares = {k: v["value"] for k, v in full["metrics"].items() if k.endswith(".self_frac")}
        lines.append("  self time by layer: " + ", ".join(
            f"{k.split('.')[0]} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        for name, m in full["metrics"].items():
            lines.append(f"  {name:<32} {m['value']:14.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            full = run(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report_lines(full)), flush=True)
            results[name] = full
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        out = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": m for w, r in results.items()
                           for k, m in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
