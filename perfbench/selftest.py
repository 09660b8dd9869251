"""Self-test of the benchmark at toy sizes; runs in well under a minute.

    python3 perfbench/selftest.py

For every workload, one untraced and one traced toy run go through the same
code paths as the real benchmark.  It checks that every metric named in
BENCHMARK.json is emitted with its unit, that the deliberately wrong
expected count of the chain_ed canary case is counted as failed, and that
the benchmark refuses to run, printing no result, in a directory holding
only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        for traced in (False, True):
            full = run.run(workload, seed=0, seconds=0.0, traced=traced, toy=True)
            got = {k: m["unit"] for k, m in full["metrics"].items()}
            check(got == wanted[traced], f"{workload} trace={int(traced)} metrics/units differ: "
                  f"missing {sorted(set(wanted[traced]) - set(got))}, "
                  f"extra {sorted(set(got) - set(wanted[traced]))}")
            check(all(isinstance(m["value"], (int, float)) for m in full["metrics"].values()),
                  f"{workload}: a metric value is not a number")
            canary = [r for r in full["verdicts"] if r["case"].startswith("canary")]
            if workload == "chain_ed":
                check(len(canary) == 1 and canary[0]["ok"] == 0 and canary[0]["unexpected"] > 0,
                      "the canary with a wrong expected count did not fail")
                # a toy run counts one pass, so the canary is its one failure
                check(full["failed"] == 1, f"{full['failed']} failures, expected the canary only")
                check(not full["correct"], "a run with an unexpected failure reads correct")
            else:
                check(full["correct"], f"{workload} toy case failed: "
                      + "; ".join(r["detail"] for r in full["verdicts"] if r["unexpected"]))
            if not traced:
                frac = full["metrics"]["passed_frac"]["value"]
                check(abs(frac - (1 - full["failed"] / full["attempted"])) < 1e-12,
                      "passed_frac != 1 - failed/attempted")
            print(f"ok  {workload} trace={int(traced)}: {len(got)} metrics, "
                  f"{full['failed']}/{full['attempted']} failed")

    bare = run.ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain_ed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory refused with exit {proc.returncode}: {proc.stderr.strip()}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
