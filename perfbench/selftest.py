#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size (under a minute).

Usage (from the repository root): ``python3 perfbench/selftest.py``

Checks, for every workload in ``BENCHMARK.json``:

* an untraced run emits exactly the ``end_to_end`` metrics and a
  traced run exactly the ``per_layer`` metrics, each with its unit;
* two untraced runs of the same seed give identical simulated metrics
  (``EXACT``) and identical output digests, and both pass their output
  checks.

It also checks that the benchmark exits non-zero without printing a
result when the simulator sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 2023
SECONDS = {"aged-sweep": "2", "serve-mixed": "3"}
#: end-to-end metrics computed from simulated results, so exact
EXACT = ("flash_writes_per_req",)


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS[workload], "--trace", str(trace),
           "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc) -> tuple[dict, dict]:
    """(final JSON object, output digests) of a finished run."""
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[len("# info "):]) for line in lines
                if line.startswith("# info "))
    return json.loads(lines[-1]), info["digests"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems: list[str] = []
    for wl in (w["name"] for w in bench["workloads"]):
        before = len(problems)
        runs = {}
        for label, trace in (("a", 0), ("b", 0), ("traced", 1)):
            proc = run(wl, trace)
            if proc.returncode != 0:
                problems.append(f"{wl}/{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                break
            doc, digests = result(proc)
            runs[label] = (doc, digests)
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{wl}/{label}: metrics or units differ "
                                f"from BENCHMARK.json: {diff}")
            if not doc["correct"] or doc["failed"]:
                problems.append(f"{wl}/{label}: output check failed")
        if len(runs) == 3:
            (a, da), (b, db) = runs["a"], runs["b"]
            for name in EXACT:
                if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                    problems.append(f"{wl}: {name} differs between runs")
            if da != db or not da:
                problems.append(f"{wl}: output digests differ between runs")
        print(f"selftest {wl}: "
              f"{'ok' if len(problems) == before else 'FAILED'}",
              flush=True)

    # without the simulator sources the benchmark must refuse to run
    bare = ROOT / ".perfbench-tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("aged-sweep", 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run without sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
