#!/usr/bin/env python3
"""The repository benchmark: one workload per run, one JSON line last.

Usage (from the repository root)::

    python3 perfbench/run.py --workload aged-sweep --seed 2023 \\
        --seconds 40 --trace 0

``--workload all`` runs the workloads in turn, each in its own
process, and exits non-zero when any fails.

Workloads (see ``perfbench/WORKLOADS.md`` for why each was chosen):

* ``aged-sweep`` — the Fig. 9 sweep in-process: bench device aged the
  paper's way, lun1 and lun6 x {ftl, mrsm, across}, fresh store;
* ``serve-mixed`` — ``repro serve`` as a subprocess under one
  closed-loop client sending a seeded mix of store hits, misses and
  fleet requests.

``--trace 0`` measures with the program as shipped and prints the
end-to-end metrics; ``--trace 1`` also runs rounds with the layer
wrappers of :mod:`tracer` installed and prints the per-layer metrics,
including the tracing overhead (traced minus untraced round time).
End-to-end timings are host time corrected for the host's speed by
reference bursts interleaved with the work (:mod:`speed`); the raw
timings are on the ``# info`` line.
Every run is a fresh process with empty stores; ``--seconds`` fixes
how much work a run does (rounds or requests), never a deadline.
Outputs are checked against earlier outputs of the same name in the
run, against the digests pinned in ``expected.json`` for the seed, and
(serve) against an in-process recomputation; any failure makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("aged-sweep", "serve-mixed")
DEFAULT_SEED = 2023
#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 3

#: (name, unit) of every end-to-end metric, in output order
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("flash_writes_per_req", "pages/req"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   required=True,
                   help="one workload, or 'all' to run each in turn in "
                        "its own process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the self-test's cheap variant")
    p.add_argument("--pin", action="store_true",
                   help="record this run's output digests in "
                        "expected.json instead of checking them")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values: list[float]) -> float:
    """The highest percentile with at least 10 samples beyond it.
    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead."""
    xs = sorted(values)
    return xs[-1] if len(xs) < 20 else xs[len(xs) - 11]


def tail_label(n: int) -> str:
    """What :func:`tail` reports for ``n`` samples."""
    return f"max of {n}" if n < 20 else f"p{100.0 * (n - 10) / n:.1f} of {n}"


def flash_writes_per_req(cells: list[dict]) -> float:
    """Simulated flash page writes per simulated request (aging
    excluded), request-weighted over report dicts."""
    requests = sum(d["requests"] for d in cells)
    writes = sum(d["counters"]["total_writes"] for d in cells)
    return writes / requests if requests else 0.0


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted and failed operations, with reasons."""

    def __init__(self, workload: str, size: str, seed: int, pinned: bool):
        doc = json.loads(EXPECTED.read_text()) if pinned else {}
        self.pinned: dict = doc.get(workload, {}).get(size, {}).get(
            str(seed), {})
        self.attempted = 0
        self.failures: list[str] = []
        #: output name -> first digest seen in this run
        self.seen: dict[str, str] = {}

    def op(self, name: str, digest: str | None, problem: str | None):
        """Account one operation producing output ``name``."""
        self.attempted += 1
        if problem is None and digest is not None:
            first = self.seen.setdefault(name, digest)
            if digest != first:
                problem = "digest differs from an earlier output"
            elif name in self.pinned and self.pinned[name] != digest:
                problem = "digest differs from the pinned digest"
        if problem is not None:
            self.failures.append(f"{name}: {problem}")

    def pinned_checked(self) -> int:
        return sum(1 for name in self.seen if name in self.pinned)


def pin(workload: str, size: str, seed: int, digests: dict) -> None:
    """Record ``digests`` as the expected outputs of this run's seed."""
    doc = json.loads(EXPECTED.read_text())
    doc.setdefault(workload, {}).setdefault(size, {})[str(seed)] = dict(
        sorted(digests.items()))
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def probe_setup(args) -> tuple[float, float]:
    """Host seconds from spawning a fresh interpreter until it has done
    the workload's set-up (imports and the device build), raw and
    corrected by the reference bursts the interpreter runs right after
    (see :mod:`speed`)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=120, check=True)
    elapsed = time.perf_counter() - t0
    words = proc.stdout.split()
    if len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed: {proc.stdout[-500:]}")
    # the bursts ran after the set-up was timed: take their time back
    raw = elapsed - speed.SETUP_BURSTS * float(words[1])
    return raw, raw * speed.factor_of(float(words[1]),
                                      speed.SETUP_ELASTICITY)


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
def run_sweep(args, tmp_root: str, checker: Checker):
    """aged-sweep; returns (e2e dict, per-layer dict, info dict)."""
    from layers import compute
    from tracer import Tracer
    from workloads import (SIZES, aged_sweep_round, aged_sweep_setup,
                           cell_digest, rounds_for)

    setups = [probe_setup(args) for _ in range(SETUP_REPEATS)]
    state = aged_sweep_setup(args.seed, args.size)
    n = rounds_for(args.seconds, SIZES[args.size]["round_s"])
    # the traced run alternates untraced and traced rounds, untraced
    # first, and each traced round repeats its untraced twin's input
    if args.trace:
        plan = [(i // 2, bool(i % 2)) for i in range(2 * max(1, n // 2))]
    else:
        plan = [(i, False) for i in range(n)]
    # one tracer for the whole run, installed only around traced rounds
    tracer = Tracer()
    rounds = []
    for index, traced in plan:
        rnd = aged_sweep_round(state, tmp_root, index,
                               tracer if traced else None)
        rounds.append((traced, rnd))
        for name, _secs, doc, err in rnd.cells:
            problem = err or rnd.store_problems.get(name)
            checker.op(name, cell_digest(doc) if doc else None, problem)
        print(f"# round {len(rounds)}/{len(plan)}"
              f"{' traced' if traced else ''}: {rnd.wall_s:.3f} s", flush=True)

    untraced = [r for t, r in rounds if not t]
    traced = [r for t, r in rounds if t]
    ok_cells = [doc for r in untraced for _n, _s, doc, _e in r.cells if doc]

    def timings(corrected: bool) -> dict:
        def k(r):
            return r.factor if corrected else 1.0

        def cell_k(r):
            """Per cell: its own bursts' factor, else the round's."""
            return [(f or r.factor) if corrected else 1.0
                    for f in r.cell_factors]

        op_ms = [c[1] * f * 1000.0
                 for r in untraced for c, f in zip(r.cells, cell_k(r))]
        return {
            "setup_s": statistics.median(
                s[1 if corrected else 0] for s in setups),
            "wall_s": statistics.median(r.wall_s * k(r) for r in untraced),
            "op_per_s": len(op_ms) / sum(r.wall_s * k(r) for r in untraced),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail(op_ms),
        }

    e2e = timings(corrected=True)
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["flash_writes_per_req"] = flash_writes_per_req(ok_cells)
    info = {"ops": "cells",
            "tail": tail_label(sum(len(r.cells) for r in untraced)),
            "rounds": len(untraced), "raw": timings(corrected=False),
            "speed_factors": [r.factor for r in untraced]}
    per_layer = None
    if traced:
        per_layer = compute(
            totals=tracer.totals(),
            spans=tracer.spans(),
            cells=[doc for r in traced for _n, _s, doc, _e in r.cells if doc],
            store_stats=_sum_stats(r.store_stats for r in traced),
            serve_stats={},
            client_s=0.0,
            traced_wall_s=statistics.median(r.wall_s for r in traced),
            untraced_wall_s=statistics.median(r.wall_s for r in untraced),
        )
        _write_spans(args, tracer.spans())
    return e2e, per_layer, info


def _sum_stats(stats) -> dict:
    out: dict = {}
    for st in stats:
        for k, v in st.items():
            out[k] = out.get(k, 0) + v
    return out


def run_serve(args, tmp_root: str, checker: Checker):
    """serve-mixed; returns (e2e dict, per-layer dict, info dict)."""
    from layers import compute
    import serve

    cpu = serve.pin_to_one_cpu()
    params = serve.SIZES[args.size]
    total = max(1, int(round(args.seconds * params["req_per_s"])))
    items = serve.plan(args.seed, args.size, total)
    setups = [serve.setup_probe(ROOT, tmp_root)
              for _ in range(SETUP_REPEATS - 1)]
    sessions = [serve.run_session(ROOT, tmp_root, items)]
    setups.append(sessions[0].setup)
    if args.trace:
        dump = Path(tmp_root) / "server-trace.json"
        sessions.append(serve.run_session(ROOT, tmp_root, items, dump))
    verified = serve.verify_in_process(items, tmp_root)

    served_cells: dict[tuple, dict] = {}
    for session in sessions:
        for pid, _ms, doc, problem in session.requests:
            digest = None
            if problem is None:
                digest = serve.stable_digest(doc)
                if pid in verified and verified[pid] != digest:
                    problem = "differs from the in-process result"
            checker.op(pid, digest, problem)
            if problem is not None or doc.get("kind") != "sweep":
                continue
            for label, cell in doc["results"].items():
                served_cells.setdefault((pid, label), cell)

    main = sessions[0]

    def timings(corrected: bool) -> dict:
        k = main.factor if corrected else 1.0
        op_ms = [ms * k for _pid, ms, _doc, _p in main.requests]
        return {
            "setup_s": statistics.median(
                s[1 if corrected else 0] for s in setups),
            "wall_s": main.wall_s * k,
            "op_per_s": len(op_ms) / (main.wall_s * k),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail(op_ms),
        }

    e2e = timings(corrected=True)
    e2e["peak_rss_mb"] = main.server_rss_mb
    e2e["flash_writes_per_req"] = flash_writes_per_req(
        list(served_cells.values()))
    info = {"ops": "requests", "tail": tail_label(len(main.requests)),
            "clients": 1, "cpu": cpu, "raw": timings(corrected=False),
            "speed_factor": main.factor,
            "client_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "stats": main.stats}
    per_layer = None
    if args.trace:
        traced = sessions[1]
        dump = traced.trace_dump
        if dump is None:
            raise RuntimeError("the traced server wrote no trace dump")
        spans = [tuple(s) for s in dump["spans"]]
        traced_cells = [
            cell for _pid, _ms, doc, problem in traced.requests
            if problem is None and doc.get("kind") == "sweep"
            and doc["executed"]
            for cell in doc["results"].values()
        ]
        per_layer = compute(
            totals=dump["totals"],
            spans=spans,
            cells=traced_cells,
            store_stats=traced.stats.get("store", {}),
            serve_stats=traced.stats,
            client_s=sum(ms for _p, ms, _d, _x in traced.requests) / 1000.0,
            traced_wall_s=traced.wall_s,
            untraced_wall_s=main.wall_s,
        )
        _write_spans(args, spans)
    return e2e, per_layer, info


def _write_spans(args, spans) -> None:
    """Spans of the traced rounds, one JSON list per line."""
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(
            ["name", "start", "end", "parent", "group", "id"]) + "\n")
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")
    print(f"# spans: {path.relative_to(ROOT)} ({len(spans)})", flush=True)


def run_all(args) -> int:
    """Run every workload in a fresh process with the same options;
    exit non-zero when any of them fails."""
    codes = []
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size] + (["--pin"] if args.pin else [])
        print(f"# === {wl}", flush=True)
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)

    if args.setup_probe:
        from workloads import aged_sweep_setup

        aged_sweep_setup(args.seed, args.size)
        bursts = [speed.burst() for _ in range(speed.SETUP_BURSTS)]
        print("ready", statistics.fmean(bursts), flush=True)
        return 0

    tmp_base = ROOT / ".perfbench-tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp_root = tmp_base / f"run-{os.getpid()}"
    tmp_root.mkdir()
    checker = Checker(args.workload, args.size, args.seed,
                      pinned=not args.pin)
    try:
        if args.workload == "serve-mixed":
            e2e, per_layer, info = run_serve(args, str(tmp_root), checker)
        else:
            e2e, per_layer, info = run_sweep(args, str(tmp_root), checker)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass

    if args.pin:
        pin(args.workload, args.size, args.seed, checker.seen)
        print(f"# pinned {len(checker.seen)} digests", flush=True)
    failed = len(checker.failures)
    for reason in checker.failures[:20]:
        print(f"# FAILED {reason}", flush=True)
    print(f"# {args.workload} seed {args.seed}: {checker.attempted} "
          f"{info['ops']} attempted, {failed} failed "
          f"(failed_frac {failed / max(1, checker.attempted):.4f}); "
          f"{checker.pinned_checked()} outputs checked against pinned "
          f"digests; tail = {info['tail']}", flush=True)
    info["digests"] = checker.seen
    print(f"# info {json.dumps(info, sort_keys=True)}", flush=True)

    if args.trace:
        from layers import METRICS

        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", flush=True)
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    correct = failed == 0 and not bad
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
