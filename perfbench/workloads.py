"""The in-process benchmark workload ``aged-sweep``.

It has a set-up step (what a user pays before the first result:
imports and the device build) and a round (the timed work, run cold:
empty trace memo, freshly synthesised traces, fresh devices and a
fresh result store).  ``serve-mixed`` lives in :mod:`serve`.

Cell outputs are checked three ways: a cell that raises is a failure;
a cell whose report digest differs from the same cell earlier in the
run (every round repeats the same sweep) or from the digest pinned in
``expected.json`` for this seed is a failure; and every report read
back from the result store must digest equal to the report the sweep
returned.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time

from speed import Sampler

#: run sizes: "full" is what the benchmark measures, "smoke" is the
#: self-test's cheap variant of the same code path.  ``round_s`` is the
#: nominal host time of one round on the machine the benchmark was
#: tuned on; it only turns ``--seconds`` into a fixed round count, so
#: the amount of work in a run never depends on how fast it went.
SIZES = {
    "full": {"device": "bench", "scale": 0.005, "round_s": 30.0},
    "smoke": {"device": "tiny", "scale": 0.002, "round_s": 2.0},
}

#: the paper's aging (section 4.1): 90% of capacity programmed, 39.8%
#: valid, warmed by a synthetic VDI write stream.  The paper warms every
#: run with the same trace, so the aging seed stays the SimConfig
#: default and the workload seed only picks the measured lun traces.
AGED = {"aged_used": 0.90, "aged_valid": 0.398, "aging_style": "vdi"}

SWEEP_LUNS = ("lun1", "lun6")

#: how much this workload slows when the reference bursts slow, in log
#: terms (see speed.py): measured 1.0 over runs whose bursts slowed 1.6x
ELASTICITY = 1.0


def rounds_for(seconds: float, round_s: float) -> int:
    """Rounds a run of ``seconds`` makes (at least one)."""
    return max(1, int(round(seconds / round_s)))


def derived_seed(seed: int, tag: str, k: int) -> int:
    """A non-negative 31-bit seed for input ``k`` of kind ``tag``."""
    blob = f"{seed}:{tag}:{k}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") >> 1


def cell_digest(report_doc: dict) -> str:
    """SHA-256 of a report dict without its volatile wall time."""
    doc = {k: v for k, v in report_doc.items() if k != "wall_seconds"}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


class Round:
    """Outcome of one timed round.

    Host seconds here are raw, net of reference bursts; a factor turns
    them into corrected seconds (see :mod:`speed`): ``factor`` for the
    whole round, ``cell_factors`` from the bursts taken during each
    cell.  A traced round takes no bursts and has no factors.
    """

    def __init__(self):
        self.wall_s = 0.0
        #: (cell name, host seconds, report dict or None, error or None)
        self.cells: list[tuple] = []
        self.factor: float | None = None
        self.cell_factors: list[float | None] = []
        self.store_stats: dict = {}
        #: cell name -> problem found by the post-round store check
        self.store_problems: dict[str, str] = {}


# ----------------------------------------------------------------------
# aged-sweep
# ----------------------------------------------------------------------
def aged_sweep_setup(seed: int, size: str) -> dict:
    """Imports and the device build; the lun traces are synthesised by
    the sweep itself, inside the timed round, as in a user's session."""
    from repro.config import SimConfig, SSDConfig
    from repro.experiments.parallel import ResultStore  # noqa: F401
    from repro.experiments.runner import ExperimentContext  # noqa: F401

    params = SIZES[size]
    return {
        "cfg": SSDConfig.preset(params["device"]),
        "sim_cfg": SimConfig(**AGED),
        "scale": params["scale"],
        "seed": seed,
    }


def aged_sweep_round(state: dict, tmp_root: str, index: int,
                     tracer=None) -> Round:
    """One cold Fig. 9 sweep: lun1 and lun6 x {ftl, mrsm, across}, one
    cell after another through ``ExperimentContext.run`` on a fresh
    store, then every cell read back from the store."""
    from repro.config import SCHEMES
    from repro.experiments.parallel import ResultStore, RunSpec
    from repro.experiments.runner import ExperimentContext
    from repro.traces.synthetic import _TRACE_MEMO

    del index  # every round repeats the same sweep
    _TRACE_MEMO.clear()
    out = Round()
    sampler = Sampler(ELASTICITY)
    with tempfile.TemporaryDirectory(dir=tmp_root) as store_dir:
        # a traced round measures layers, so it takes no reference bursts
        if tracer is not None:
            tracer.install()
        else:
            sampler.start()
        try:
            t_round = time.perf_counter()
            ctx = ExperimentContext(
                cfg=state["cfg"],
                sim_cfg=state["sim_cfg"],
                scale=state["scale"],
                seed_base=state["seed"],
                store=ResultStore(store_dir),
            )
            for lun in SWEEP_LUNS:
                for scheme in SCHEMES:
                    mark = len(sampler.samples)
                    t0, spent0 = time.perf_counter(), sampler.spent
                    try:
                        report, err = ctx.run(lun, scheme), None
                    except Exception as exc:  # a failed cell is counted
                        report, err = None, f"{type(exc).__name__}: {exc}"
                    secs = time.perf_counter() - t0 - (sampler.spent
                                                       - spent0)
                    out.cells.append((f"{lun}/{scheme}", secs, report, err))
                    out.cell_factors.append(sampler.factor(since=mark))
            out.wall_s = time.perf_counter() - t_round - sampler.spent
        finally:
            sampler.stop()
            if tracer is not None:
                tracer.uninstall()
        out.factor = sampler.factor()
        out.store_stats = ctx.store.stats()
        # the store must hand back exactly what the sweep computed
        reread = ResultStore(store_dir)
        for name, _secs, report, _err in out.cells:
            if report is None:
                continue
            lun, scheme = name.split("/")
            spec = RunSpec.make(
                scheme, ctx.lun_trace(lun), state["cfg"], state["sim_cfg"]
            )
            stored = reread.get(spec)
            if stored is None:
                out.store_problems[name] = "missing from the result store"
            elif cell_digest(stored.to_dict()) != cell_digest(
                report.to_dict()
            ):
                out.store_problems[name] = "store copy differs from report"
            if report.requests != len(ctx.lun_trace(lun)):
                out.store_problems[name] = "report request count is wrong"
    out.cells = [
        (name, secs, report.to_dict() if report is not None else None, err)
        for name, secs, report, err in out.cells
    ]
    return out

