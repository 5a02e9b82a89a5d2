"""Per-layer metrics of a traced run.

Timings come from the :class:`tracer.Tracer` accumulators and spans;
counts come from the program's own outputs (report ``counters`` and
``extra``, ``ResultStore.stats()``, serve ``/stats``).  Every ratio is
emitted next to its base.  A layer that a workload never enters
reports zeros.
"""

from __future__ import annotations

from tracer import LAYERS, layer_self

SCHEMES = ("ftl", "mrsm", "across")

#: (name, unit) of every per-layer metric, in output order
METRICS: list[tuple[str, str]] = [
    ("traces.gen_s", "s"),
    ("traces.gen_calls", "count"),
    ("traces.gen_in_aging_s", "s"),
    ("sim.age_s", "s"),
    ("sim.age_pages", "pages"),
    ("sim.age_pages_per_s", "pages/s"),
    ("sim.replay_s", "s"),
    ("sim.replay_self_s", "s"),
    ("sim.requests", "count"),
    ("sim.read_ms", "sim_ms"),
    ("sim.write_ms", "sim_ms"),
    ("sim.erases", "count"),
]
for _s in SCHEMES:
    METRICS += [
        (f"ftl.write_s.{_s}", "s"),
        (f"ftl.write_calls.{_s}", "count"),
        (f"ftl.read_s.{_s}", "s"),
        (f"ftl.read_calls.{_s}", "count"),
        (f"ftl.flush_s.{_s}", "s"),
        (f"ftl.gc_s.{_s}", "s"),
        (f"ftl.gc_calls.{_s}", "count"),
        (f"ftl.gc_migrated_pages.{_s}", "pages"),
    ]
METRICS += [
    ("ftl.map_cache_hit_ratio.ftl", "ratio"),
    ("ftl.map_cache_lookups.ftl", "count"),
    ("ftl.map_cache_hit_ratio.mrsm", "ratio"),
    ("ftl.map_cache_lookups.mrsm", "count"),
    ("ftl.amt_cache_hit_ratio.across", "ratio"),
    ("ftl.amt_cache_lookups.across", "count"),
    ("ftl.across_amerge.across", "count"),
    ("ftl.across_rollbacks.across", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.reads", "count"),
    ("flash.service_s", "s"),
    ("flash.reads", "count"),
    ("flash.programs", "count"),
    ("flash.erases", "count"),
    ("experiments.execute_s", "s"),
    ("experiments.store_get_s", "s"),
    ("experiments.store_put_s", "s"),
    ("experiments.store_hit_ratio", "ratio"),
    ("experiments.store_hits", "count"),
    ("experiments.store_lookups", "count"),
    ("metrics.to_dict_s", "s"),
    ("metrics.from_dict_s", "s"),
    ("fleet.handle_s.hit", "s"),
    ("fleet.handle_s.miss", "s"),
    ("fleet.wait_s", "s"),
    ("fleet.compose_s", "s"),
    ("fleet.qos_s", "s"),
    ("fleet.runs_executed", "count"),
    ("fleet.runs_cached", "count"),
    ("fleet.errors", "count"),
    ("fleet.hit_share.traces", "ratio"),
    ("fleet.hit_share.experiments", "ratio"),
    ("fleet.hit_share.metrics", "ratio"),
    ("fleet.hit_share.fleet", "ratio"),
]
for _layer in LAYERS:
    METRICS += [(f"{_layer}.self_s", "s"), (f"{_layer}.share", "ratio")]
METRICS += [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]

#: report ``extra`` keys of each scheme's translation cache
_MAP_CACHE_KEYS = {"ftl": "pmt_cache", "mrsm": "map_cache"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_self(spans: list) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    own = {s[5]: s[2] - s[1] for s in spans}
    for name, t0, t1, parent, _group, _sid in spans:
        if parent in own:
            own[parent] -= t1 - t0
    return own


def compute(
    *,
    totals: dict,
    spans: list,
    cells: list[dict],
    store_stats: dict,
    serve_stats: dict,
    client_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every metric of :data:`METRICS`, by name.

    ``cells`` are the report dicts simulated inside the traced window;
    ``client_s`` is the summed client-observed latency of the traced
    serve requests (0 when the workload has no serve layer).
    """

    def incl(*keys):
        return sum(totals.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def calls(*keys):
        return sum(totals.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def own(*keys):
        return sum(totals.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def cell_sum(fn) -> float:
        return sum(fn(doc) for doc in cells)

    def scheme_sum(scheme, key) -> float:
        return sum(doc["extra"].get(key, 0) for doc in cells
                   if doc["scheme"] == scheme)

    m: dict[str, float] = {}
    m["traces.gen_s"] = incl("traces.gen", "traces.gen.aging")
    m["traces.gen_calls"] = calls("traces.gen", "traces.gen.aging")
    m["traces.gen_in_aging_s"] = incl("traces.gen.aging")

    age_s = incl("sim.age")
    age_pages = cell_sum(
        lambda d: d["counters"]["writes_by_kind"].get("aging", 0))
    m["sim.age_s"] = age_s
    m["sim.age_pages"] = age_pages
    m["sim.age_pages_per_s"] = _ratio(age_pages, age_s)
    replay = {s[5]: s[2] - s[1] for s in spans if s[0] == "sim.run"}
    for name, t0, t1, parent, _group, _sid in spans:
        if name == "sim.age" and parent in replay:
            replay[parent] -= t1 - t0
    m["sim.replay_s"] = sum(replay.values())
    m["sim.replay_self_s"] = own("sim.run")

    # simulated results, request-weighted over the traced cells
    reads = cell_sum(lambda d: d["latency"]["reads"])
    writes = cell_sum(lambda d: d["latency"]["writes"])
    m["sim.requests"] = cell_sum(lambda d: d["requests"])
    m["sim.read_ms"] = _ratio(cell_sum(lambda d: d["latency"]["read_ms"]),
                              reads)
    m["sim.write_ms"] = _ratio(
        cell_sum(lambda d: d["latency"]["write_ms"]), writes)
    m["sim.erases"] = cell_sum(lambda d: d["counters"]["erases"])

    for s in SCHEMES:
        m[f"ftl.write_s.{s}"] = incl(f"ftl.write.{s}")
        m[f"ftl.write_calls.{s}"] = calls(f"ftl.write.{s}")
        m[f"ftl.read_s.{s}"] = incl(f"ftl.read.{s}")
        m[f"ftl.read_calls.{s}"] = calls(f"ftl.read.{s}")
        m[f"ftl.flush_s.{s}"] = incl(f"ftl.flush.{s}")
        m[f"ftl.gc_s.{s}"] = incl(f"ftl.gc.{s}")
        m[f"ftl.gc_calls.{s}"] = calls(f"ftl.gc.{s}")
        m[f"ftl.gc_migrated_pages.{s}"] = scheme_sum(s, "gc_migrated_pages")
    for s, prefix in _MAP_CACHE_KEYS.items():
        hits = scheme_sum(s, f"{prefix}_hits")
        lookups = hits + scheme_sum(s, f"{prefix}_misses")
        m[f"ftl.map_cache_hit_ratio.{s}"] = _ratio(hits, lookups)
        m[f"ftl.map_cache_lookups.{s}"] = lookups
    hits = scheme_sum("across", "amt_cache_hits")
    lookups = hits + scheme_sum("across", "amt_cache_misses")
    m["ftl.amt_cache_hit_ratio.across"] = _ratio(hits, lookups)
    m["ftl.amt_cache_lookups.across"] = lookups
    m["ftl.across_amerge.across"] = scheme_sum(
        "across", "across_profitable_amerge") + scheme_sum(
        "across", "across_unprofitable_amerge")
    m["ftl.across_rollbacks.across"] = scheme_sum("across", "across_rollbacks")

    cache_hits = cell_sum(lambda d: d["counters"]["cache_hits"])
    m["cache.hit_ratio"] = _ratio(cache_hits, reads)
    m["cache.hits"] = cache_hits
    m["cache.reads"] = reads

    m["flash.service_s"] = incl("flash.read", "flash.program", "flash.erase")
    m["flash.reads"] = calls("flash.read")
    m["flash.programs"] = calls("flash.program")
    m["flash.erases"] = calls("flash.erase")

    m["experiments.execute_s"] = incl("experiments.execute")
    m["experiments.store_get_s"] = incl("experiments.store_get")
    m["experiments.store_put_s"] = incl("experiments.store_put")
    s_hits = store_stats.get("hits", 0)
    s_lookups = s_hits + store_stats.get("misses", 0)
    m["experiments.store_hit_ratio"] = _ratio(s_hits, s_lookups)
    m["experiments.store_hits"] = s_hits
    m["experiments.store_lookups"] = s_lookups

    m["metrics.to_dict_s"] = incl("metrics.to_dict")
    m["metrics.from_dict_s"] = incl("metrics.from_dict")

    handled = incl("fleet.handle.hit", "fleet.handle.miss",
                   "fleet.handle.error")
    m["fleet.handle_s.hit"] = incl("fleet.handle.hit")
    m["fleet.handle_s.miss"] = incl("fleet.handle.miss")
    m["fleet.wait_s"] = client_s - handled if client_s else 0.0
    m["fleet.compose_s"] = incl("fleet.compose")
    m["fleet.qos_s"] = incl("fleet.qos")
    svc = serve_stats.get("service", {})
    m["fleet.runs_executed"] = svc.get("runs_executed_total", 0)
    m["fleet.runs_cached"] = svc.get("runs_cached_total", 0)
    m["fleet.errors"] = svc.get("errors_total", 0)
    hit_ids = {s[5] for s in spans if s[0] == "fleet.handle.hit"}
    span_own = _span_self(spans)
    hit_layer = {"traces": 0.0, "experiments": 0.0, "metrics": 0.0,
                 "fleet": 0.0}
    for s in spans:
        layer = s[0].split(".", 1)[0]
        if s[4] in hit_ids and layer in hit_layer:
            hit_layer[layer] += span_own[s[5]]
    hit_total = incl("fleet.handle.hit")
    for layer, secs in hit_layer.items():
        m[f"fleet.hit_share.{layer}"] = _ratio(secs, hit_total)

    selfs = layer_self(totals)
    tracked = sum(selfs.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
        m[f"{layer}.share"] = _ratio(selfs[layer], tracked)
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.overhead_frac"] = _ratio(
        traced_wall_s - untraced_wall_s, untraced_wall_s)
    return {name: float(m[name]) for name, _unit in METRICS}
