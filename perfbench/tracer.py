"""Layer tracing for the traced benchmark run, installed from outside.

:class:`Tracer` replaces public entry points of the simulator's
packages with timing wrappers (class attributes for methods, module
attributes for functions imported by name) and restores them on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited: the
untraced run executes the program as shipped.

Two kinds of site are recorded:

* span sites (cells, requests, trace synthesis, store access, report
  serialisation) append ``(name, start, end, parent, group, id)``
  records to an in-memory list, where ``group`` is the id of the
  enclosing cell (``Simulator.run``) or request
  (``FleetService.handle_request``);
* hot sites (FTL read/write/flush, GC, flash service, data cache) only
  bump per-name ``[calls, inclusive_s, self_s]`` accumulators.

Both kinds push a frame on a per-thread stack, so a site's self time is
its duration minus the time its tracked children took, and a layer's
self time is the sum over its sites.  Inclusive time is counted once
per outermost entry of a site, so recursion is not double counted.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

#: the packages the benchmark attributes time to, in report order
LAYERS = (
    "traces", "sim", "ftl", "cache", "flash", "experiments", "metrics",
    "fleet",
)

#: span names that own a group id (one cell or one serve request)
_ROOTS = ("sim.run", "fleet.handle.hit", "fleet.handle.miss",
          "fleet.handle.error")

_SCHEME_CLASSES = (
    ("repro.ftl.pagemap", "PageMapFTL", "ftl"),
    ("repro.ftl.mrsm", "MRSMFTL", "mrsm"),
    ("repro.core.across", "AcrossFTL", "across"),
)


class _ThreadState:
    __slots__ = ("frames", "acc", "active", "spans", "scheme", "aging")

    def __init__(self):
        #: [name, t0, child_s, span_id, group_id, site] per open call
        self.frames: list[list] = []
        #: name -> [calls, inclusive_s, self_s]
        self.acc: dict[str, list] = {}
        #: site id -> open entries (recursion guard for inclusive time)
        self.active: dict[int, int] = {}
        self.spans: list[tuple] = []
        #: scheme of the cell this thread is simulating ("" outside one)
        self.scheme = ""
        #: open ``Simulator.age_device`` calls on this thread
        self.aging = 0


class Tracer:
    """Installs layer wrappers; collects spans and accumulators."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._sites = itertools.count(1)
        #: (owner, attribute, original) of every installed wrapper
        self._patches: list[tuple] = []

    # -- per-thread state ---------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- the wrapper ----------------------------------------------------
    def _wrap(self, fn, name, *, span=False, enter=None, classify=None):
        """Timing wrapper around ``fn``.

        ``name`` is a fixed site name or a callable ``(state, args) ->
        name`` evaluated on entry; ``enter(state, args)`` may return an
        undo callable run on exit; ``classify(name, result)`` may
        rename the call once its result is known.
        """
        site = next(self._sites)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            st = tracer._state()
            key = name(st, args) if callable(name) else name
            undo = enter(st, args) if enter is not None else None
            frames = st.frames
            span_id = group = 0
            if span:
                span_id = group = next(tracer._ids)
                if key not in _ROOTS:
                    for fr in reversed(frames):
                        if fr[3]:
                            group = fr[4]
                            break
            active = st.active
            active[site] = active.get(site, 0) + 1
            frame = [key, 0.0, 0.0, span_id, group, site]
            frames.append(frame)
            result = None
            frame[1] = t0 = perf_counter()
            try:
                result = fn(*args, **kw)
                return result
            finally:
                t1 = perf_counter()
                frames.pop()
                dt = t1 - t0
                if classify is not None:
                    key = classify(key, result)
                row = st.acc.get(key)
                if row is None:
                    row = st.acc[key] = [0, 0.0, 0.0]
                row[0] += 1
                left = active[site] - 1
                active[site] = left
                if not left:
                    row[1] += dt
                row[2] += dt - frame[2]
                if frames:
                    frames[-1][2] += dt
                if span:
                    parent = 0
                    for fr in reversed(frames):
                        if fr[3]:
                            parent = fr[3]
                            break
                    st.spans.append((key, t0, t1, parent, group, span_id))
                if undo is not None:
                    undo()

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_method(self, cls, attr, name, **kw) -> None:
        self._patch(cls, attr, self._wrap(getattr(cls, attr), name, **kw))

    def _patch_classmethod(self, cls, attr, name, **kw) -> None:
        fn = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(self._wrap(fn, name, **kw)))

    def _patch_function(self, module, attr, name, **kw) -> None:
        """Wrap a module-level function everywhere it was imported by
        name, so ``from x import f`` call sites see the wrapper too."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, **kw)
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("repro")
                and mod.__dict__.get(attr) is original
            ):
                self._patch(mod, attr, wrapper)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every traced entry point (idempotent per instance)."""
        if self._patches:
            return
        import importlib

        # import every module first: a module imported after install
        # would bind the wrappers by name and keep them after uninstall
        import repro.cli  # noqa: F401
        from repro.cache.buffer import DataCache
        from repro.experiments import parallel
        from repro.experiments.parallel import ResultStore
        from repro.flash.service import FlashService
        from repro.fleet import qos, workload
        from repro.fleet.service import FleetService
        from repro.ftl.gc import GarbageCollector
        from repro.metrics.report import SimulationReport
        from repro.sim.engine import Simulator
        from repro.traces import synthetic

        for modname, clsname, scheme in _SCHEME_CLASSES:
            cls = getattr(importlib.import_module(modname), clsname)
            for attr, op in (
                ("write", "write"), ("read", "read"),
                ("flush_metadata", "flush"),
            ):
                self._patch_method(cls, attr, f"ftl.{op}.{scheme}")
        self._patch_method(
            GarbageCollector, "maybe_collect",
            lambda st, args: f"ftl.gc.{st.scheme or 'none'}",
        )
        for attr, op in (
            ("read_page", "read"), ("program_page", "program"),
            ("erase_block", "erase"),
        ):
            self._patch_method(FlashService, attr, f"flash.{op}")
        for attr in ("put", "put_found", "full_hit", "get_stamps",
                     "discard"):
            self._patch_method(DataCache, attr, "cache.op")

        def enter_cell(st, args):
            prev = st.scheme
            st.scheme = args[0].ftl.name

            def undo():
                st.scheme = prev

            return undo

        def enter_aging(st, args):
            st.aging += 1

            def undo():
                st.aging -= 1

            return undo

        self._patch_method(
            Simulator, "run", "sim.run", span=True, enter=enter_cell
        )
        self._patch_method(
            Simulator, "age_device", "sim.age", span=True, enter=enter_aging
        )
        self._patch_function(
            synthetic, "generate_trace",
            lambda st, args: "traces.gen.aging" if st.aging else "traces.gen",
            span=True,
        )
        self._patch_function(
            parallel, "execute_runs", "experiments.execute", span=True
        )
        self._patch_method(
            ResultStore, "get", "experiments.store_get", span=True
        )
        self._patch_method(
            ResultStore, "put", "experiments.store_put", span=True
        )
        self._patch_method(
            SimulationReport, "to_dict", "metrics.to_dict", span=True
        )
        self._patch_classmethod(
            SimulationReport, "from_dict", "metrics.from_dict", span=True
        )

        def classify_request(key, result):
            if not isinstance(result, dict) or not result.get("ok"):
                return "fleet.handle.error"
            if result.get("executed"):
                return "fleet.handle.miss"
            return "fleet.handle.hit"

        self._patch_method(
            FleetService, "handle_request", "fleet.handle.miss",
            span=True, classify=classify_request,
        )
        self._patch_function(
            workload, "compose_shards", "fleet.compose", span=True
        )
        self._patch_function(qos, "aggregate_qos", "fleet.qos", span=True)
        self._patch_function(qos, "fleet_summary", "fleet.qos", span=True)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """``name -> [calls, inclusive_s, self_s]`` over all threads."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (calls, incl, own) in st.acc.items():
                row = out.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += incl
                row[2] += own
        return out

    def spans(self) -> list[tuple]:
        """Every recorded span, ordered by start time."""
        with self._lock:
            states = list(self._states)
        return sorted(
            (s for st in states for s in st.spans), key=lambda s: s[1]
        )

    def dump(self) -> dict:
        """JSON-ready totals and spans (the serve launcher's output)."""
        return {
            "totals": self.totals(),
            "spans": [list(s) for s in self.spans()],
        }


def layer_self(totals: dict) -> dict[str, float]:
    """Self seconds per layer (the prefix of each site name)."""
    out = {layer: 0.0 for layer in LAYERS}
    for key, (_calls, _incl, own) in totals.items():
        layer = key.split(".", 1)[0]
        if layer in out:
            out[layer] += own
    return out
