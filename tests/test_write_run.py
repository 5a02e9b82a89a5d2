"""Fused aging ``write_run`` kernels vs the generic reference loop.

Every aging style of the engine (``vdi``, ``aligned`` and
``age_with_trace``) hands its write stream to the scheme's
``write_run``.  The ``ftl``, ``mrsm`` and ``across`` schemes override it
with fused kernels that inline the untimed write pipeline; the generic
:meth:`BaseFTL.write_run` — a plain loop over ``write`` — is the
reference.  These tests age the same device twice, once through each,
and require the *whole* reachable FTL state to come out equal: flash
array state, valid counts, write pointers and page metadata,
PMT/region/AMT tables, mapping-cache LRU order, allocator and GC state,
fault-model RNG state and every counter.

``repro check`` legs run with the oracle on, which forces the reference
path, so this file is what keeps the fused kernels honest.
"""

from __future__ import annotations

import array
import collections
import dataclasses
import types

import numpy as np
import pytest

from repro.config import GC_POLICIES, FaultConfig, SimConfig, SSDConfig
from repro.flash.service import FlashService
from repro.ftl import make_ftl
from repro.ftl.base import BaseFTL
from repro.sim.engine import Simulator
from repro.traces.synthetic import SyntheticSpec, generate_trace

SCHEMES = ("ftl", "mrsm", "across")
FAULTS = {"faults-off": FaultConfig(), "faults-stress": FaultConfig.stress()}

_SCALARS = (int, float, str, bool, type(None))
_SKIP = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.ModuleType,
    type,
)


def snapshot(obj, path="ftl", seen=None):
    """Canonical, comparable form of everything reachable from ``obj``.

    Dicts keep insertion order and ``OrderedDict`` recency order; a
    repeated object becomes a reference to the path it was first seen
    at, so shared structure (and cycles) compare by shape.
    """
    if seen is None:
        seen = {}
    if isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, _SKIP):
        return ("callable", getattr(obj, "__qualname__", type(obj).__name__))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, array.array):
        return ("array", obj.typecode, obj.tobytes())
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj)
    if isinstance(obj, np.random.Generator):
        return ("rng", repr(obj.bit_generator.state))
    if isinstance(obj, np.generic):
        return obj.item()
    if id(obj) in seen:
        return ("ref", seen[id(obj)])
    seen[id(obj)] = path
    if isinstance(obj, dict):
        return ("dict", type(obj).__name__, [
            (snapshot(k, f"{path}.key", seen), snapshot(v, f"{path}[{k!r}]", seen))
            for k, v in obj.items()
        ])
    if isinstance(obj, (set, frozenset)):
        return ("set", sorted(repr(v) for v in obj))
    if isinstance(obj, (list, tuple, collections.deque)):
        return ("seq", type(obj).__name__, [
            snapshot(v, f"{path}[{i}]", seen) for i, v in enumerate(obj)
        ])
    fields = {}
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    fields.update(getattr(obj, "__dict__", {}))
    return ("obj", type(obj).__qualname__, [
        (name, snapshot(fields[name], f"{path}.{name}", seen))
        for name in sorted(fields)
    ])


def first_difference(a, b, path="ftl"):
    """Where two snapshots first disagree (the assertion message)."""
    if a == b:
        return None
    tagged = (
        isinstance(a, tuple) and isinstance(b, tuple)
        and len(a) == len(b) == 3 and a[:2] == b[:2]
        and a[0] in ("dict", "seq", "obj")
    )
    if not tagged:
        return f"{path}: {a!r:.120} != {b!r:.120}"
    kind, _, xs = a
    ys = b[2]
    if len(xs) != len(ys):
        return f"{path}: {len(xs)} != {len(ys)} entries"
    for i, (x, y) in enumerate(zip(xs, ys)):
        if kind == "seq":
            diff = first_difference(x, y, f"{path}[{i}]")
        elif x[0] != y[0]:
            return f"{path}: entry {i} is {x[0]!r:.60} != {y[0]!r:.60}"
        elif kind == "obj":
            diff = first_difference(x[1], y[1], f"{path}.{x[0]}")
        else:
            diff = first_difference(x[1], y[1], f"{path}[{x[0]!r:.40}]")
        if diff:
            return diff
    return None


def warmup_trace(cfg: SSDConfig):
    """A mixed read/write trace (reads are skipped by the clamp) whose
    writes overrun the device several times, so GC runs."""
    spec = SyntheticSpec(
        name="warmup",
        requests=6000,
        write_ratio=0.8,
        across_ratio=0.2,
        mean_write_kb=24.0,
        footprint_sectors=int(cfg.logical_sectors * 0.9),
        seed=11,
        small_unaligned=0.3,
    )
    return generate_trace(spec)


def aged(scheme, cfg, sim_cfg, style, *, reference, monkeypatch):
    """Age one fresh device; ``reference`` swaps the scheme's fused
    ``write_run`` for the generic loop.  Returns the simulator and the
    number of ``write`` calls the aging made."""
    sim = Simulator(make_ftl(scheme, FlashService(cfg)), sim_cfg)
    cls = type(sim.ftl)
    calls = [0]
    real_write = cls.write

    def counting_write(self, *args):
        calls[0] += 1
        return real_write(self, *args)

    with monkeypatch.context() as m:
        m.setattr(cls, "write", counting_write)
        if reference:
            m.setattr(cls, "write_run", BaseFTL.write_run)
        if style == "trace":
            sim.age_with_trace(warmup_trace(cfg))
        else:
            sim.age_device()
    return sim, calls[0]


STYLES = {
    "vdi": SimConfig(aged_used=0.9, aged_valid=0.398, aging_style="vdi"),
    "aligned": SimConfig(aged_used=0.9, aged_valid=0.398),
    "trace": SimConfig(),
}


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("policy", GC_POLICIES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("style", sorted(STYLES))
def test_fused_write_run_matches_reference(
    style, scheme, policy, faults, monkeypatch
):
    cfg = SSDConfig.tiny().replace(gc_policy=policy)
    sim_cfg = dataclasses.replace(STYLES[style], faults=FAULTS[faults])
    fused, fused_calls = aged(
        scheme, cfg, sim_cfg, style, reference=False, monkeypatch=monkeypatch
    )
    ref, ref_calls = aged(
        scheme, cfg, sim_cfg, style, reference=True, monkeypatch=monkeypatch
    )
    # the comparison only means something if the fused kernel ran:
    # ftl/mrsm never call write() on it, across only for the requests
    # its screen sends down the real write path
    assert ref_calls > 0
    if scheme == "across":
        assert fused_calls < ref_calls
    else:
        assert fused_calls == 0
    assert fused.ftl.counters.aging_erases > 0, "aging never reached GC"
    a = snapshot(fused.ftl)
    b = snapshot(ref.ftl)
    assert a == b, first_difference(a, b)


def test_write_run_without_target_consumes_everything():
    cfg = SSDConfig.tiny()
    for scheme in SCHEMES:
        ftl = make_ftl(scheme, FlashService(cfg))
        ftl.aging = True
        spp = cfg.sectors_per_page
        offsets = [lpn * spp for lpn in range(50)]
        assert ftl.write_run(offsets, [spp] * 50) == 50
        assert ftl.write_run(offsets, [spp] * 50, target=60) == 10
