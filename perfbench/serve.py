"""The ``serve-mixed`` workload: ``repro serve`` under one client.

The server runs as a subprocess on a fresh store and the tiny device.
One closed-loop client (the benchmark's main thread, one connection at
a time) sends a seeded mix:

* ``hot`` — most requests repeat one of a few ``sweep`` payloads, so
  after the first request of each they are store hits;
* ``fresh`` — some are ``sweep`` payloads with a seed never used
  before, so they are misses that simulate;
* ``fleet`` — a few are small ``fleet`` requests (2 shards, 16 tenants)
  drawn from two payloads.

The benchmark process and the server share one CPU, and between two
requests, while the server idles, the client runs the reference bursts
of :mod:`speed` when one is due, so they sample the CPU the server runs
on.  That needs a single client: with a second one the server would be
busy during the bursts.

Every response must be HTTP 200 with ``ok: true``; its ``digest`` must
equal the hash of the body it came with; and its stable digest (the
sweep results without their wall times, or the fleet digest) must be
the same every time the payload is served and must equal the digest of
the same payload handled in-process after the timed loop.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
from workloads import cell_digest, derived_seed

HERE = Path(__file__).resolve().parent

#: request mix and sizes; ``req_per_s`` is the nominal closed-loop rate
#: on the machine the benchmark was tuned on, used only to turn
#: ``--seconds`` into a fixed request count
SIZES = {
    "full": {"sweep_requests": 2000, "requests_per_tenant": 200,
             "req_per_s": 16.0},
    "smoke": {"sweep_requests": 300, "requests_per_tenant": 30,
              "req_per_s": 40.0},
}
HOT_PAYLOADS = 4
FLEET_PAYLOADS = 2
P_HOT = 0.75
P_FRESH = 0.15  # the rest are fleet requests
#: payloads handled again in-process after the timed loop: every hot
#: and fleet payload plus this many fresh ones
VERIFY_FRESH = 2
#: how much this workload slows when the reference bursts slow, in log
#: terms (see speed.py): 0.6-1.0 in sets of runs whose bursts slowed up
#: to 1.8x, best fit 0.8 over all of them; less than the in-process
#: sweep, as part of a request's time is the kernel's (loopback HTTP
#: between two processes) and C code (SHA-256)
ELASTICITY = 0.8


def plan(seed: int, size: str, requests: int) -> list[tuple]:
    """The client's requests, as ``(payload_id, payload)``."""
    params = SIZES[size]

    def sweep(wseed: int) -> dict:
        return {
            "kind": "sweep",
            "device": "tiny",
            "workload": {"requests": params["sweep_requests"],
                         "seed": wseed},
        }

    hot = [(f"hot{i}", sweep(derived_seed(seed, "hot", i)))
           for i in range(HOT_PAYLOADS)]
    fleets = [
        (f"fleet{i}", {
            "kind": "fleet",
            "device": "tiny",
            "fleet": {"shards": 2, "tenants": 16,
                      "requests_per_tenant": params["requests_per_tenant"],
                      "seed": derived_seed(seed, "fleet", i)},
        })
        for i in range(FLEET_PAYLOADS)
    ]
    rng = random.Random(seed)
    fresh = 0
    items: list[tuple] = []
    for _ in range(requests):
        r = rng.random()
        if r < P_HOT:
            item = hot[rng.randrange(HOT_PAYLOADS)]
        elif r < P_HOT + P_FRESH:
            item = (f"fresh{fresh}", sweep(derived_seed(seed, "fresh", fresh)))
            fresh += 1
        else:
            item = fleets[rng.randrange(FLEET_PAYLOADS)]
        items.append(item)
    return items


def _body_digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def stable_digest(response: dict) -> str:
    """The part of a response that must not change between servings."""
    if response.get("kind") == "sweep":
        return _body_digest({
            label: cell_digest(doc) if doc is not None else None
            for label, doc in response["results"].items()
        })
    return response["digest"]


def check_response(status: int, response) -> str | None:
    """Why a response is a failure, or None when it is well formed."""
    if status != 200:
        return f"HTTP {status}"
    if not isinstance(response, dict) or not response.get("ok"):
        return f"ok is not true: {str(response)[:200]}"
    if response.get("kind") == "sweep":
        body = response.get("results")
        if not isinstance(body, dict) or not all(
            isinstance(doc, dict) for doc in body.values()
        ):
            return "sweep response without a report per scheme"
    else:
        body = {"tenants": response.get("tenants"),
                "summary": response.get("summary")}
    if _body_digest(body) != response.get("digest"):
        return "digest does not match the response body"
    return None


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess on a fresh store."""

    def __init__(self, root: Path, tmp_root: str, trace_dump: Path | None):
        self.dir = Path(tempfile.mkdtemp(dir=tmp_root))
        self.trace_dump = trace_dump
        serve_args = [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--store", str(self.dir / "store"), "--device", "tiny",
            "--jobs", "1",
        ]
        if trace_dump is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   str(trace_dump), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log_path = self.dir / "server.log"
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.port = self._wait_ready()
        self.setup_s = time.perf_counter() - self.started

    def _wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "server exited during start-up:\n"
                    + self.log_path.read_text()[-2000:]
                )
            if port is None:
                for line in self.log_path.read_text().splitlines():
                    if "listening on http://" in line:
                        addr = line.split("http://", 1)[1].split()[0]
                        port = int(addr.rsplit(":", 1)[1])
            if port is not None:
                try:
                    status, _doc = request(port, "GET", "/healthz")
                except (OSError, http.client.HTTPException):
                    status = 0
                if status == 200:
                    return port
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
        ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> dict | None:
        """Terminate the server, wait for it, return its trace dump.

        SIGTERM, not SIGINT: a process started from a background shell
        job inherits SIGINT as ignored, and the server would never see
        it.  The traced launcher turns SIGTERM into an orderly shutdown
        so it can write its dump."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        dump = None
        if self.trace_dump is not None and self.trace_dump.exists():
            dump = json.loads(self.trace_dump.read_text())
        return dump


def request(port: int, method: str, path: str, payload=None):
    """One HTTP exchange; returns ``(status, decoded JSON body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {
            "Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        try:
            doc = json.loads(data)
        except ValueError:
            doc = None
        return resp.status, doc
    finally:
        conn.close()


# ----------------------------------------------------------------------
# one session: the client against one server
# ----------------------------------------------------------------------
class Session:
    """The outcome of the client loop against one server.

    ``wall_s`` and the latencies are raw host time (net of reference
    bursts, which run between requests); ``factor`` turns them into
    corrected time.  A traced session takes no bursts and has no factor.
    """

    def __init__(self):
        self.wall_s = 0.0
        #: (payload_id, client latency ms, response or None, problem)
        self.requests: list[tuple] = []
        self.factor: float | None = None
        self.stats: dict = {}
        self.server_rss_mb = 0.0
        self.trace_dump: dict | None = None
        #: set-up seconds, (raw, corrected)
        self.setup: tuple[float, float] = (0.0, 0.0)


def _setup_sample(server: Server) -> tuple[float, float]:
    """The server's start-up time, raw and corrected by bursts run
    while it idles (it shares this process's CPU)."""
    sampler = speed.Sampler(speed.SETUP_ELASTICITY)
    for _ in range(speed.SETUP_BURSTS):
        sampler.sample()
    return server.setup_s, server.setup_s * sampler.factor()


def run_session(root: Path, tmp_root: str, items, trace_dump=None
                ) -> Session:
    """Start a server, send every request through it, stop it."""
    out = Session()
    server = Server(root, tmp_root, trace_dump)
    sampler = speed.Sampler(ELASTICITY)
    try:
        if trace_dump is None:
            out.setup = _setup_sample(server)
        t_loop = time.perf_counter()
        for pid, payload in items:
            t0 = time.perf_counter()
            try:
                status, doc = request(server.port, "POST", "/simulate",
                                      payload)
                problem = check_response(status, doc)
            except Exception as exc:  # any broken exchange is a failed op
                doc, problem = None, f"{type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - t0) * 1000.0
            out.requests.append(
                (pid, ms, doc if problem is None else None, problem))
            if trace_dump is None:
                sampler.maybe_sample()
        out.wall_s = time.perf_counter() - t_loop - sampler.spent
        if trace_dump is None:
            out.factor = sampler.factor()
        status, stats = request(server.port, "GET", "/stats")
        out.stats = stats if status == 200 else {}
        out.server_rss_mb = server.peak_rss_mb()
    finally:
        out.trace_dump = server.stop()
    return out


def setup_probe(root: Path, tmp_root: str) -> tuple[float, float]:
    """Spawn a server until /healthz answers, then stop it; the set-up
    time, raw and corrected."""
    server = Server(root, tmp_root, None)
    try:
        return _setup_sample(server)
    finally:
        server.stop()


def pin_to_one_cpu() -> int:
    """Restrict this process, and the servers it will start, to one of
    the CPUs it may use; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def verify_in_process(items, tmp_root: str) -> dict[str, str]:
    """Stable digests of the verification payloads, handled by
    ``FleetService`` in this process on a fresh store."""
    from repro.experiments.parallel import ResultStore
    from repro.fleet.service import FleetService

    chosen: dict[str, dict] = {}
    for pid, payload in items:
        if pid.startswith("fresh") and int(pid[5:]) >= VERIFY_FRESH:
            continue
        chosen.setdefault(pid, payload)
    out = {}
    with tempfile.TemporaryDirectory(dir=tmp_root) as d:
        service = FleetService(ResultStore(d))
        for pid, payload in sorted(chosen.items()):
            doc = service.handle_request(json.loads(json.dumps(payload)))
            problem = check_response(200, doc)
            out[pid] = (f"in-process failure: {problem}" if problem
                        else stable_digest(doc))
    return out
