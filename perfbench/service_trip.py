"""service-trip: submit -> result trips through ``serve`` and ``worker``.

A pure coordinator (``repro serve --no-local-workers --port 0``) and one
``repro worker`` run as subprocesses with CLI defaults otherwise
(isolated jobs, 2 slots), except that the worker's idle claim poll is
``WORKER_POLL`` instead of 0.5 s: with two slots whose 0.5 s poll
phases drift, a run's median latency depended on where the phases
happened to sit more than on the service.  One thread of this process
is the load generator, with one HTTP request in flight at a time:

* open loop: Poisson arrivals at ``RATE`` per second, drawn from the
  workload seed.  Each arrival is a fresh single-cell B4 degradation
  analysis with its own gravity-demand seed (fixed demands, k <= 2,
  T = 1e-3, shaped like ``tools/distrib_smoke.py``); every fourth
  arrival resubmits an earlier fresh spec instead, which the service
  answers from its dedup path.  A trip is timed from its scheduled send
  time to the poll that returns the finished result;
* burst: ``BURST`` fresh submissions back to back, spread over
  ``BURST_CLIENTS`` client ids because the service admits at most 64
  live jobs per client, timed from the first send until the last result
  arrives, which gives the drain (saturation) rate.

A 429 shed, an error, or a trip not finished when the phase ends counts
as failed, and as over the latency limit: its latency is the time from
its due time to the end of the phase.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

from common import (ROOT, Tracer, median, peak_rss_mb_of, p90,
                    scratch_dir)
from report import SERVICE_SELF_ROWS, Report, layer_metrics

RATE = 7.0              # open-loop arrivals per second
DEDUP_EVERY = 4         # every fourth arrival is a resubmission ...
DEDUP_MIN_AGE = 3.0     # ... of a fresh spec due at least this much earlier
POLL_INTERVAL = 0.05    # per-trip result poll period
BURST = 128             # fresh submissions in the closed burst, sent
BURST_CLIENTS = 4       # by this many client ids (64 live jobs each at most)
SETTLE_SECONDS = 20.0   # how long trips may finish after the last arrival
LATENCY_LIMIT = 2.0     # the p90 trip latency limit, seconds
WORKER_POLL = 0.05      # the worker's idle wait between empty claims
WARM_UP = 16            # untimed fresh submissions before the open loop
SETUP_REPEATS = 3
STOP_TIMEOUT = 60.0


@dataclass
class Trip:
    kind: str                      # "fresh", "dedup", "burst" or "warm-up"
    due: float                     # scheduled send, seconds from start
    spec: dict
    target: "Trip | None" = None   # the fresh trip a dedup resubmits
    sent: float | None = None
    accepted: float | None = None
    analysis_id: str | None = None
    deduped: bool | None = None
    running_seen: float | None = None
    finished: float | None = None
    doc: dict | None = None
    error: str | None = None
    traced: bool = False
    client: int = 0                # index of the client id it is sent by

    @property
    def ok(self) -> bool:
        return self.doc is not None and self.error is None


def _scrub(doc):
    """Drop wall-clock telemetry (``*_seconds``); the rest must match."""
    if isinstance(doc, dict):
        return {key: _scrub(value) for key, value in doc.items()
                if not key.endswith("_seconds")}
    if isinstance(doc, list):
        return [_scrub(item) for item in doc]
    return doc


class Instance:
    """The B4 WAN, its demand pairs and paths; specs differ by demands."""

    def __init__(self):
        from repro.network import serialization as ser
        from repro.network.zoo import b4
        from repro.paths.pathset import PathSet

        self.topology = b4()
        nodes = sorted(self.topology.nodes)
        self.pairs = [(nodes[0], nodes[5]), (nodes[2], nodes[9]),
                      (nodes[4], nodes[11])]
        paths = PathSet.k_shortest(self.topology, self.pairs,
                                   num_primary=2, num_backup=1)
        self.topology_doc = ser.topology_to_dict(self.topology)
        self.paths_doc = ser.paths_to_dict(paths)

    def spec(self, demand_seed: int) -> dict:
        from repro.network import serialization as ser
        from repro.network.demand import gravity_demands

        demands = gravity_demands(self.topology, scale=5e5,
                                  pairs=self.pairs, seed=demand_seed)
        return {
            "kind": "sweep_spec",
            "name": f"perfbench-trip-{demand_seed}",
            "instance": {
                "topology": self.topology_doc,
                "demands": ser.demands_to_dict(demands),
                "paths": self.paths_doc,
            },
            "base": {"demand_mode": "fixed", "max_failures": 2,
                     "time_limit": 60.0, "mip_rel_gap": 0.0},
            "grid": {"threshold": [1e-3]},
        }


class Service:
    """A coordinator and one worker agent, as subprocesses."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.procs: list[subprocess.Popen] = []
        self.logs = []
        self.url = None

    def _spawn(self, name: str, args: list[str]) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        log = open(self.workdir / f"{name}.log", "w")
        self.logs.append(log)
        proc = subprocess.Popen([sys.executable, "-m", "repro", *args],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        self.procs.append(proc)
        return proc

    def _wait_for(self, predicate, what: str, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError(f"{what}: a service process exited "
                                       f"with {proc.returncode}")
            value = predicate()
            if value:
                return value
            time.sleep(0.02)
        raise RuntimeError(f"timed out waiting for {what}")

    def client(self, client_id: str = "perfbench"):
        from repro.service.client import ServiceClient

        return ServiceClient(self.url, client_id=client_id, retries=0)

    def start(self) -> None:
        """Start both processes; return once the worker registered."""
        self._spawn("coordinator", [
            "serve", "--workdir", str(self.workdir / "svc"), "--port", "0",
            "--no-local-workers"])
        state = self.workdir / "svc" / "service.json"

        def url():
            try:
                return json.loads(state.read_text())["url"]
            except (OSError, ValueError, KeyError):
                return None

        self.url = self._wait_for(url, "the coordinator's state file")
        self._spawn("worker", ["worker", "--connect", self.url,
                               "--name", "perfbench-worker",
                               "--poll-interval", str(WORKER_POLL)])
        client = self.client()
        self._wait_for(lambda: client.health()["fleet"]["workers"] == 1,
                       "the worker to register")

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb_of(proc.pid) for proc in self.procs)

    def stop(self) -> list[str]:
        """SIGTERM the worker, then the coordinator; wait for both."""
        problems = []
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                problems.append(f"pid {proc.pid} ignored SIGTERM")
                continue
            if code != 0:
                problems.append(f"pid {proc.pid} exited {code}")
        for log in self.logs:
            log.close()
        return problems


class LoadGenerator:
    """One thread, one request in flight: sends due trips, polls the rest."""

    def __init__(self, clients: list, seed: int):
        self.clients = clients
        self.rng = random.Random(seed)
        self.tracer: Tracer | None = None    # set while tracing
        self.requests = 0
        self.poll_gaps: list[float] = []     # between polls of one trip

    def _span(self, name: str):
        return nullcontext() if self.tracer is None \
            else self.tracer.span(name)

    def _http(self, trip: Trip, method: str, path: str, body=None):
        self.requests += 1
        return self.clients[trip.client]._request(
            method, path, body, idempotent=method == "GET")

    def _send(self, trip: Trip, now: float, clock) -> None:
        from repro.exceptions import ServiceError

        trip.sent = now
        try:
            status, doc, _ = self._http(trip, "POST", "/v1/analyses",
                                        trip.spec)
        except ServiceError as exc:
            trip.error = f"submit: {exc}"
            return
        trip.accepted = clock()
        if status == 429:
            trip.error = "shed (429)"
        elif status not in (200, 201):
            trip.error = f"submit: HTTP {status} {doc.get('error')}"
        else:
            trip.analysis_id = doc["id"]
            trip.deduped = bool(doc.get("deduped"))

    def _poll(self, trip: Trip, clock) -> bool:
        """One result poll; True once the trip is settled."""
        from repro.exceptions import ServiceError

        try:
            status, doc, _ = self._http(
                trip, "GET", f"/v1/analyses/{trip.analysis_id}/result")
        except ServiceError as exc:
            trip.error = f"poll: {exc}"
            return True
        now = clock()
        if status == 202:
            if doc.get("state") == "running" and trip.running_seen is None:
                trip.running_seen = now
            return False
        trip.finished = now
        if status == 200:
            trip.doc = doc
        else:
            trip.error = f"result: HTTP {status} {doc.get('error')}"
        return True

    def drive(self, trips: list[Trip], origin: float, deadline: float,
              on_send=None, in_order: bool = False) -> None:
        """Send every trip at its due time and poll until all settle.

        Times are seconds from ``origin`` (a ``perf_counter`` reading);
        trips unsettled at ``deadline`` are left unfinished.  A trip's
        first poll comes a random fraction of ``POLL_INTERVAL`` after it
        was accepted, so the poll grid does not quantize latencies.
        ``in_order`` polls only the oldest unsettled trip, for a burst
        whose results arrive in submission order.
        """
        def clock():
            return time.perf_counter() - origin

        queue = deque(sorted(trips, key=lambda t: t.due))
        polling: list[list] = []   # [next poll, trip, last poll], in send order
        while queue or polling:
            now = clock()
            if now >= deadline:
                break
            next_send = queue[0].due if queue else float("inf")
            eligible = polling[:1] if in_order else polling
            entry = min(eligible, key=lambda e: e[0], default=None)
            next_poll = entry[0] if entry else float("inf")
            wake = min(next_send, next_poll, deadline)
            if wake > now:
                with self._span("loadgen.idle"):
                    time.sleep(wake - now)
                now = clock()
            if next_send <= next_poll and queue:
                trip = queue.popleft()
                if on_send is not None:
                    on_send(trip)
                self._send(trip, now, clock)
                if trip.error is None:
                    delay = 0.0 if trip.deduped \
                        else self.rng.uniform(0.0, POLL_INTERVAL)
                    polling.append([clock() + delay, trip, None])
            elif entry is not None:
                if entry[2] is not None:
                    self.poll_gaps.append(now - entry[2])
                entry[2] = now
                if self._poll(entry[1], clock):
                    polling.remove(entry)
                    if in_order and polling:
                        polling[0][0] = min(polling[0][0], clock())
                else:
                    entry[0] = clock() + POLL_INTERVAL


def _schedule(seed: int, seconds: float, instance: Instance) -> list[Trip]:
    """The open-loop arrivals: Poisson times, fresh or resubmitted."""
    rng = random.Random(seed)
    trips: list[Trip] = []
    fresh: list[Trip] = []
    t = 0.0
    while True:
        t += rng.expovariate(RATE)
        if t >= seconds:
            return trips
        index = len(trips)
        old = [f for f in fresh if f.due <= t - DEDUP_MIN_AGE]
        if index % DEDUP_EVERY == DEDUP_EVERY - 1 and old:
            target = rng.choice(old)
            trips.append(Trip("dedup", t, target.spec, target=target))
        else:
            trip = Trip("fresh", t, instance.spec(seed * 100_000 + index))
            fresh.append(trip)
            trips.append(trip)


def _latencies(trips: list[Trip], end: float) -> list[float]:
    """Trip latencies from due time; an unsettled trip runs to ``end``."""
    return [(t.finished if t.ok else end) - t.due for t in trips]


def _check(trips: list[Trip]) -> None:
    """Fresh results equal a direct run of the spec; dedups echo them.

    A trip that fails the check gets an ``error`` and so counts as
    failed.  The direct runs go through one ``run_sweep`` on two worker
    processes, after the measurement.
    """
    from repro.runner import executor
    from repro.runner.jobs import SweepSpec

    fresh = []
    for trip in trips:
        if not trip.ok:
            continue
        if trip.kind != "dedup":
            if trip.deduped:
                trip.error = "fresh submission was deduped"
            fresh.append(trip)
        elif trip.deduped is not True:
            trip.error = "resubmission was not deduped"
        elif not trip.target.ok or trip.doc["jobs"] != trip.target.doc["jobs"]:
            trip.error = "resubmission returned another result"
    jobs = [SweepSpec.from_dict(trip.spec).expand() for trip in fresh]
    outcome = executor.run_sweep([job for each in jobs for job in each],
                                 num_workers=2, handle_signals=False)
    direct = {o.job.key: o for o in outcome.outcomes}
    for trip, expected in zip(fresh, jobs):
        got = trip.doc["jobs"]
        want = direct.get(expected[0].key)
        if len(got) != 1 or len(expected) != 1 or want is None \
                or not want.ok or got[0]["state"] != "done" \
                or got[0]["key"] != want.job.key \
                or _scrub(got[0]["result"]) != _scrub(want.result):
            trip.error = "result differs from a direct run_sweep"


def run(seed: int, seconds: float, trace: bool) -> Report:
    from layers import trace_program

    report = Report()
    setup_walls = []
    service = None
    problems = []
    try:
        # Inputs first (untimed): the schedule and every spec.
        instance = Instance()
        trips = _schedule(seed, seconds, instance)
        burst = [Trip("burst", 0.0,
                      instance.spec(seed * 100_000 + 50_000 + i),
                      client=i % BURST_CLIENTS)
                 for i in range(BURST)]
        warm_up = [Trip("warm-up", 0.0,
                        instance.spec(seed * 100_000 + 90_000 + i))
                   for i in range(WARM_UP)]
        for attempt in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            Instance()
            service = Service(scratch_dir(f"service-{attempt}"))
            service.start()
            setup_walls.append(time.perf_counter() - t0)
            if attempt < SETUP_REPEATS - 1:
                problems += service.stop()
                service = None

        clients = [service.client(f"perfbench-{i}")
                   for i in range(BURST_CLIENTS)]
        # Warm-up, untimed: the first jobs a fresh worker runs are
        # slower, which would otherwise sit in the first seconds of the
        # open loop.
        LoadGenerator(clients, seed).drive(
            warm_up, time.perf_counter(), SETTLE_SECONDS, in_order=True)
        report.errors += [f"warm-up trip failed: {t.error or 'not finished'}"
                          for t in warm_up if not t.ok]

        # Traced runs trace the second half of the open loop only, so
        # the first half gives the untraced latency to compare with.
        tracer = Tracer()
        loadgen = LoadGenerator(clients, seed)
        traced_from = []

        def on_send(trip: Trip) -> None:
            if trace and trip.due >= seconds / 2 and not traced_from:
                trace_program(tracer)
                loadgen.tracer = tracer
                traced_from.append(time.perf_counter())
            trip.traced = bool(traced_from)

        before = clients[0].metrics()["counters"]
        origin = time.perf_counter()
        end = seconds + SETTLE_SECONDS
        try:
            loadgen.drive(trips, origin, end, on_send)
        finally:
            open_loop_wall = time.perf_counter() - origin
            traced_wall = time.perf_counter() - traced_from[0] \
                if traced_from else 0.0
            tracer.restore()
            loadgen.tracer = None
        end = min(end, open_loop_wall)
        after = clients[0].metrics()["counters"]
        requests, poll_gaps = loadgen.requests, list(loadgen.poll_gaps)

        burst_origin = time.perf_counter()
        loadgen.drive(burst, burst_origin, SETTLE_SECONDS, in_order=True)
        peak_rss = service.peak_rss_mb()
    finally:
        if service is not None:
            problems += service.stop()
    report.errors += [f"service stop: {p}" for p in problems]

    fresh = [t for t in trips if t.kind == "fresh"]
    dedup = [t for t in trips if t.kind == "dedup"]
    every = trips + burst
    _check(every)
    report.attempted = len(every)
    report.failed = sum(not t.ok for t in every)
    report.errors += [f"{t.kind} trip due at {t.due:.3f}s failed: "
                      f"{t.error or 'not finished'}"
                      for t in every if not t.ok]

    latency = _latencies(fresh, end)
    trip_p50, trip_p90 = median(latency), p90(latency)
    over = sum(lat > LATENCY_LIMIT for lat in latency)
    dedup_trip = [t.finished - t.sent for t in dedup if t.ok]
    # Saturation rate: the burst's size over the time from its first
    # send to its last result.  A burst that did not drain reads as if
    # it took its whole budget.
    drained = [t.finished for t in burst if t.ok]
    drain_s = max(drained) if len(drained) == BURST else SETTLE_SECONDS
    drain_rate = BURST / drain_s
    setup_s = median(setup_walls)

    report.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "primary_s": trip_p50,
        "secondary_s": trip_p90,
        "throughput_per_s": drain_rate,
    }
    report.note("setup_s", setup_s, "s",
                f"median of {SETUP_REPEATS} starts until the worker "
                f"registered: " + ", ".join(f"{w:.3f}" for w in setup_walls))
    report.note("failed_ratio", report.failed / report.attempted, "ratio",
                f"{report.failed} of {report.attempted} trips")
    report.note("peak_rss_mb", peak_rss, "MB", "coordinator + worker")
    report.note("trip_p50_s", trip_p50, "s", f"{len(fresh)} fresh trips at "
                f"{RATE:g}/s")
    report.note("trip_p90_s", trip_p90, "s",
                f"limit {LATENCY_LIMIT:g} s, {over} over it")
    report.note("dedup_p50_s", median(dedup_trip) if dedup_trip else 0.0,
                "s", f"{len(dedup_trip)} resubmissions")
    report.note("drain_jobs_per_s", drain_rate, "jobs/s",
                f"burst of {BURST}")

    if trace:
        report.per_layer = _service_layers(
            tracer, traced_wall, trips, dedup_trip, before, after, requests,
            poll_gaps)
    return report


def _service_layers(tracer, traced_wall, trips, dedup_trip, before, after,
                    requests, poll_gaps):
    layers = layer_metrics(tracer, traced_wall)
    for span, row in SERVICE_SELF_ROWS.items():
        layers[row] = tracer.self_time.get(span, 0.0)
    done = [t for t in trips if t.kind == "fresh" and t.ok]
    late = [t.sent - t.due for t in trips if t.sent is not None]
    seen = [t for t in done if t.running_seen is not None]

    def p50_of(values):
        return median(values) if values else 0.0

    layers["service.submit_s"] = p50_of([t.accepted - t.sent for t in done])
    layers["service.queue_wait_s"] = p50_of(
        [t.running_seen - t.accepted for t in seen])
    run_s = p50_of([t.finished - t.running_seen for t in seen])
    layers["service.run_s"] = run_s
    compute = p50_of([
        sum(job["result"].get("encode_seconds", 0.0)
            + job["result"].get("solve_seconds", 0.0)
            for job in t.doc["jobs"]) for t in done])
    layers["service.job_compute_s"] = compute
    layers["service.exec_overhead_s"] = run_s - compute
    empty = after.get("service.claims_empty", 0) \
        - before.get("service.claims_empty", 0)
    granted = after.get("service.claims_granted", 0) \
        - before.get("service.claims_granted", 0)
    layers["service.claim_waste_ratio"] = \
        empty / (empty + granted) if empty + granted else 0.0
    layers["service.http_per_trip"] = requests / len(trips)
    layers["service.dedup_p50_s"] = p50_of(dedup_trip)
    layers["loadgen.late_p50_s"] = median(late)
    layers["loadgen.late_max_s"] = max(late)
    layers["loadgen.poll_interval_s"] = median(poll_gaps)
    traced = [t.finished - t.due for t in done if t.traced]
    untraced = [t.finished - t.due for t in done if not t.traced]
    if traced and untraced:
        layers["trace.overhead_ratio"] = median(traced) / median(untraced) \
            - 1.0
    return layers
