"""CI distrib-smoke: a real coordinator + worker fleet, end to end.

Spins up a pure coordinator (``repro serve --no-local-workers``) and
two ``repro worker`` agent processes against it, then drives the
distributed acceptance criteria with real processes and real MILP
jobs:

1. a B4 degradation sweep executed by the fleet is bit-identical, key
   by key, to a direct ``python -m repro sweep`` of the same spec;
2. a duplicate submission dedupes against the fleet-computed analysis;
3. SIGKILLing the worker that holds a running job loses nothing: the
   lease lapses, the coordinator's reaper requeues, and the surviving
   worker settles the job exactly once;
4. the remaining worker drains cleanly on SIGTERM (exit 0, nothing
   left running, fleet roster empty);
5. a ``DELETE`` on a job running on a fresh (process-isolating) worker
   settles it ``cancelled`` within a few heartbeat intervals -- the
   cancel rides the heartbeat response -- and that worker goes on to
   settle the next job; then it and the coordinator drain cleanly.

Every process's stderr is teed to ``$DISTRIB_SMOKE_LOG_DIR`` (default:
``<tmp>/logs``) so CI can upload coordinator/worker logs as artifacts
on failure.

Exit code 0 on success, 1 with a diagnostic on any failure.

Run locally::

    PYTHONPATH=src python tools/distrib_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import cli
from repro.network import serialization as ser
from repro.network.demand import gravity_demands
from repro.network.zoo import b4
from repro.paths.pathset import PathSet
from repro.service.client import ServiceClient

REPO_ROOT = Path(__file__).resolve().parents[1]


def _fail(message: str) -> int:
    print(f"distrib smoke FAILED: {message}", file=sys.stderr)
    return 1


def scrub(doc):
    """Drop wall-clock telemetry (``*_seconds``); the rest must match."""
    if isinstance(doc, dict):
        return {key: scrub(value) for key, value in doc.items()
                if not key.endswith("_seconds")}
    if isinstance(doc, list):
        return [scrub(item) for item in doc]
    return doc


def build_spec() -> dict:
    """A 4-job degradation sweep on B4 -- enough to share across two
    workers, small enough for CI."""
    topology = b4()
    nodes = sorted(topology.nodes)
    pairs = [(nodes[0], nodes[5]), (nodes[2], nodes[9]),
             (nodes[4], nodes[11])]
    demands = gravity_demands(topology, scale=5e5, pairs=pairs, seed=1)
    paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                               num_backup=1)
    return {
        "kind": "sweep_spec",
        "name": "distrib-smoke",
        "instance": {
            "topology": ser.topology_to_dict(topology),
            "demands": ser.demands_to_dict(demands),
            "paths": ser.paths_to_dict(paths),
        },
        "base": {"demand_mode": "fixed", "max_failures": 2,
                 "time_limit": 60.0, "mip_rel_gap": 0.0},
        "grid": {"threshold": [1e-5, 1e-4, 1e-3, 1e-2]},
    }


def sleep_spec(seconds: float = 8.0,
               name: str = "distrib-smoke-kill") -> dict:
    """One sleeping job -- a window to act on the worker holding it."""
    return {
        "kind": "sweep_spec",
        "name": name,
        "task": "tests.runner._workers:sleep_task",
        "instance": {"topology": {"nodes": [], "links": []}},
        "base": {"sleep_seconds": seconds},
        "grid": {"value": [1]},
    }


def echo_spec() -> dict:
    """One instant job, for the worker to settle after a cancel."""
    return {
        "kind": "sweep_spec",
        "name": "distrib-smoke-after-cancel",
        "task": "tests.runner._workers:echo_task",
        "instance": {"topology": {"nodes": [], "links": []}},
        "grid": {"value": [42]},
    }


def _env() -> dict:
    env = dict(os.environ)
    # src for the package; the repo root rides in via cwd (python -m
    # prepends it), which is what lets the kill scenario's
    # tests.runner._workers task resolve inside the worker processes.
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def start_coordinator(workdir: Path, log_dir: Path):
    log = open(log_dir / "coordinator.log", "w")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workdir", str(workdir), "--port", "0",
         "--no-local-workers", "--no-isolate",
         "--lease-seconds", "3.0", "--reap-interval", "0.5"],
        cwd=REPO_ROOT, env=_env(), stderr=log)
    state = workdir / "service.json"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"coordinator exited {proc.returncode}; "
                               f"see {log.name}")
        if state.exists():
            try:
                return proc, json.loads(state.read_text())["url"]
            except (ValueError, KeyError):
                pass
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError("coordinator never wrote its state file")


#: The workers' heartbeat cadence; the remote cancel channel.
HEARTBEAT_SECONDS = 0.5


def start_worker(name: str, url: str, log_dir: Path,
                 isolate: bool = False):
    log = open(log_dir / f"{name}.log", "w")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", url, "--workers", "1", "--name", name,
         *([] if isolate else ["--no-isolate"]), "--lease-seconds", "3.0",
         "--heartbeat-interval", str(HEARTBEAT_SECONDS),
         "--poll-interval", "0.1", "--drain-timeout", "60"],
        cwd=REPO_ROOT, env=_env(), stderr=log)


def drain(name: str, proc) -> str | None:
    """SIGTERM one worker; the failure message, or None on exit 0."""
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=120)
    return None if code == 0 else f"worker {name} exited {code} on SIGTERM"


def wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise RuntimeError(f"timed out waiting for {what}")


def main() -> int:
    spec_doc = build_spec()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        log_dir = Path(os.environ.get("DISTRIB_SMOKE_LOG_DIR",
                                      root / "logs"))
        log_dir.mkdir(parents=True, exist_ok=True)
        print(f"logs: {log_dir}", file=sys.stderr)

        # 1. The direct CLI path, for the equivalence pin.
        spec_path = root / "spec.json"
        spec_path.write_text(json.dumps(spec_doc))
        code = cli.main(["sweep", "--spec", str(spec_path),
                         "--workdir", str(root / "direct"),
                         "--jobs", "2", "--quiet"])
        if code != 0:
            return _fail(f"direct sweep exited {code}")
        direct = json.loads((root / "direct" / "results.json").read_text())
        direct_by_key = {job["key"]: job["result"]
                         for job in direct["jobs"]}

        # 2. Coordinator + two worker processes.
        coordinator, url = start_coordinator(root / "svc", log_dir)
        workers = {}
        try:
            client = ServiceClient(url, client_id="distrib-smoke")
            health = client.health()
            if health.get("workers") != 0:
                return _fail(f"--no-local-workers still reports a local "
                             f"pool: {health}")
            for name in ("smoke-w1", "smoke-w2"):
                workers[name] = start_worker(name, url, log_dir)
            wait_for(lambda: client.health()["fleet"]["workers"] == 2,
                     timeout=60, what="both workers to register")

            # 3. The fleet computes the sweep; results bit-identical.
            accepted = client.submit(spec_doc)
            if client.submit(spec_doc).get("deduped") is not True:
                return _fail("duplicate submission was not deduped")
            results = client.wait(accepted["id"], timeout=600,
                                  poll_interval=0.5)
            if results["counts"]["done"] != accepted["total_jobs"]:
                return _fail(f"fleet did not finish the sweep: "
                             f"{results['counts']}")
            for job in results["jobs"]:
                ours = scrub(job["result"])
                theirs = scrub(direct_by_key[job["key"]])
                if ours != theirs:
                    return _fail(
                        f"result for {job['key'][:12]} differs:\n"
                        f"  fleet:  {json.dumps(ours, sort_keys=True)}\n"
                        f"  direct: {json.dumps(theirs, sort_keys=True)}")
            counters = client.metrics().get("counters", {})
            if counters.get("service.remote_settles", 0) \
                    < accepted["total_jobs"]:
                return _fail(f"remote settles undercount the sweep: "
                             f"{counters}")

            # 4. SIGKILL the worker holding a running job: reap + re-run
            # on the survivor, exactly once.
            killed = client.submit(sleep_spec())
            claims = wait_for(
                lambda: client._request("GET", "/v1/claims")[1]["claims"],
                timeout=60, what="the sleep job to be claimed")
            victim = claims[0]["worker"]
            if victim not in workers:
                return _fail(f"sleep job claimed by unknown worker "
                             f"{victim!r}")
            workers[victim].send_signal(signal.SIGKILL)
            workers[victim].wait(timeout=30)
            survivor = next(n for n in workers if n != victim)
            results = client.wait(killed["id"], timeout=120,
                                  poll_interval=0.5)
            if results["counts"]["done"] != 1:
                return _fail(f"killed job never recovered: "
                             f"{results['counts']}")
            job = results["jobs"][0]
            if job["attempts"] != 2:
                return _fail(f"expected the kill to burn exactly one "
                             f"attempt, saw {job['attempts']}")
            counters = client.metrics().get("counters", {})
            if counters.get("service.jobs.reaped", 0) < 1:
                return _fail(f"reaper never fired after the kill: "
                             f"{counters}")
            del workers[victim]

            # 5. Clean SIGTERM drain of the survivor: exit 0, it drops
            # off the roster (the SIGKILLed victim never deregistered,
            # so its row lingers -- that is the point of the listing),
            # nothing left running.
            failure = drain(survivor, workers[survivor])
            if failure:
                return _fail(failure)
            del workers[survivor]
            wait_for(
                lambda: survivor not in {
                    w["id"] for w in
                    client._request("GET", "/v1/workers")[1]["workers"]},
                timeout=30, what="the drained worker to deregister")
            if client.health()["counts"]["running"] != 0:
                return _fail("jobs left running after the drain")

            # 6. Remote cancel: DELETE a job running on a worker
            # process; the cancel rides the heartbeat response into the
            # executor's poll, and the worker moves on to the next job.
            # Process isolation, so the executor can abandon the sleep.
            # The abandoned pool process still sleeps out its task and
            # holds up the worker's exit until then: keep the task far
            # longer than the cancel bound, but short.
            workers["smoke-w3"] = start_worker("smoke-w3", url, log_dir,
                                               isolate=True)
            doomed = client.submit(sleep_spec(15.0, "distrib-smoke-cancel"))
            wait_for(
                lambda: client._request("GET", "/v1/claims")[1]["claims"],
                timeout=60, what="the cancel job to be claimed")
            cancelled_at = time.monotonic()
            client.cancel(doomed["id"])
            wait_for(
                lambda: client.status(doomed["id"])["counts"]["cancelled"],
                timeout=60, what="the remote cancel to settle")
            took = time.monotonic() - cancelled_at
            if took > 6 * HEARTBEAT_SECONDS:
                return _fail(f"remote cancel took {took:.2f}s, more than "
                             f"a few {HEARTBEAT_SECONDS}s heartbeats")
            print(f"remote cancel settled in {took:.2f}s",
                  file=sys.stderr)
            after = client.submit(echo_spec())
            results = client.wait(after["id"], timeout=60,
                                  poll_interval=0.2)
            if results["counts"]["done"] != 1:
                return _fail(f"worker stalled after the cancel: "
                             f"{results['counts']}")
            failure = drain("smoke-w3", workers["smoke-w3"])
            if failure:
                return _fail(failure)
            del workers["smoke-w3"]
        finally:
            for proc in workers.values():
                proc.kill()
            coordinator.send_signal(signal.SIGTERM)
            code = coordinator.wait(timeout=120)
        if code != 0:
            return _fail(f"coordinator exited {code} on SIGTERM")

    print("distrib smoke ok: fleet sweep bit-identical to the direct "
          "run, duplicate submission deduped, SIGKILLed worker's job "
          "recovered exactly once, clean SIGTERM drain, remote cancel "
          "settled and the worker moved on")
    return 0


if __name__ == "__main__":
    sys.exit(main())
