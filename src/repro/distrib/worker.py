"""The remote worker agent behind ``python -m repro worker``.

A :class:`WorkerAgent` is the pull half of the fleet: a
:class:`~repro.service.claims.ClaimLoop` whose transport is the
coordinator's HTTP claim protocol (:class:`~repro.distrib.client.FleetClient`).
Execution, deadlines, leases, the renewal horizon, fencing and drain
are the claim loop's, identical to the coordinator's local pool.
Remote specifics:

* Cancel arrives on the heartbeat response (the job's
  ``cancel_requested`` flag), so a ``DELETE`` on the coordinator lands
  within one heartbeat interval plus one executor poll.
* The settle ships the result document (written to the coordinator's
  cache before the store transition) and the job's trace spans, so a
  traced coordinator sees remote work in the same timeline as local.
* The agent registers on start, deregisters after a drain, and
  :func:`run_worker` wires SIGINT/SIGTERM to that drain.
"""

from __future__ import annotations

import logging
import os
import signal
import socket

from repro.core.config import DistribConfig, RunnerConfig
from repro.exceptions import ServiceError
from repro.runner.cache import ResultCache
from repro.service.claims import ClaimLoop

from repro.distrib.client import FleetClient

logger = logging.getLogger(__name__)


class WorkerAgent(ClaimLoop):
    """``num_workers`` slots pulling jobs from one coordinator.

    Args:
        connect_url: ``http://host:port`` of the coordinating service.
        config: Fleet knobs (slots, lease/heartbeat cadence, retry
            budget, drain timeout).
        runner_config: Executor knobs for the jobs themselves; defaults
            match the scheduler's (2 pooled workers when isolating).
        worker_id: Fleet identity; defaults to ``<hostname>-<pid>``.
        cache_dir: Local result-cache directory; ``None`` runs
            cacheless (the coordinator's cache still dedups re-runs,
            because results ship in the settle payload).
        isolate_jobs: Run each job in a worker *process* (the
            executor's pooled path) so a segfaulting solve costs one
            job, not the agent.
    """

    thread_name = "repro-fleet-slot"
    ships_spans = True

    def __init__(self, connect_url: str,
                 config: DistribConfig | None = None,
                 runner_config: RunnerConfig | None = None,
                 worker_id: str | None = None,
                 cache_dir: str | os.PathLike | None = None,
                 isolate_jobs: bool = True):
        config = config or DistribConfig()
        super().__init__(config, config, runner_config,
                         ResultCache(cache_dir) if cache_dir else None,
                         isolate_jobs)
        self.worker_id = worker_id \
            or f"{socket.gethostname()}-{os.getpid()}"
        self.client = FleetClient(connect_url, self.worker_id,
                                  config=self.config)

    def start(self) -> None:
        """Register with the coordinator and start the slot threads."""
        self._stop.clear()
        self.client.register(capacity=self.config.num_workers,
                             host=socket.gethostname(), pid=os.getpid())
        logger.info("worker %s registered (%d slot(s))", self.worker_id,
                    self.config.num_workers)
        self._start_slots()

    def stop(self, drain: bool = True) -> None:
        """Drain the slots (:meth:`ClaimLoop.stop`), then deregister."""
        super().stop(drain)
        try:
            self.client.deregister()
        except ServiceError as exc:
            # Deregistration is bookkeeping, not correctness -- a
            # coordinator that died first must not turn a clean drain
            # into a crash.
            logger.warning("could not deregister %s: %s",
                           self.worker_id, exc)

    # -- the ClaimLoop transport: the coordinator's HTTP protocol --------

    def _claim(self) -> dict | None:
        claimed, _ = self.client.claim(
            lease_seconds=self.config.lease_seconds)
        return claimed

    def _heartbeat(self, analysis_id: str, key: str, token: str) -> str:
        doc = self.client.heartbeat(analysis_id, key, token,
                                    self.config.lease_seconds)
        return "cancel" if doc.get("cancel_requested") \
            else doc.get("outcome")

    def _settle(self, analysis_id: str, key: str, token: str, state: str,
                **fields) -> bool:
        return self.client.settle(analysis_id, key, token, state, **fields)

    def _release(self, analysis_id: str, key: str, token: str) -> bool:
        return self.client.release(analysis_id, key, token)

    def run_forever(self) -> None:
        """Block until the stop event fires (signal handlers set it)."""
        while not self._stop.wait(0.2):
            pass


def run_worker(connect_url: str, config: DistribConfig | None = None,
               worker_id: str | None = None,
               cache_dir: str | os.PathLike | None = None,
               isolate_jobs: bool = True,
               runner_config: RunnerConfig | None = None) -> int:
    """The ``repro worker`` entry point: run an agent until signalled.

    Installs SIGINT/SIGTERM handlers that trigger a graceful drain
    (release unstarted claims, finish in-flight jobs within the drain
    timeout, deregister), then exits 0.

    Returns:
        Process exit code.
    """
    agent = WorkerAgent(connect_url, config=config, worker_id=worker_id,
                        cache_dir=cache_dir, isolate_jobs=isolate_jobs,
                        runner_config=runner_config)

    def _signalled(signum, frame):
        logger.info("worker %s: received signal %d, draining",
                    agent.worker_id, signum)
        agent.stop_event.set()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _signalled)
    try:
        agent.start()
        agent.run_forever()
        agent.stop(drain=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    logger.info("worker %s drained: %s", agent.worker_id,
                agent.counts or "no jobs")
    return 0
