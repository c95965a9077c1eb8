"""Scheduler: the service's local pool and its supervision.

The pool is a :class:`~repro.service.claims.ClaimLoop` -- claim, run
through ``run_sweep``, settle, with leases, deadlines, cancel and drain
exactly as documented there -- whose transport is the
:class:`~repro.service.store.JobStore` itself.  Local specifics:

* Cancel is read from the store's ``cancel_requested`` flag on every
  executor poll, so a ``DELETE`` lands within one poll interval.
* The chaos sites ``service.crash_claimed`` (right after the claim
  commits) and ``service.crash_settling`` (after the executor returned,
  before the settle) model a process death inside the claim window;
  restart recovery (:meth:`~repro.service.store.JobStore.recover`)
  requeues the job and the re-run recomputes or hits the cache, so it
  reaches a terminal state exactly once with an unchanged answer.
* ``max_lease_renewal_seconds`` caps lease renewal for jobs with no
  derivable wall budget.

The scheduler also owns what the whole fleet relies on: startup
recovery, the **reaper** (requeues claims whose lease lapsed),
:meth:`Scheduler.supervise_queue` (fails queued jobs past their
deadline, quarantines jobs that spent ``max_job_attempts``), and
:meth:`Scheduler.settle_claim`, the fenced settle both the local pool
and the HTTP claim endpoint commit through.  The pool registers in the
worker table as ``local``; with ``ServiceConfig.local_workers=False``
no slot starts and the service runs as a pure coordinator.
"""

from __future__ import annotations

import logging
import os
import socket
import threading

from repro.core.config import RunnerConfig, ServiceConfig
from repro.exceptions import ServiceError
from repro.obs.metrics import metrics
from repro.resilience.faults import maybe_fire
from repro.runner.cache import ResultCache
from repro.service.claims import ClaimLoop
from repro.service.store import JobStore, service_crash

logger = logging.getLogger(__name__)

#: The ``/metricz`` counter a landed settle bumps, by terminal state.
_SETTLE_COUNTERS = {
    "done": "service.jobs_done",
    "failed": "service.jobs_failed",
    "cancelled": "service.jobs_cancelled",
}


class Scheduler(ClaimLoop):
    """Local slot threads plus the supervision the whole fleet uses."""

    thread_name = "repro-service-worker"

    def __init__(self, store: JobStore, cache: ResultCache | None,
                 config: ServiceConfig,
                 runner_config: RunnerConfig | None = None):
        super().__init__(config, config.supervision, runner_config, cache,
                         config.isolate_jobs)
        self.store = store
        self._reaper: threading.Thread | None = None
        #: The local pool's identity in the store's worker table.
        self.worker_id = "local"

    def start(self) -> None:
        """Recover orphaned jobs, then start the slots and the reaper.

        With ``local_workers=False`` the pool is skipped entirely
        (coordinator mode): recovery, supervision, and the reaper still
        run -- remote agents depend on them.
        """
        recovered = self.store.recover()
        if recovered:
            logger.warning(
                "recovered %d job(s) left running by a previous process",
                recovered)
            metrics().counter("service.jobs.recovered").inc(recovered)
        self.supervise_queue()
        self._stop.clear()
        if self.config.local_workers:
            self.store.register_worker(
                self.worker_id, kind="local", host=socket.gethostname(),
                pid=os.getpid(), capacity=self.config.num_workers)
            self._start_slots()
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-service-reaper",
            daemon=True)
        self._reaper.start()

    def stop(self, drain: bool = True) -> None:
        """Drain the slots (:meth:`ClaimLoop.stop`), stop the reaper,
        deregister."""
        super().stop(drain)
        if self._reaper is not None:
            self._reaper.join(timeout=1.0)
            self._reaper = None
        if self.config.local_workers:
            self.store.deregister_worker(self.worker_id)

    def reap_once(self) -> int:
        """One reaper pass: requeue expired leases, then re-supervise.

        Public so tests (and one-shot tools) can drive the reaper
        deterministically instead of waiting out the interval.  The
        ``reaper.tick`` chaos site skips the whole pass, delaying
        recovery by one interval.

        Returns:
            How many jobs the pass touched (requeued or cancelled).
        """
        if maybe_fire("reaper.tick"):
            logger.warning("reaper pass skipped by injected fault")
            return 0
        reaped = self.store.reap_expired()
        if reaped:
            requeued = sum(1 for job in reaped if job["requeued"])
            logger.warning(
                "reaped %d expired lease(s): %d requeued, %d cancelled",
                len(reaped), requeued, len(reaped) - requeued)
            metrics().counter("service.jobs.reaped").inc(len(reaped))
        self.supervise_queue()
        return len(reaped)

    def _reaper_loop(self) -> None:
        interval = self.config.supervision.resolved_reap_interval()
        while not self._stop.wait(interval):
            try:
                self.reap_once()
            except Exception:
                logger.exception("reaper pass failed; will retry")

    def supervise_queue(self) -> None:
        """Deadline + quarantine sweep over the queued set.

        Every consumer of the claim path runs it before claiming -- the
        local pool in :meth:`_claim`, and the HTTP claim endpoint
        before handing work to a remote agent.
        """
        expired = self.store.expire_deadlines()
        if expired:
            logger.warning("failed %d queued job(s) past their deadline",
                           len(expired))
            metrics().counter(
                "service.jobs.deadline_exceeded").inc(len(expired))
        quarantined = self.store.quarantine_exhausted(
            self.config.supervision.max_job_attempts)
        if quarantined:
            for job in quarantined:
                logger.error(
                    "quarantined job %s after %d attempt(s)",
                    job["key"][:12], job["attempts"])
            metrics().counter(
                "service.jobs.quarantined").inc(len(quarantined))

    def settle_claim(self, analysis_id: str, key: str, token: str,
                     state: str, status: str | None = None,
                     error: str | None = None) -> bool:
        """Fenced settle for a local or remote claim, with its counters.

        A claim reaped (or recovered) out from under a still-running
        worker is refused -- *even if the job has since been re-claimed
        and is running again* (the token no longer matches) -- and
        counted as ``service.stale_settles``.  A landed settle bumps
        ``service.jobs.deadline_exceeded`` when the job was claimed past
        its deadline (as a queued expiry does), else the counter of its
        terminal state.

        Returns:
            Whether the settle landed.
        """
        try:
            self.store.settle(analysis_id, key, state, status=status,
                              error=error, token=token)
        except ServiceError:
            metrics().counter("service.stale_settles").inc()
            return False
        metrics().counter(
            "service.jobs.deadline_exceeded"
            if status == "deadline_exceeded"
            else _SETTLE_COUNTERS[state]).inc()
        return True

    # -- the ClaimLoop transport: the store itself -----------------------

    def _claim(self) -> dict | None:
        self.supervise_queue()
        claimed = self.store.claim(
            lease_seconds=self.lease_policy.lease_seconds,
            worker_id=self.worker_id)
        if claimed is not None:
            service_crash("service.crash_claimed", key=claimed["key"])
            metrics().gauge("service.queue_depth").set(self.store.depth())
        return claimed

    def _heartbeat(self, analysis_id: str, key: str, token: str) -> str:
        return self.store.heartbeat(
            analysis_id, key, self.lease_policy.lease_seconds, token)

    def _settle(self, analysis_id: str, key: str, token: str, state: str,
                status: str | None = None, error: str | None = None,
                **shipped) -> bool:
        # Nothing to ship: the executor already wrote the result to the
        # shared cache and its spans to the ambient tracer.
        return self.settle_claim(analysis_id, key, token, state,
                                 status=status, error=error)

    def _release(self, analysis_id: str, key: str, token: str) -> bool:
        return self.store.release(analysis_id, key, token=token)

    def _cancel_requested(self, analysis_id: str, key: str) -> bool:
        return self.store.cancel_requested(analysis_id, key)

    def _before_settle(self, key: str) -> None:
        service_crash("service.crash_settling", key=key)
