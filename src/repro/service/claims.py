"""The claim loop shared by the local pool and remote worker agents.

A :class:`ClaimLoop` runs ``num_workers`` slot threads, each looping
``claim -> run -> settle`` over some claim transport: the local
:class:`~repro.service.scheduler.Scheduler` claims straight from the
:class:`~repro.service.store.JobStore`, a remote
:class:`~repro.distrib.worker.WorkerAgent` claims over the
coordinator's HTTP protocol.  Everything between the claim and the
settle lives here once, so a job fails the same way wherever it runs:

* **Execution.**  Every job goes through the *existing* sweep executor
  (:func:`repro.runner.executor.run_sweep` on a single-job campaign):
  the same wall timeouts, bounded retries, process isolation,
  content-addressed cache and chaos hooks as ``repro sweep``, so a
  claimed job computes byte-for-byte what a direct sweep would.
  ``attempt_base`` carries the store-level attempt count into the
  executor, so chaos plans keyed on attempts behave identically across
  crashes, reaps and worker hops.
* **Deadlines.**  A job claimed past its ``deadline_at`` settles
  ``failed``/``deadline_exceeded`` without computing; otherwise the
  remaining budget clamps the executor's wall timeout.
* **Leases.**  A heartbeat thread renews the claim's lease while the
  sweep runs.  A renewal answered ``lost`` (the job was reaped, settled
  or re-claimed; our fencing token is stale) stops the heartbeat *and*
  the computation, and the settle is skipped -- the re-run under the
  new claim hits the cache and settles the identical answer.  Renewal
  is bounded by the job's worst-case wall budget (attempts x wall
  timeout + backoff + one lease, when a wall timeout is derivable):
  past that horizon the claim is presumed wedged and its lease left to
  lapse, so the reaper recovers it.  A job with no derivable wall
  budget renews until it returns, unless the transport supplies a cap.
* **Cancel.**  The executor polls a ``cancel_check`` that fires on a
  cancel learned from the heartbeat, a lost lease, or the transport's
  own cancel poll.
* **Drain.**  The stop event rides into ``run_sweep``: in-flight
  attempts finish, claims that never started are released (attempt
  refunded), and :meth:`ClaimLoop.stop` joins every slot against one
  shared ``drain_timeout_seconds`` deadline.  A slot still busy after
  it is abandoned to its lease -- the reaper or restart recovery
  requeues the job, never loses it.

Subclasses supply only the transport: :meth:`~ClaimLoop._claim`,
:meth:`~ClaimLoop._heartbeat`, :meth:`~ClaimLoop._settle`,
:meth:`~ClaimLoop._release` and, optionally,
:meth:`~ClaimLoop._cancel_requested` and
:meth:`~ClaimLoop._before_settle`.
"""

from __future__ import annotations

import logging
import threading
import time

from repro.core.config import RunnerConfig
from repro.exceptions import AdmissionError, ServiceError
from repro.obs.trace import Tracer
from repro.runner.executor import run_sweep
from repro.runner.jobs import Job
from repro.service.store import InjectedServiceCrash

logger = logging.getLogger(__name__)


class ClaimLoop:
    """Slot threads turning claimed jobs into settled results.

    Args:
        config: Pool knobs read at use time: ``num_workers``,
            ``poll_interval_seconds``, ``drain_timeout_seconds``.
        lease_policy: Lease knobs: ``lease_seconds`` and
            ``resolved_heartbeat_interval()``; an optional
            ``max_lease_renewal_seconds`` caps renewal.
        runner_config: Executor knobs for the jobs themselves.
        cache: Result cache handed to the executor.
        isolate_jobs: Run each job in a worker *process* (the executor's
            pooled path) so a segfaulting or wedged solve costs one job.
    """

    #: Thread-name stem for the slot and heartbeat threads.
    thread_name = "repro-claim-slot"
    #: Collect the job's trace spans and hand them to :meth:`_settle`.
    ships_spans = False

    def __init__(self, config, lease_policy,
                 runner_config: RunnerConfig | None, cache,
                 isolate_jobs: bool):
        self.config = config
        self.lease_policy = lease_policy
        self.runner_config = runner_config or RunnerConfig(
            num_workers=2 if isolate_jobs else 1)
        self.cache = cache
        self.isolate_jobs = isolate_jobs
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._counts_lock = threading.Lock()
        #: Processed-claim tally by outcome (``done``/``failed``/
        #: ``cancelled``/``stale``/``released``), for drain-time logs
        #: and tests.
        self.counts: dict[str, int] = {}

    # -- the transport ---------------------------------------------------

    def _claim(self) -> dict | None:
        """Claim the best queued job, or ``None`` on an empty queue."""
        raise NotImplementedError

    def _heartbeat(self, analysis_id: str, key: str, token: str) -> str:
        """Renew the lease: ``"lost"``, ``"cancel"`` (renewed, and a
        cancel is requested) or any other renewal outcome."""
        raise NotImplementedError

    def _settle(self, analysis_id: str, key: str, token: str, state: str,
                status: str | None = None, error: str | None = None,
                result: dict | None = None,
                spans: list[dict] | None = None) -> bool:
        """Fenced settle; False when the fence refused it."""
        raise NotImplementedError

    def _release(self, analysis_id: str, key: str, token: str) -> bool:
        """Hand an unstarted claim back; False when it was stale."""
        raise NotImplementedError

    def _cancel_requested(self, analysis_id: str, key: str) -> bool:
        """Polled by the executor between dispatches."""
        return False

    def _before_settle(self, key: str) -> None:
        """Called after the executor returned, before its settle."""

    # -- the loop --------------------------------------------------------

    @property
    def stop_event(self) -> threading.Event:
        """The drain signal (shared with in-flight ``run_sweep`` calls)."""
        return self._stop

    def _count(self, outcome: str) -> None:
        with self._counts_lock:
            self.counts[outcome] = self.counts.get(outcome, 0) + 1

    def _start_slots(self) -> None:
        for index in range(self.config.num_workers):
            thread = threading.Thread(
                target=self._slot_loop, args=(index,),
                name=f"{self.thread_name}-{index}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self, drain: bool = True) -> None:
        """Request a stop and join the slots.

        With ``drain`` (the default) in-flight jobs share one
        ``drain_timeout_seconds`` deadline to settle; without it the
        join is immediate.  Claims still running afterwards are left to
        their leases (and to restart recovery), never lost.
        """
        self._stop.set()
        timeout = self.config.drain_timeout_seconds if drain else 0.0
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            logger.warning(
                "%d slot(s) still busy after the drain timeout; their "
                "claims lapse and are requeued", len(self._threads))

    def run_until_idle(self) -> int:
        """Drain the queue on the calling thread (tests, one-shot mode).

        Returns:
            How many claims this call processed (settled or released).
        """
        processed = 0
        while not self._stop.is_set():
            if not self._run_one():
                break
            processed += 1
        return processed

    def _slot_loop(self, index: int) -> None:
        poll = self.config.poll_interval_seconds
        while not self._stop.is_set():
            try:
                ran = self._run_one()
            except InjectedServiceCrash:
                # In-process chaos: this slot "dies".  Its claim stays
                # running, exactly as after a real crash, and restart
                # recovery (or the reaper, once its lease lapses)
                # requeues it.
                logger.warning("slot %d killed by injected crash", index)
                return
            except AdmissionError as exc:
                # The claim was shed: honor Retry-After instead of
                # thundering back.
                self._stop.wait(exc.retry_after or poll)
                continue
            except ServiceError as exc:
                # Transport retries are already spent; treat an
                # unreachable claim path as a long poll, not a crash.
                logger.warning("slot %d: claim path failed: %s",
                               index, exc)
                ran = False
            if not ran:
                self._stop.wait(poll)

    def _run_one(self) -> bool:
        """Claim, run and settle one job; False when the queue is empty."""
        claimed = self._claim()
        if claimed is None:
            return False
        analysis_id, key = claimed["analysis_id"], claimed["key"]
        token = claimed["claim_token"]
        if self._stop.is_set():
            # Drain request raced the claim: refund the attempt.
            self._hand_back(analysis_id, key, token)
            return True
        job = Job(payload=claimed["payload"])

        wall_timeout = None
        if claimed["deadline_at"] is not None:
            remaining = claimed["deadline_at"] - time.time()
            if remaining <= 0:
                # Claimed at the buzzer: fail fast rather than compute
                # an answer nobody is waiting for.
                self._finish(analysis_id, key, token, "failed",
                             status="deadline_exceeded",
                             error="deadline_exceeded: end-to-end deadline "
                                   "passed before the job could start")
                return True
            default_wall = self.runner_config.wall_timeout_for(
                job.params.get("time_limit"))
            wall_timeout = remaining if default_wall is None \
                else min(default_wall, remaining)

        cancel, lost = threading.Event(), threading.Event()
        heartbeat_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(analysis_id, key, token, heartbeat_stop,
                  self._renewal_horizon(job, wall_timeout), lost, cancel),
            name=f"{self.thread_name}-heartbeat", daemon=True)
        heartbeat.start()

        def cancel_check() -> bool:
            return cancel.is_set() \
                or self._cancel_requested(analysis_id, key)

        tracer = Tracer() if self.ships_spans else None
        try:
            outcome = run_sweep(
                [job],
                num_workers=2 if self.isolate_jobs else 1,
                cache=self.cache,
                config=self.runner_config,
                wall_timeout=wall_timeout,
                tracer=tracer,
                handle_signals=False,
                stop_event=self._stop,
                cancel_check=cancel_check,
                attempt_base=claimed["attempts"] - 1,
            )
        except InjectedServiceCrash:
            raise
        except Exception as exc:
            # The executor settles task failures internally, so an
            # exception here is a harness bug or a poisoned payload;
            # fail the job rather than wedge it in 'running'.
            logger.exception("job %s failed outside the executor",
                             key[:12])
            self._finish(analysis_id, key, token, "failed", status="error",
                         error=f"{type(exc).__name__}: {exc}")
            return True
        finally:
            # A real process death takes the heartbeat thread with it;
            # the in-process InjectedServiceCrash must behave the same.
            heartbeat_stop.set()
            heartbeat.join(timeout=1.0)

        if lost.is_set():
            logger.warning(
                "claim for job %s was lost while running; discarding "
                "the stale outcome", key[:12])
            self._count("stale")
            return True
        if outcome.interrupted and not outcome.outcomes:
            # Drain landed before the attempt started: refund it.
            self._hand_back(analysis_id, key, token)
            return True
        settled = outcome.outcomes[0]
        self._before_settle(key)
        state = "cancelled" if settled.status == "cancelled" \
            else "done" if settled.ok else "failed"
        self._finish(analysis_id, key, token, state, status=settled.status,
                     error=settled.error,
                     result=settled.result if settled.ok else None,
                     spans=(tracer.export() or None) if tracer else None)
        return True

    def _finish(self, analysis_id: str, key: str, token: str, state: str,
                **fields) -> None:
        if self._settle(analysis_id, key, token, state, **fields):
            self._count(state)
            return
        # Reaped (and maybe re-claimed) while we ran, or the store
        # closed under a slot that outlived the drain: the re-run hits
        # the content-addressed cache and settles identically, so the
        # refused result is redundant, not lost.
        logger.warning("settle for job %s refused; the re-run settles "
                       "identically", key[:12])
        self._count("stale")

    def _hand_back(self, analysis_id: str, key: str, token: str) -> None:
        released = self._release(analysis_id, key, token)
        self._count("released" if released else "stale")

    def _renewal_horizon(self, job: Job,
                         wall_timeout: float | None) -> float | None:
        """Latest time this claim's heartbeat may renew the lease.

        The heartbeat thread outlives a solve wedged inside the worker
        process, so renewing forever would mean a wedged claim is never
        reaped.  With a derivable wall budget (a deadline clamp or a
        ``time_limit``-derived timeout) a healthy executor returns
        within the worst case of every attempt plus backoff; past that
        the lease is left to lapse.  ``max_lease_renewal_seconds``, when
        the lease policy has one, caps the horizon regardless; with
        neither bound the horizon is ``None`` (renew until the job
        returns).
        """
        lease = self.lease_policy
        wall = wall_timeout if wall_timeout is not None else \
            self.runner_config.wall_timeout_for(job.params.get("time_limit"))
        budget = getattr(lease, "max_lease_renewal_seconds", None)
        if wall is not None:
            cfg = self.runner_config
            worst = ((cfg.retries + 1) * wall
                     + cfg.retries * cfg.backoff_max_seconds
                     + lease.lease_seconds)
            budget = worst if budget is None else min(budget, worst)
        return None if budget is None else time.time() + budget

    def _heartbeat_loop(self, analysis_id: str, key: str, token: str,
                        stop: threading.Event, renew_until: float | None,
                        lost: threading.Event | None = None,
                        cancel: threading.Event | None = None) -> None:
        """Renew the lease every heartbeat interval until ``stop``.

        Exits on its own at the renewal horizon or when a renewal
        reports the lease lost -- then it also raises ``lost`` and
        ``cancel`` so the computation stops.  A renewal that reports a
        requested cancel raises ``cancel``.
        """
        interval = self.lease_policy.resolved_heartbeat_interval()
        while not stop.wait(interval):
            if renew_until is not None and time.time() >= renew_until:
                logger.warning(
                    "job %s exceeded its worst-case wall budget; "
                    "letting the lease lapse so the reaper recovers it",
                    key[:12])
                return
            try:
                beat = self._heartbeat(analysis_id, key, token)
            except Exception:
                # The lease keeps aging but the claim may still be
                # ours: retry at the next tick, and let the reaper
                # arbitrate if renewals keep failing.
                logger.warning("heartbeat for job %s failed", key[:12],
                               exc_info=True)
                continue
            if beat == "lost":
                # Reaped, settled or re-claimed: the fencing token is
                # stale, so further renewals can never touch the new
                # claim, and the answer now belongs to that claim.
                logger.warning("lease for job %s lost; stopping",
                               key[:12])
                for event in (lost, cancel):
                    if event is not None:
                        event.set()
                return
            if beat == "cancel" and cancel is not None:
                cancel.set()
