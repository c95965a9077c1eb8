"""Executor behavior: fault tolerance, retries, caching, resume.

The injected tasks live in ``tests/runner/_workers.py`` so worker
processes can import them by reference.
"""

import os
import signal
import time

import pytest

from repro.core.config import RunnerConfig, default_num_workers
from repro.runner.cache import ResultCache
from repro.runner.executor import run_sweep
from repro.runner.jobs import Job
from repro.runner.journal import Journal

WORKERS = "tests.runner._workers"


def _job(task: str, **params) -> Job:
    return Job({"task": f"{WORKERS}:{task}", "instance": {},
                "params": params})


class TestGracefulDegradation:
    def test_crash_timeout_and_error_do_not_kill_the_campaign(self):
        """The ISSUE's acceptance scenario: a hard-crashing worker and a
        wedged job settle as structured errors; healthy jobs complete."""
        jobs = [
            _job("echo_task", value=1),
            _job("crash_task"),
            _job("sleep_task", sleep_seconds=600),
            _job("echo_task", value=2),
            _job("error_task"),
        ]
        outcome = run_sweep(
            jobs, num_workers=2, wall_timeout=2.0,
            config=RunnerConfig(retries=0, backoff_seconds=0.0),
        )
        by_value = {o.job.params.get("value"): o for o in outcome.outcomes}
        statuses = [o.status for o in outcome.outcomes]

        assert by_value[1].status == "done"
        assert by_value[1].result == {"echo": 1}
        assert by_value[2].status == "done"
        assert statuses[1] == "error"          # crash
        assert "crash" in outcome.outcomes[1].error
        assert statuses[2] == "timeout"        # wedged
        assert "wall timeout" in outcome.outcomes[2].error
        assert statuses[4] == "error"          # plain exception
        assert "injected failure" in outcome.outcomes[4].error
        assert outcome.num_errors == 3
        # Outcomes come back in job order despite parallel completion.
        assert [o.job.key for o in outcome.outcomes] == [j.key for j in jobs]

    def test_crash_is_not_charged_to_innocent_jobs(self, tmp_path):
        """Broken-pool casualties keep their retry budget: with
        retries=0 every healthy job must still settle as done."""
        jobs = [_job("crash_task")] + [
            _job("echo_task", value=i,
                 log_file=str(tmp_path / "log.txt"))
            for i in range(6)
        ]
        outcome = run_sweep(
            jobs, num_workers=2,
            config=RunnerConfig(retries=0, backoff_seconds=0.0),
        )
        assert outcome.outcomes[0].status == "error"
        assert all(o.status == "done" for o in outcome.outcomes[1:])

    def test_serial_mode_contains_failures_too(self):
        jobs = [_job("error_task"), _job("echo_task", value=7)]
        outcome = run_sweep(jobs, num_workers=1,
                            config=RunnerConfig(retries=0))
        assert [o.status for o in outcome.outcomes] == ["error", "done"]
        assert outcome.outcomes[0].attempts == 1

    def test_raise_on_error(self):
        outcome = run_sweep([_job("error_task")], num_workers=1,
                            config=RunnerConfig(retries=0))
        with pytest.raises(Exception, match="injected failure"):
            outcome.raise_on_error()


class TestRetries:
    def test_flaky_job_recovers_within_budget(self, tmp_path):
        job = _job("flaky_task", sentinel=str(tmp_path / "sentinel"))
        outcome = run_sweep(
            [job], num_workers=1,
            config=RunnerConfig(retries=1, backoff_seconds=0.0),
        )
        assert outcome.outcomes[0].status == "done"
        assert outcome.outcomes[0].result == {"recovered": True}
        assert outcome.outcomes[0].attempts == 2

    def test_retries_exhaust_into_structured_error(self):
        outcome = run_sweep(
            [_job("error_task")], num_workers=1,
            config=RunnerConfig(retries=2, backoff_seconds=0.0),
        )
        assert outcome.outcomes[0].status == "error"
        assert outcome.outcomes[0].attempts == 3


class TestCacheAndJournal:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [_job("echo_task", value=i) for i in range(4)]
        first = run_sweep(jobs, num_workers=1, cache=cache)
        assert all(o.status == "done" for o in first.outcomes)
        second = run_sweep(jobs, num_workers=1, cache=cache)
        assert all(o.status == "cached" for o in second.outcomes)
        assert [o.result for o in second.outcomes] == \
            [o.result for o in first.outcomes]
        assert second.num_cached == 4

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep([_job("error_task")], num_workers=1, cache=cache,
                  config=RunnerConfig(retries=0))
        assert len(cache) == 0

    def test_resume_runs_only_the_remaining_jobs(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        log = str(tmp_path / "executions.log")
        jobs = [_job("echo_task", value=i, log_file=log) for i in range(5)]

        # Simulate an interrupted campaign: only the first two settled.
        interrupted = run_sweep(jobs[:2], num_workers=1, journal=journal)
        assert all(o.status == "done" for o in interrupted.outcomes)
        assert len(open(log).readlines()) == 2

        resumed = run_sweep(jobs, num_workers=1, journal=journal,
                            resume=True)
        statuses = [o.status for o in resumed.outcomes]
        assert statuses == ["resumed", "resumed", "done", "done", "done"]
        # The settled jobs did not execute again.
        assert len(open(log).readlines()) == 5
        assert resumed.outcomes[0].result == {"echo": 0}

    def test_resume_retries_previous_failures(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        sentinel = str(tmp_path / "sentinel")
        job = _job("flaky_task", sentinel=sentinel)
        first = run_sweep([job], num_workers=1, journal=journal,
                          config=RunnerConfig(retries=0))
        assert first.outcomes[0].status == "error"
        second = run_sweep([job], num_workers=1, journal=journal,
                           resume=True, config=RunnerConfig(retries=0))
        assert second.outcomes[0].status == "done"

    def test_torn_journal_tail_is_ignored(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        jobs = [_job("echo_task", value=0)]
        run_sweep(jobs, num_workers=1, journal=journal)
        with open(journal.path, "a") as handle:
            handle.write('{"event": "job", "key": "truncat')  # kill -9 tail
        resumed = run_sweep(jobs, num_workers=1, journal=journal,
                            resume=True)
        assert resumed.outcomes[0].status == "resumed"


class TestProgress:
    def test_events_cover_every_job_with_throughput(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [_job("echo_task", value=i) for i in range(3)]
        run_sweep(jobs, num_workers=1, cache=cache)
        events = []
        run_sweep(jobs + [_job("echo_task", value=99)], num_workers=1,
                  cache=cache, progress=events.append)
        assert [e.completed for e in events] == [1, 2, 3, 4]
        assert events[-1].total == 4
        assert events[-1].cache_hits == 3
        assert events[-1].errors == 0
        assert events[-1].rate > 0
        assert "done" in events[-1].render()


class TestDefaults:
    def test_default_workers_is_capped_and_positive(self):
        assert 1 <= default_num_workers() <= 8
        assert default_num_workers(cap=2) <= 2

    def test_wall_timeout_derivation(self):
        config = RunnerConfig(wall_timeout_factor=3.0,
                              wall_timeout_margin=30.0)
        assert config.wall_timeout_for(60.0) == 210.0
        assert config.wall_timeout_for(None) is None


class TestTelemetryAggregation:
    def test_stats_totals_and_progress_accumulation(self, tmp_path):
        jobs = [_job("stats_task", value=i, coef=8.0 * (i + 1))
                for i in range(3)]
        events = []
        outcome = run_sweep(jobs, num_workers=1, progress=events.append)
        totals = outcome.stats_totals()
        assert totals["jobs_with_stats"] == 3
        assert totals["build_seconds"] == pytest.approx(0.75)
        assert totals["compile_seconds"] == pytest.approx(0.375)
        assert totals["solve_seconds"] == pytest.approx(1.5)
        assert totals["max_abs_coefficient"] == pytest.approx(24.0)
        # The progress heartbeats carry the running build/compile sums.
        assert events[-1].build_seconds == pytest.approx(0.75)
        assert events[-1].compile_seconds == pytest.approx(0.375)

    def test_stats_totals_zero_without_telemetry(self):
        outcome = run_sweep([_job("echo_task", value=1)], num_workers=1)
        totals = outcome.stats_totals()
        assert totals["jobs_with_stats"] == 0
        assert totals["solve_seconds"] == 0.0


class TestCooperativeCancel:
    def test_cancel_settles_every_job_in_the_pool(self):
        """A cancel raised mid-flight settles the wedged job as
        cancelled instead of waiting out its wall timeout."""
        polls = {"n": 0}

        def cancel_after_two():
            polls["n"] += 1
            return polls["n"] > 2

        outcome = run_sweep(
            [_job("sleep_task", sleep_seconds=600)], num_workers=2,
            wall_timeout=30.0, cancel_check=cancel_after_two,
            config=RunnerConfig(retries=0, backoff_seconds=0.0),
        )
        assert len(outcome.outcomes) == 1
        assert outcome.outcomes[0].status == "cancelled"
        assert "cancelled by client" in outcome.outcomes[0].error

    def test_cancel_stops_the_running_attempt(self, tmp_path):
        """The abandoned pool's worker process is stopped, not left to
        compute up to its wall timeout."""
        pid_file = tmp_path / "worker.pid"
        outcome = run_sweep(
            [_job("pid_sleep_task", pid_file=str(pid_file),
                  sleep_seconds=600)], num_workers=2,
            wall_timeout=60.0, cancel_check=pid_file.exists,
            config=RunnerConfig(retries=0, backoff_seconds=0.0),
        )
        assert outcome.outcomes[0].status == "cancelled"
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        pytest.fail(f"worker {pid} still runs 5 s after the cancel")

    def test_cancel_race_settles_done_but_unretrieved_future(
            self, monkeypatch):
        """REVIEW regression: a future can complete between the wait
        returning empty and the cancel branch running.  Keying the
        cancel settle off ``future.done()`` skipped that job entirely
        -- neither processed nor cancelled -- so the sweep returned no
        outcome for it and the service scheduler crashed on
        ``outcomes[0]``.  The cancel branch must settle by bookkeeping:
        every job not already settled is cancelled."""
        import repro.runner.executor as executor_mod

        real_wait = executor_mod.futures_wait

        def racy_wait(fs, timeout=None, return_when=None):
            # Let the future genuinely complete, then report nothing
            # done -- the exact window the cancel check races with.
            real_wait(fs, timeout=10.0, return_when=return_when)
            return set(), set(fs)

        monkeypatch.setattr(executor_mod, "futures_wait", racy_wait)
        polls = {"n": 0}

        def cancel_on_second_poll():
            polls["n"] += 1
            return polls["n"] > 1

        outcome = run_sweep(
            [_job("echo_task", value=1)], num_workers=2,
            cancel_check=cancel_on_second_poll,
            config=RunnerConfig(retries=0, backoff_seconds=0.0),
        )
        # The job must come back settled -- cancelled is the correct
        # answer here -- never silently missing from the outcome.
        assert len(outcome.outcomes) == 1
        assert outcome.outcomes[0].status == "cancelled"
