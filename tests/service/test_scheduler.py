"""The scheduler: claim/run/settle, injected crashes, drain-on-stop."""

import time

import pytest

from repro.core.config import ServiceConfig
from repro.resilience.faults import injected
from repro.runner.cache import ResultCache
from repro.runner.jobs import SweepSpec
from repro.service.scheduler import Scheduler
from repro.service.store import InjectedServiceCrash, JobStore
from tests.service._specs import echo_spec, sleep_spec


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "service.db")
    yield store
    store.close()


def submitted(store, doc) -> tuple[str, list]:
    spec = SweepSpec.from_dict(doc)
    jobs = spec.expand()
    store.submit(spec.spec_hash, spec.name, "test",
                 [(j.key, j.label, j.payload) for j in jobs])
    return spec.spec_hash, jobs


def fast_config(**overrides) -> ServiceConfig:
    defaults = dict(num_workers=2, isolate_jobs=False,
                    poll_interval_seconds=0.02, drain_timeout_seconds=5.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestRunUntilIdle:
    def test_settles_every_job(self, store, tmp_path):
        analysis_id, jobs = submitted(store, echo_spec([1, 2, 3]))
        cache = ResultCache(tmp_path / "cache")
        scheduler = Scheduler(store, cache, fast_config())
        assert scheduler.run_until_idle() == 3
        status = store.analysis_status(analysis_id)
        assert status["state"] == "done"
        assert status["counts"]["done"] == 3

    def test_results_land_in_cache(self, store, tmp_path):
        _, jobs = submitted(store, echo_spec([7]))
        cache = ResultCache(tmp_path / "cache")
        Scheduler(store, cache, fast_config()).run_until_idle()
        assert cache.get(jobs[0].key) == {"echo": 7}

    def test_failed_jobs_settle_failed(self, store, tmp_path):
        doc = echo_spec([1])
        doc["task"] = "tests.runner._workers:error_task"
        analysis_id, _ = submitted(store, doc)
        cache = ResultCache(tmp_path / "cache")
        Scheduler(store, cache, fast_config()).run_until_idle()
        status = store.analysis_status(analysis_id)
        assert status["state"] == "failed"
        job = store.analysis_jobs(analysis_id)[0]
        assert job["error"] and "injected failure" in job["error"]


class TestWorkerPool:
    def test_pool_drains_queue(self, store, tmp_path):
        analysis_id, _ = submitted(store, echo_spec(range(8)))
        scheduler = Scheduler(store, ResultCache(tmp_path / "cache"),
                              fast_config())
        scheduler.start()
        try:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if store.analysis_status(analysis_id)["finished"]:
                    break
                time.sleep(0.05)
        finally:
            scheduler.stop()
        assert store.analysis_status(analysis_id)["counts"]["done"] == 8


class TestInjectedCrash:
    PLAN = {"kind": "fault_plan", "seed": 1,
            "points": [{"site": "service.crash_claimed", "rate": 1.0,
                        "max_fires": 1}]}

    def test_crash_leaves_job_running_then_recovery_requeues(
            self, store, tmp_path):
        analysis_id, _ = submitted(store, echo_spec([1, 2]))
        cache = ResultCache(tmp_path / "cache")
        with injected(self.PLAN):
            scheduler = Scheduler(store, cache, fast_config())
            with pytest.raises(InjectedServiceCrash):
                scheduler.run_until_idle()
        # The first claim crashed after commit: its job is wedged in
        # 'running', exactly as after a real kill -9.
        assert store.counts()["running"] == 1
        # A restarted scheduler recovers and finishes everything.
        fresh = Scheduler(store, cache, fast_config())
        fresh.start()
        try:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if store.analysis_status(analysis_id)["finished"]:
                    break
                time.sleep(0.05)
        finally:
            fresh.stop()
        status = store.analysis_status(analysis_id)
        assert status["counts"]["done"] == 2
        terminal = [t for t in store.transitions(analysis_id)
                    if t["to_state"] in ("done", "failed", "cancelled")]
        assert len(terminal) == 2  # exactly once per job


class TestDrain:
    def test_stop_drains_in_flight_and_leaves_rest_queued(
            self, store, tmp_path):
        analysis_id, _ = submitted(store, sleep_spec(0.3, range(6)))
        scheduler = Scheduler(store, ResultCache(tmp_path / "cache"),
                              fast_config(num_workers=1))
        scheduler.start()
        deadline = time.monotonic() + 10
        while store.counts()["running"] == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        scheduler.stop(drain=True)
        counts = store.counts()
        # A graceful drain leaves nothing in 'running': the in-flight
        # attempt either settled or its claim was handed back.
        assert counts["running"] == 0
        assert counts["done"] + counts["queued"] == 6

    def test_drain_timeout_is_one_deadline_for_all_workers(
            self, store, tmp_path):
        submitted(store, sleep_spec(2.0, [1, 2]))
        scheduler = Scheduler(store, ResultCache(tmp_path / "cache"),
                              fast_config(num_workers=2,
                                          drain_timeout_seconds=0.5))
        scheduler.start()
        deadline = time.monotonic() + 10
        while store.counts()["running"] < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert store.counts()["running"] == 2
        started = time.monotonic()
        scheduler.stop(drain=True)
        elapsed = time.monotonic() - started
        # Both busy workers share the 0.5s drain budget; joining each
        # with the full timeout in turn would take ~1.0s.
        assert elapsed < 0.8
        # The abandoned in-flight jobs still finish and settle.
        deadline = time.monotonic() + 10
        while store.counts()["done"] < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert store.counts()["done"] == 2
