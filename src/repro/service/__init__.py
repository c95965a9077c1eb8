"""repro.service: persistent queue-backed analysis service.

A serving layer over the batch runner: a durable SQLite job queue
(:mod:`~repro.service.store`), a claim/run/settle scheduler pool
(:mod:`~repro.service.scheduler`) that drains jobs through the existing
sweep executor -- on the claim loop it shares with remote workers
(:mod:`~repro.service.claims`) -- admission control with load shedding
(:mod:`~repro.service.admission`), a TTL/size-capped result store
(:mod:`~repro.service.results`), and a zero-dependency HTTP API
(:mod:`~repro.service.api`) with a matching client
(:mod:`~repro.service.client`).

The scheduler is self-healing (``ServiceConfig.supervision``): claims
are time-bounded leases renewed by worker heartbeats, a reaper requeues
jobs whose lease lapsed (hung worker), jobs that exhaust their claim
budget are quarantined instead of crash-looping the pool, submissions
can carry an end-to-end ``deadline_seconds``, and a ``DELETE`` on a
running analysis cancels it cooperatively mid-flight.

Start one with ``python -m repro serve --workdir runs/service``; talk to
it with ``python -m repro client
submit|status|result|cancel|quarantine|retry`` or any HTTP client.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.api import AnalysisService, make_server, serve_forever
from repro.service.client import ServiceClient
from repro.service.results import ResultStore
from repro.service.scheduler import Scheduler
from repro.service.store import InjectedServiceCrash, JobStore

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AnalysisService",
    "InjectedServiceCrash",
    "JobStore",
    "ResultStore",
    "Scheduler",
    "ServiceClient",
    "make_server",
    "serve_forever",
]
