"""availability-mc: back-to-back Monte Carlo availability estimates.

Each round runs K ``estimate_availability_parallel`` calls on the
standard bench WAN (seed 1, 2 primary + 1 backup paths, average
demands), 2000 samples each, in-process (``num_workers=1``), sharing
one result cache that is empty when the round starts.  No MILP runs
here: the first estimate of a round re-solves every distinct scenario's
LP and writes it to the cache (``mc_cold_s``); the later ones find most
scenarios in the cache (``mc_warm_s``).

The Monte Carlo seeds are ``s ... s+K-1`` for workload seed ``s``.
Rounds ``2j`` and ``2j+1`` rotate that window by ``j``, so each pair of
rounds starts cold on another seed, and a seed's cold estimate is the
reference its warm estimates must reproduce.  A traced run traces the
second round of every pair, so a traced round and an untraced one do
the same work.
"""

from __future__ import annotations

import gc
import itertools
import time

from common import SetupTimer, Tracer, median, peak_rss_mb_self, scratch_dir
from layers import trace_program
from report import Report, layer_metrics

ESTIMATES = 6          # K
SAMPLES = 2000
SETUP_BATCH = 15        # set-ups timed at the start and after each round
REL_TOL = 1e-9


def _build():
    from benchmarks.conftest import WAN_KWARGS
    from repro.analysis.experiments import bench_wan

    net = bench_wan(**WAN_KWARGS)
    return net, net.paths(num_primary=2, num_backup=1)


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def run(seed: int, seconds: float, trace: bool) -> Report:
    from repro.core.config import MonteCarloConfig
    from repro.failures import availability, montecarlo
    from repro.runner.cache import ResultCache

    report = Report()
    caches = itertools.count()

    def set_up():
        built = _build()
        return built, ResultCache(scratch_dir(f"cache-{next(caches)}"))

    setup = SetupTimer(set_up, SETUP_BATCH)
    (net, paths), _ = setup.sample()
    topology, demands = net.topology, dict(net.avg_demands)
    window = list(range(seed, seed + ESTIMATES))

    def estimate(mc_seed: int, cache, samples: int = SAMPLES):
        config = MonteCarloConfig(samples=samples, seed=mc_seed,
                                  num_workers=1)
        return availability.estimate_availability_parallel(
            topology, demands, paths, config, cache=cache)

    # Warm-up, untimed: a small estimate loads what the engine imports
    # lazily.
    estimate(seed, None, samples=50)

    tracer = Tracer()
    rounds = []      # (traced, round wall, [(seed, wall, estimate)])
    started = time.perf_counter()
    while True:
        r = len(rounds)
        elapsed = time.perf_counter() - started
        if r >= 2 and elapsed + median(w for _, w, _ in rounds) > seconds:
            break
        traced = trace and r % 2 == 1
        shift = r // 2 % ESTIMATES
        order = window[shift:] + window[:shift]
        cache = ResultCache(scratch_dir(f"cache-round-{r}"))
        gc.collect()
        if traced:
            trace_program(tracer)
        try:
            t_round = time.perf_counter()
            done = []
            for mc_seed in order:
                t0 = time.perf_counter()
                est = estimate(mc_seed, cache)
                done.append((mc_seed, time.perf_counter() - t0, est))
            rounds.append((traced, time.perf_counter() - t_round, done))
        finally:
            tracer.restore()
        setup.sample()
        if traced and "solver.lp.iters" not in report.counters:
            report.counters["solver.lp.iters"] = \
                tracer.counts["solver.lp.iters"]
    peak_rss = peak_rss_mb_self()

    # Output checks.
    reference: dict[int, float] = {}
    for _, _, done in rounds:
        mc_seed, _, cold = done[0]
        if cold.cache_hits:
            report.errors.append(f"seed {mc_seed}: cold estimate hit the "
                                 f"cache {cold.cache_hits} times")
        reference.setdefault(mc_seed, cold.availability)
    serial = montecarlo.estimate_availability(
        topology, demands, paths, samples=SAMPLES, seed=window[0])
    if not _same(serial.availability, reference[window[0]]):
        report.errors.append(
            f"seed {window[0]}: availability {reference[window[0]]!r}, "
            f"serial estimator {serial.availability!r}")
    for mc_seed in window:
        if mc_seed not in reference:
            reference[mc_seed] = estimate(mc_seed, None).availability
    for r, (_, _, done) in enumerate(rounds):
        for mc_seed, _, est in done:
            report.attempted += 1
            ok = _same(est.availability, reference[mc_seed]) and \
                est.cache_hits + est.fresh_solves == est.distinct_scenarios
            if not ok:
                report.failed += 1
                report.errors.append(
                    f"round {r} seed {mc_seed}: availability "
                    f"{est.availability!r} (reference "
                    f"{reference[mc_seed]!r}), {est.cache_hits} hits + "
                    f"{est.fresh_solves} fresh of "
                    f"{est.distinct_scenarios} distinct")

    first = [est for _, _, est in rounds[0][2]]
    distinct = sum(e.distinct_scenarios for e in first)
    report.counters.update({
        "failures.fresh_solves": sum(e.fresh_solves for e in first),
        "failures.distinct_ratio": distinct / sum(e.samples for e in first),
        "runner.cache.hit_ratio": sum(e.cache_hits for e in first)
        / distinct,
    })

    # A warm estimate costs more the earlier it runs in its round (less
    # is cached), so warm walls are compared position by position: the
    # median over rounds at each position, which a slow spell of the
    # host in one round does not move, averaged over the K-1 positions.
    untraced = [done for t, _, done in rounds if not t]
    cold = [done[0][1] for done in untraced]
    warm = [median(done[p][1] for done in untraced)
            for p in range(1, ESTIMATES)]
    warm_s = sum(warm) / len(warm)
    samples_per_s = SAMPLES * ESTIMATES / (median(cold) + sum(warm))

    setup_s = setup.median
    report.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "primary_s": median(cold),
        "secondary_s": warm_s,
        "throughput_per_s": samples_per_s,
    }
    report.note("setup_s", setup_s, "s",
                f"median of {len(setup.walls)} instance + path + "
                f"cache-dir set-ups")
    report.note("failed_ratio", report.failed / report.attempted, "ratio",
                f"{report.failed} of {report.attempted} estimates")
    report.note("peak_rss_mb", peak_rss, "MB", "this process")
    report.note("mc_cold_s", median(cold), "s",
                f"median of {len(cold)} cold estimates")
    report.note("mc_warm_s", warm_s, "s",
                f"mean over positions 2-{ESTIMATES} of the median over "
                f"{len(untraced)} rounds")
    report.note("samples_per_s", samples_per_s, "1/s",
                f"{ESTIMATES} x {SAMPLES} samples over the median cold + "
                f"warm walls of a round")

    if trace:
        # Per traced round, like the other rows.
        traced_rounds = [(w, done) for t, w, done in rounds if t]
        n = len(traced_rounds)
        layers = layer_metrics(tracer, sum(w for w, _ in traced_rounds), n)
        ests = [est for _, done in traced_rounds for _, _, est in done]
        layers["failures.fresh_solves"] = \
            sum(e.fresh_solves for e in ests) / n
        layers["failures.distinct_ratio"] = \
            sum(e.distinct_scenarios for e in ests) / sum(e.samples
                                                          for e in ests)
        gets = tracer.calls["runner.cache.get"]
        layers["runner.cache.hit_ratio"] = \
            tracer.counts["runner.cache.hits"] / gets if gets else 0.0
        # Each traced round repeats the untraced round before it, so
        # the cold estimates compared are of the same seed.
        pairs = [(rounds[r - 1][2][0][1], rounds[r][2][0][1])
                 for r in range(1, len(rounds), 2)]
        layers["trace.overhead_ratio"] = \
            median(t / u for u, t in pairs) - 1.0
        report.per_layer = layers
    return report
