"""Shared pieces of the benchmark: spans, statistics, fingerprint, records.

Nothing here imports the program; the workload modules do.  Importing
this module starts no thread and touches no file.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parents[1]

#: Scratch space for caches, service workdirs and run records.  Inside
#: the checkout, ignored by git, removed per run except ``records/``.
WORK = ROOT / ".perfbench"


def scratch_dir(name: str) -> Path:
    """A fresh directory for this run; :func:`clear_scratch` removes it."""
    path = WORK / f"run-{os.getpid()}" / name
    path.mkdir(parents=True)
    return path


def clear_scratch() -> None:
    shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)


class Tracer:
    """Spans around calls into the program, recorded from outside it.

    :meth:`wrap` swaps a module function or a class's method for a
    timing wrapper and :meth:`restore` puts every original back, so an
    untraced run executes the program's own code objects.  A span's
    self time is its duration minus the time of the spans it encloses;
    the self times of all spans plus the time spent outside any span
    therefore add up to the traced wall time.  Spans are recorded on
    the calling thread only: every workload drives the program from one
    thread.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patched: list[tuple] = []

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()
        self.calls[name] += 1
        self.busy[name] += elapsed
        self.self_time[name] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``count(counts, result)`` may add work counters read off the
        call's return value (B&B nodes, simplex iterations, ...).
        """
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"cannot trace {owner!r}.{attr}")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(name, start)
            if count is not None:
                count(self.counts, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_total(self) -> float:
        return sum(self.self_time.values())


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """The 90th percentile, interpolated between the closest samples."""
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class SetupTimer:
    """A workload's set-up, timed in batches spread over the run.

    The speed of identical work on a shared box changes over seconds,
    so all set-ups timed back to back at the start would sample one
    moment.  :meth:`sample` is called at the start and again between
    the measured iterations; :attr:`median` is over every call timed.
    """

    def __init__(self, fn, batch: int):
        self.fn = fn
        self.batch = batch
        self.walls: list[float] = []
        self.value = None

    def sample(self):
        """Time ``batch`` more set-ups; return the last one's value.

        Garbage left by the work before is collected first, untimed, so
        that a set-up does not pay for it.
        """
        gc.collect()
        for _ in range(self.batch):
            start = time.perf_counter()
            self.value = self.fn()
            self.walls.append(time.perf_counter() - start)
        return self.value

    @property
    def median(self) -> float:
        return median(self.walls)


def fingerprint() -> dict:
    """The environment a result was measured in.

    Node and iteration counts depend on the HiGHS build that ships with
    scipy, so counters are only comparable under one fingerprint.
    """
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def code_version() -> str:
    """A digest of the program's source tree (``src/**/*.py``)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counters(workload: str, seed: int, counters: dict,
                   env: dict) -> list[str]:
    """Compare deterministic counters with earlier runs; store them.

    Runs of one code version under one fingerprint must repeat every
    counter exactly.  Returns one message per counter that differs from
    the stored value (a flag, never averaged away); new counters are
    added to the record.
    """
    key = hashlib.sha256(json.dumps(
        [code_version(), env, workload, seed], sort_keys=True
    ).encode()).hexdigest()[:24]
    path = WORK / "records" / f"{workload}-{seed}-{key}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    mismatches = [
        f"{name}: {value!r} now, {stored[name]!r} in an earlier run"
        for name, value in sorted(counters.items())
        if name in stored and stored[name] != value
    ]
    merged = {**counters, **stored}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True, indent=1))
    tmp.replace(path)
    return mismatches
