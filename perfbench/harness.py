"""The closed loop: one client, one process, the next query when the last
one has answered.

A round is the workload's whole query list.  The timed phase runs whole
rounds and starts another only while it is expected to end within the
requested seconds, so every run measures the same mix.  Each query runs
under a time limit enforced in process with SIGALRM; a query past its limit
is stopped and counted as failed.

Times are calibrated.  On a machine shared with other virtual machines the
same computation can take twice as long from one minute to the next, which
no amount of repetition inside a 30-second run averages away.  So the loop
times a fixed calibration kernel (exact Fraction arithmetic on sparse
polynomials, the package's own kind of work, but code of the benchmark's)
every CALIBRATE_EVERY_S seconds of CPU time, also in the middle of a long
query, and each query's wall time is scaled by KERNEL_NOMINAL_S over the
kernel time measured during and around it.  A calibrated second is thus a
second on a machine where the kernel takes KERNEL_NOMINAL_S; wall times are
kept in the report as well.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional


KERNEL_NOMINAL_S = 0.002
CALIBRATE_EVERY_S = 0.2
REPEATED = "same answer as an earlier round"


class QueryTimeout(BaseException):
    """Raised inside a query that ran past its limit.  A BaseException, so
    no `except Exception` in the package can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def kernel() -> None:
    """The calibration work: one fixed product of two sparse polynomials
    with Fraction coefficients."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6 - i)}
    b = {(i, j): Fraction(j - 3, i + 1) for i in range(6) for j in range(6 - i)}
    out: Dict[tuple, Fraction] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2


class Calibration:
    """Kernel timings through a run, to turn wall time into calibrated time.

    While ticking, the kernel runs from a SIGVTALRM handler every
    CALIBRATE_EVERY_S seconds of CPU time, so long queries are sampled
    from inside; `inside_s` adds up the kernel time spent that way, which
    the harness takes back out of the query it interrupted."""

    def __init__(self, tracer=None):
        self.at: List[float] = []
        self.kernel_s: List[float] = []
        self.inside_s = 0.0
        self.tracer = tracer  # kernel time gets its own span, apart from the layers

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # the collector's pauses depend on the program's heap
        try:
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.at.append(start)
        self.kernel_s.append(elapsed)
        return elapsed

    def _tick(self, signum, frame) -> None:
        if self.tracer is None:
            self.inside_s += self.sample()
            return
        span = self.tracer.open("calibration.kernel")
        try:
            self.inside_s += self.sample()
        finally:
            self.tracer.close(span)

    def start_ticking(self) -> None:
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop_ticking(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured kernel time, from the samples taken during
        an interval and the nearest one on either side of it."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        around = self.kernel_s[lo:hi]
        return KERNEL_NOMINAL_S / (sum(around) / len(around))


@dataclass
class Record:
    round: int
    qid: int
    latency_s: float     # wall time
    status: str          # "ok", "timeout" or "error" (an exception nobody expects)
    answer: object
    start: float = 0.0
    end: float = 0.0
    calibrated_s: float = 0.0


def forget_package() -> None:
    """Drop the imported package, so the next import starts from scratch."""
    for name in [n for n in sys.modules if n == "blowup" or n.startswith("blowup.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import():
    """Import the package as a new process would (after `forget_package`)."""
    bl = importlib.import_module("blowup")
    importlib.import_module("blowup.cli")
    return bl


def run_query(execute: Callable, ctx, qid: int, q: Dict, round_index: int,
              calibration: Calibration, tracer=None) -> Record:
    status, answer = "ok", None
    inside = calibration.inside_s
    start = perf_counter()
    root = tracer.begin_query(qid, q["kind"]) if tracer is not None else None
    try:
        signal.setitimer(signal.ITIMER_REAL, q["limit_s"])
        try:
            answer = execute(ctx, q)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        status = "timeout"
    except Exception as exc:  # recorded and reported as a wrong answer
        status, answer = "error", {"unexpected": f"{type(exc).__name__}: {exc}"}
    if tracer is not None:
        tracer.end_query(root, status == "timeout")
    end = perf_counter()
    return Record(round_index, qid, end - start - (calibration.inside_s - inside),
                  status, answer, start, end)


def run_rounds(execute: Callable, ctx, queries: List[Dict], seconds: Optional[float],
               rounds: Optional[int] = None, tracer=None):
    """Run whole rounds: a fixed number, or as many as fit in `seconds`
    (at least one).  Returns the records with calibrated latencies, the
    wall time and the rounds run."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    records: List[Record] = []
    first: Dict[int, object] = {}
    calibration = Calibration(tracer)
    gc.collect()
    start = perf_counter()
    calibration.sample()
    calibration.start_ticking()
    done = 0
    try:
        while True:
            for qid, q in enumerate(queries):
                record = run_query(execute, ctx, qid, q, done, calibration, tracer)
                if record.status == "ok":
                    # keep one copy of each answer, so memory stays flat over rounds
                    known = first.setdefault(qid, record.answer)
                    if known is not record.answer and known == record.answer:
                        record.answer = REPEATED
                records.append(record)
            done += 1
            elapsed = perf_counter() - start
            if rounds is not None:
                if done >= rounds:
                    break
            elif elapsed * (done + 1) / done > seconds:
                break
    finally:
        calibration.stop_ticking()
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - start
    calibration.sample()
    for r in records:
        # a query stopped at its limit took the limit in wall time, at any speed
        r.calibrated_s = r.latency_s if r.status == "timeout" else \
            r.latency_s * calibration.factor(r.start, r.end)
    return records, wall, done


def calibrated(fn: Callable):
    """Run fn once; return its result and its wall and calibrated times."""
    calibration = Calibration()
    calibration.sample()
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    calibration.sample()
    return result, wall, wall * KERNEL_NOMINAL_S / statistics.mean(calibration.kernel_s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], share: float) -> float:
    """The Harrell-Davis estimate of a quantile: a Beta-weighted mean of all
    order statistics.  A round's latencies bunch into groups with gaps
    between them; a single order statistic jumps across a gap when two
    queries swap places, while this estimate moves smoothly."""
    import numpy
    from scipy.special import betainc

    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    a, b = share * (n + 1), (1 - share) * (n + 1)
    weights = numpy.diff(betainc(a, b, numpy.arange(n + 1) / n))
    return float(weights @ ordered)


def judge(records: List[Record], mismatches: Dict[int, str]):
    """Failed records with reasons, and whether any answer was wrong.

    A record fails when it timed out, raised an unexpected error, gave an
    answer the reference rejects, or answered differently from the same
    query in an earlier round.  Timeouts alone leave the run correct."""
    first: Dict[int, object] = {}
    failed: List[tuple] = []
    wrong = False
    for r in records:
        if r.status == "timeout":
            failed.append((r, "exceeded the time limit"))
            continue
        if r.status == "error":
            failed.append((r, r.answer["unexpected"]))
            wrong = True
            continue
        if r.qid in mismatches:
            failed.append((r, mismatches[r.qid]))
            wrong = True
            continue
        if r.answer is not REPEATED and first.setdefault(r.qid, r.answer) != r.answer:
            failed.append((r, "answer differs from an earlier round"))
            wrong = True
    return failed, wrong


def first_answers(records: List[Record]) -> Dict[int, object]:
    out: Dict[int, object] = {}
    for r in records:
        if r.status == "ok" and r.answer is not REPEATED and r.qid not in out:
            out[r.qid] = r.answer
    return out


def query_latencies_ms(records: List[Record], calibrate: bool = True) -> List[float]:
    """One latency per query of the round: the median over the rounds run."""
    by_query: Dict[int, List[float]] = {}
    for r in records:
        by_query.setdefault(r.qid, []).append(r.calibrated_s if calibrate else r.latency_s)
    return [statistics.median(v) * 1000.0 for v in by_query.values()]


def latency_metrics(records: List[Record], failed: int, calibrate: bool = True
                    ) -> Dict[str, float]:
    """Answered queries per second of busy time, and the median and 90th
    percentile over the round's queries."""
    busy_s = sum(r.calibrated_s if calibrate else r.latency_s for r in records)
    latencies_ms = query_latencies_ms(records, calibrate)
    return {
        "queries_per_s": (len(records) - failed) / busy_s,
        "query_p50_ms": percentile(latencies_ms, 0.5),
        "query_p90_ms": percentile(latencies_ms, 0.9),
    }
