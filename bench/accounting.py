"""Op accounting shared by the workloads: timing, failures, percentiles."""

import math
import time


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


class OpLog:
    """Counts attempted and failed ops and keeps the latency of each op that
    succeeded.  ``timed_s`` is the timed part of the run: every op, failed
    or not, plus program work outside ops that ``timed`` wraps.  The
    benchmark's own checks run outside both."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.timed_s = 0.0

    def op(self, label, func, *args, accept=None):
        """Run one op.  It fails when it raises, or when ``accept`` rejects
        its result; returns (ok, result or exception)."""
        self.attempted += 1
        start = self.clock()
        try:
            result = func(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.timed_s += self.clock() - start
            self._fail(label)
            return False, exc
        elapsed = self.clock() - start
        self.timed_s += elapsed
        if accept is not None and not accept(result):
            self._fail(label)
            return False, result
        self.latencies.append(elapsed)
        return True, result

    def op_stream(self, label, items, func):
        """One op per item of an iterator: drawing the item plus func(item).
        Yields (item, result) for each op that succeeded; the caller's work
        between items is not timed.  The draw that ends the iterator is
        timed but is no op; an iterator that raises ends the stream with
        one failed op."""
        items = iter(items)
        while True:
            start = self.clock()
            try:
                item = next(items)
            except StopIteration:
                self.timed_s += self.clock() - start
                return
            except Exception:  # the stream cannot resume after raising
                self.attempted += 1
                self.timed_s += self.clock() - start
                self._fail(label)
                return
            self.attempted += 1
            try:
                result = func(item)
            except Exception:  # one bad item fails one op
                self.timed_s += self.clock() - start
                self._fail(label)
                continue
            elapsed = self.clock() - start
            self.timed_s += elapsed
            self.latencies.append(elapsed)
            yield item, result

    def timed(self, func, *args):
        """Program work that belongs to the timed part but is not an op."""
        start = self.clock()
        try:
            return func(*args)
        finally:
            self.timed_s += self.clock() - start

    def _fail(self, label):
        self.failed += 1
        self.failures[label] = self.failures.get(label, 0) + 1

    def metrics(self):
        done = self.attempted - self.failed
        return {
            "ops_per_s": done / self.timed_s if self.timed_s > 0 else 0.0,
            "op_p50_ms": percentile(self.latencies, 50) * 1000 if self.latencies else 0.0,
            "op_p90_ms": percentile(self.latencies, 90) * 1000 if self.latencies else 0.0,
        }


class CheckLog:
    """Output checks of a run; any failed check makes the run incorrect.
    The first ``MESSAGES`` failures keep their message."""

    MESSAGES = 20

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.errors = []

    @property
    def ok(self):
        return self.failed == 0

    def expect(self, condition, message):
        """Record one check."""
        self.checked += 1
        if not condition:
            self.failed += 1
            if len(self.errors) < self.MESSAGES:
                self.errors.append(message)
        return condition
