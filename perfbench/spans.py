"""Spans and resident-set watching for the benchmark's traced runs.

A span records one public call into fraudkit, timed from outside the
package: its name, start, end, parent span and the run id that every
span of one run shares. Spans stay in memory and are written once, when
the run ends. Untraced passes use `NULL_TRACER`, whose spans cost one
no-op context manager each.
"""

import contextlib
import os
import resource
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
_MB = 2**20


def current_rss():
    """Resident set of this process in bytes (0 where /proc is missing)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except OSError:
        return 0


def peak_rss():
    """Peak resident set of this process in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def cpu_seconds():
    """User + system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class RssWatch:
    """Highest resident set during a block, minus the resident set before it.

    A polling thread samples the current resident set, so a larger peak
    earlier in the process cannot mask the block; when the process peak
    itself rises during the block, that exact figure is used as well.
    """

    interval = 0.002

    def __enter__(self):
        self.base = current_rss()
        self.peak = self.base
        self._maxrss_before = peak_rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def _poll(self):
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, current_rss())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, current_rss())
        maxrss_after = peak_rss()
        if maxrss_after > self._maxrss_before:
            self.peak = max(self.peak, maxrss_after)
        self.rise_mb = (self.peak - self.base) / _MB
        return False


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, rss=False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        watch = RssWatch() if rss else contextlib.nullcontext()
        try:
            with watch:
                yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if rss:
                rec["rss_mb"] = watch.rise_mb

    def self_times(self):
        """Span duration minus the part of it its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def total(self, name):
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def rss(self, name):
        """Largest resident-set rise of the spans with this name."""
        return max(s["rss_mb"] for s in self.spans if s["name"] == name)

    def table(self):
        """Per span name: calls, total and self seconds, in first-seen order."""
        rows = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = rows.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += self_s
        return rows


def _seconds_per_call(fn, calls=200):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def tracing_cost(spans):
    """Estimated seconds that tracing added to the given spans.

    Each span costs what an empty span of its kind costs, measured here;
    a resident-set span also pays one /proc read per polling interval of
    its duration, which its polling thread takes from the traced call.
    An estimate built from measured unit costs is never negative, where
    a traced minus an untraced pass would mostly measure machine noise.
    """
    probe = Tracer("calibration")

    def empty(rss):
        with probe.span("empty", rss=rss):
            pass

    plain = _seconds_per_call(lambda: empty(False))
    watched = _seconds_per_call(lambda: empty(True))
    poll_share = _seconds_per_call(current_rss) / RssWatch.interval
    cost = 0.0
    for s in spans:
        if "rss_mb" in s:
            cost += watched + poll_share * (s["end"] - s["start"])
        else:
            cost += plain
    return cost


class _NullTracer:
    def span(self, name, rss=False):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()
