"""Timing and checking of single operations, and a fresh import of fintopo."""

import importlib
import statistics
import sys
import tempfile
import time
from array import array

MODULES = ('setops', 'topology', 'closure', 'neighborhoods', 'filters', 'convergence',
           'continuity', 'generated', 'order', 'metric', 'numeric', 'jsonio', 'verify', 'cli')


# Median time of calibration_kernel on the reference host (README.md).
CAL_REF_NS = 350000
CAL_INTERVAL_NS = 20_000_000
CAL_TABLE = [(a * 37 + 11) % 64 for a in range(64)]


def calibration_kernel():
    """Fixed pure-Python work of the two kinds fintopo's time goes to,
    independent of fintopo: building a small set from bit masks, and a
    double loop of table look-ups like an axiom check.  About 0.35 ms."""
    acc = 0
    seen = set()
    for a in range(512):
        b = (a ^ a >> 1) | 0x55
        if a & ~b == 0:
            acc += 1
        seen.add(b & 0xf0)
    table = CAL_TABLE
    for a in range(64):
        ta = table[a]
        for b in range(0, 64, 2):
            if table[a | b] != ta | table[b]:
                acc += 1
    return acc + len(seen)


def calibration_ns():
    """One timed run of calibration_kernel, after an untimed one, so that
    what the workload left in the caches does not count."""
    calibration_kernel()
    t0 = time.perf_counter_ns()
    calibration_kernel()
    return time.perf_counter_ns() - t0


class Library:
    """The fintopo modules, imported afresh.  Workloads call through these
    module attributes, so a traced run sees the shims."""

    def __init__(self):
        for name in [k for k in sys.modules if k == 'fintopo' or k.startswith('fintopo.')]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module('fintopo.' + name))


class Ops:
    """Times each operation and checks its result afterwards.

    A check is a function (result, context) -> bool.  It runs in settle,
    which a workload calls between groups of operations, outside the
    timed calls.  An operation that raises, or whose check fails, is a
    failed operation.  A failure of an operation marked known_fault is
    the expected symptom of a documented defect; any other failure makes
    the run incorrect.

    A workload's rounds repeat the same operations in the same order, so
    the k-th operation of every round is the same call.  end_round marks
    the end of a round; typical_latencies_ns gives, for each position in
    the round, the median of its latencies over all rounds.  A slow spell
    of the host that hits a minority of the rounds then does not move it.

    Between operations, at most every CAL_INTERVAL_NS, the host's speed
    is sampled by timing calibration_kernel.  Each round's latencies are
    scaled by CAL_REF_NS over the median sample of that round, so they
    read as on the reference host (see README.md) and slower or faster
    spells of a shared host cancel out.

    Latencies are spilled to an unlinked file in workdir, so that the
    benchmark's own memory does not grow with the number of rounds and
    peak RSS stays the library's.
    """

    SPILL_AT = 1 << 16

    def __init__(self, workdir):
        self._latencies = array('q')
        self._spill = tempfile.TemporaryFile(dir=workdir)
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self._pending = []
        self._recorded = 0
        self._samples = []
        self._sampled_at = 0
        self.round_speed = []
        self.round_ops = None
        self.rounds = 0

    def call(self, check, ctx, fn, *args, known_fault=False):
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising operation is recorded as failed
            out = exc
        t1 = time.perf_counter_ns()
        self._latencies.append(t1 - t0)
        self._recorded += 1
        if t1 - self._sampled_at > CAL_INTERVAL_NS:
            self._samples.append(calibration_ns())
            self._sampled_at = time.perf_counter_ns()
        self._pending.append((check, ctx, out, known_fault, fn, args))
        return out

    def settle(self):
        """Run the pending checks."""
        for check, ctx, out, known_fault, fn, args in self._pending:
            self.attempted += 1
            if not isinstance(out, Exception) and check(out, ctx):
                continue
            self.failed += 1
            if not known_fault:
                self.wrong.append('%s%s -> %s' % (fn.__name__, repr(args)[:200], repr(out)[:200]))
        self._pending.clear()
        if len(self._latencies) >= self.SPILL_AT:
            self._latencies.tofile(self._spill)
            del self._latencies[:]

    def end_round(self):
        """Marks the end of a round, which must hold as many operations as
        every round before it."""
        n = self._recorded - (self.round_ops or 0) * self.rounds
        if self.round_ops is None:
            self.round_ops = n
        elif n != self.round_ops:
            raise RuntimeError('round %d ran %d operations, not %d' % (self.rounds, n, self.round_ops))
        self._samples.append(calibration_ns())
        self.round_speed.append(CAL_REF_NS / statistics.median(self._samples))
        self._samples.clear()
        self.rounds += 1

    def typical_latencies_ns(self):
        """For each position in a round, the median over the rounds of its
        latency, as two lists: scaled to the reference host, and as
        measured.  Closes the spill file."""
        self._latencies.tofile(self._spill)
        self._spill.seek(0)
        out = array('q', self._spill.read())
        self._spill.close()
        p = self.round_ops
        raw = [out[r * p:(r + 1) * p] for r in range(self.rounds)]
        scaled = [[v * speed for v in row] for row, speed in zip(raw, self.round_speed)]
        return ([statistics.median(column) for column in zip(*scaled)],
                [statistics.median(column) for column in zip(*raw)])

    def expect(self, ok, what):
        """A check spanning many operations, such as a class count."""
        if not ok:
            self.wrong.append(what)
