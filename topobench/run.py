"""Benchmark of fintopo: one workload per process.

    python3 topobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fintopo is imported from src/.  Set-up
(a fresh import of fintopo plus building the seeded inputs) is repeated
SETUPS times and its median reported.  Then whole rounds of the workload
run, at least MIN_ROUNDS and no more than fit in --seconds of wall time
(checks included) at the median round length so far.  Latencies are
scaled to the reference host by a calibration loop timed between
operations (harness.Ops), and each latency metric is taken over each
operation's median across the rounds, so that neither a slower host nor
a slow spell in a minority of rounds moves it.  With --trace 1 one round
runs under the per-layer tracing shims instead, so that the counts
repeat exactly, and the per-layer metrics are printed.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

from harness import CAL_REF_NS, Library, Ops, calibration_ns
from tracing import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')

SETUPS = 15
MIN_ROUNDS = 3
END_TO_END = {'setup_s': 's', 'ops_per_s': 'ops/s', 'op_p50_ms': 'ms', 'op_p99_ms': 'ms',
              'peak_rss_mib': 'MiB'}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timings(setup_s, lat):
    """The timing metrics from the set-up time and the ascending typical
    latencies of one round's operations, in ns."""
    return {'setup_s': setup_s,
            'ops_per_s': len(lat) / (sum(lat) / 1e9),
            'op_p50_ms': percentile(lat, 0.50) / 1e6,
            'op_p99_ms': percentile(lat, 0.99) / 1e6}


def run(workload, seed, seconds, trace, workdir):
    setup_s = []
    setup_speed = []
    for _ in range(SETUPS):
        wl = None  # free the previous set-up's inputs outside the timing
        gc.collect()
        setup_speed.append(CAL_REF_NS / statistics.median(calibration_ns() for _ in range(3)))
        t0 = time.perf_counter()
        wl = workload(Library(), seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    gc.collect()

    ops = Ops(workdir)
    tracer = Tracer() if trace else None
    round_s = []
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wl.run_round(ops)
            ops.settle()
            ops.end_round()
            now = time.perf_counter()
            round_s.append(now - t0)
            if tracer or (ops.rounds >= MIN_ROUNDS
                          and now - start + statistics.median(round_s) > seconds):
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print('%s seed %d: %d rounds of %d ops, %.3f s, %d failed'
          % (wl.__class__.__name__, seed, ops.rounds, ops.round_ops, sum(round_s), ops.failed),
          file=sys.stderr)
    for line in ops.wrong[:10]:
        print('wrong: ' + line, file=sys.stderr)

    if tracer:
        metrics = tracer.metrics()
    else:
        scaled, raw = ops.typical_latencies_ns()
        values = timings(statistics.median(s * v for s, v in zip(setup_s, setup_speed)),
                         sorted(scaled))
        values['peak_rss_mib'] = peak_rss_mib
        metrics = {k: {'value': values[k], 'unit': unit} for k, unit in END_TO_END.items()}
        print('as measured, with the calibration at %.2f of its reference time in set-up and'
              ' %.2f in the rounds: %s'
              % (1 / statistics.median(setup_speed), 1 / statistics.median(ops.round_speed),
                 json.dumps(timings(statistics.median(setup_s), sorted(raw)))), file=sys.stderr)
    return {'correct': not ops.wrong, 'attempted': ops.attempted, 'failed': ops.failed,
            'metrics': metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True, choices=list(WORKLOADS))
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--seconds', type=float, default=15)
    ap.add_argument('--trace', type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, 'fintopo', '__init__.py')):
        print('topobench: no fintopo sources at %s' % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the workdir is removed
    workdir = tempfile.mkdtemp(prefix='.topobench-', dir=ROOT)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
