"""One benchmark worker: a fresh interpreter running one part of one round.

Prints "ready <monotonic time>" once set-up (import, input generation,
one-time work) is done, then times each item of its part, checks every
output after the timed phase, and prints one JSON line with the item
latencies (scaled and raw), check verdicts, peak RSS, the calibration
samples and, when traced, the span summary with scaled self times.
run.py starts it; it is not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WRONG = object()  # stands in for an output when a failure is injected

# Timings are scaled to a fixed machine speed.  During the timed phase
# an interval timer runs one fixed pure-Python loop every SAMPLE_EVERY_S
# of wall time, inside items too, and the handler's own time is taken
# out of the item latencies.  Each latency is multiplied by
# REFERENCE_S / (mean loop time of the samples taken during the item or
# within one interval of it); set-up time and traced self times use the
# mean over the whole worker.  The machine this benchmark runs on flips
# between speed states about 2x apart, often several times a second, and
# library code slows with the loop, so the dense samples track it.
# REFERENCE_S is the loop's mean time where the baseline was recorded, so
# scaled values stay close to wall time; raw values are reported as well.
REFERENCE_S = 0.0015
SAMPLE_EVERY_S = 0.1


class Speedometer:
    def __init__(self):
        self.loops = []  # seconds per run of the calibration loop
        self.at = []  # perf_counter time at the end of each run
        self.spent = 0.0  # seconds spent in the timer handler

    def sample(self, *_):
        t0 = time.perf_counter()
        acc, counts = 0, {}
        for i in range(2000):
            acc += (i * i) & 0xFF ^ (i >> 3)
            counts[i & 63] = counts.get(i & 63, 0) + 1
            acc += len([j for j in range(i & 7)])
        t1 = time.perf_counter()
        self.loops.append(t1 - t0)
        self.at.append(t1)
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start=None, end=None):
        """Scale factor from the samples taken within one interval of [start, end]."""
        if start is not None:
            near = [loop for loop, at in zip(self.loops, self.at)
                    if start - SAMPLE_EVERY_S <= at <= end + SAMPLE_EVERY_S]
            if near:
                return REFERENCE_S / statistics.fmean(near)
        return REFERENCE_S / statistics.fmean(self.loops)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-fail", action="store_true")
    args = ap.parse_args()

    import doubleposets

    src = (ROOT / "src").resolve()
    if src not in Path(doubleposets.__file__).resolve().parents:
        sys.exit(f"doubleposets imported from {doubleposets.__file__}, not from {src}")
    import workloads

    rng = random.Random(f"{args.workload}:{args.seed}:{args.round}")
    sizes = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    parts = workloads.WORKLOADS[args.workload](sizes, rng)
    print("ready", time.monotonic(), flush=True)
    if args.setup_only:
        speed = Speedometer()
        for _ in range(32):
            speed.sample()
        print(json.dumps({"scale": speed.scale()}))
        return
    items = parts[args.part]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    speed = Speedometer()
    speed.sample()
    speed.start()
    outputs = []
    for item in items:
        spent, t0 = speed.spent, time.perf_counter()
        try:
            out, err = item.run(), None
        except Exception as exc:  # an untyped failure counts against the item
            out, err = None, exc
        t1 = time.perf_counter()
        outputs.append((t1 - t0 - (speed.spent - spent), (t0, t1), out, err))
    speed.stop()
    if tracer:
        tracer.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = speed.scale()

    if args.inject_fail and args.round == 0 and args.part == 0:
        outputs[0] = outputs[0][:2] + (WRONG, None)
    rows, failures = [], []
    for item, (latency, span, out, err) in zip(items, outputs):
        ok = False
        if err is None:
            try:
                ok = bool(item.check(out))
            except Exception as exc:
                err = exc
        rows.append([item.kind, latency * speed.scale(*span), latency, ok])
        if not ok and len(failures) < 5:
            failures.append(f"{item.kind}: {'wrong answer' if err is None else repr(err)}")

    report = {"last_part": args.part == len(parts) - 1, "items": rows, "failures": failures,
              "rss_mb": rss_mb, "calibration_s": speed.loops, "scale": scale}
    if tracer:
        report["layers"] = {name: {"calls": row["calls"], "self_s": row["self_s"] * scale}
                            for name, row in tracer.summary().items()}
        report["counters"] = tracer.counters
        report["spans"] = len(tracer.start)
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}-part{args.part}.spans")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
