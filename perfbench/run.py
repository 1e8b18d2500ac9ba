"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload gram --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each round of the workload runs in
fresh worker interpreters (perfbench/worker.py), so no library cache
carries over between rounds and nothing of the library is imported
here.  --trace 0 repeats rounds until the timed items add up to
--seconds and reports the end-to-end metrics; --trace 1 runs round 0
once untraced and once traced and reports the per-layer metrics and
the tracing overhead.  Metric names and units come from BENCHMARK.json.
The last line of output is one JSON object; the full record (run
environment, raw samples) goes to perfbench/results/.  Exit status is
0 when every checked answer was right, 1 when one was wrong, 2 on
unusable arguments or a checkout without the library sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gram", "enumerate", "algebra", "oneshot")
MIN_SETUPS = 5
# No new round starts once it would end past this many seconds of wall time.
WALL_BUDGET = 150.0
DEADLINE = 170.0


class BenchError(Exception):
    pass


def spawn(opts, deadline):
    """Run one worker; (raw set-up seconds from launch to ready, its report)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *opts]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(opts)}")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(opts)} exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if not ready:
        raise BenchError(f"worker {' '.join(opts)} never finished set-up")
    setup = float(ready[0].split()[1]) - t0
    return setup, json.loads(lines[-1])


def run_round(base, rnd, trace, deadline):
    """Set-up samples as (scaled, raw) seconds, and the workers' reports."""
    setups, reports = [], []
    part = 0
    while True:
        opts = base + ["--round", str(rnd), "--part", str(part), "--trace", str(trace)]
        setup, report = spawn(opts, deadline)
        setups.append((setup * report["scale"], setup))
        reports.append(report)
        if report["last_part"]:
            return setups, reports
        part += 1


def items_of(reports):
    """Item rows [kind, scaled latency, raw latency, ok] of all reports."""
    return [row for rep in reports for row in rep["items"]]


def throughput(rows, col=1):
    return len(rows) / sum(row[col] for row in rows)


def end_to_end(setups, rows, reports, raw=False):
    """End-to-end metrics from the scaled (or raw) set-up samples and latencies."""
    col = 2 if raw else 1
    lat = sorted(row[col] for row in rows)
    beyond = min(10, len(lat) - 1)
    metrics = {
        "setup_s": statistics.median(s[col - 1] for s in setups),
        "items_per_s": throughput(rows, col),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": lat[len(lat) - 1 - beyond] * 1e3,
        "peak_rss_mb": max(rep["rss_mb"] for rep in reports),
    }
    return metrics, beyond


def timed_run(args, base, deadline):
    # Whole rounds only: stop at the round count whose timed total comes
    # nearest to --seconds, or when another round would overrun the wall budget.
    start = time.monotonic()
    setups, reports, rnd, busy = [], [], 0, 0.0
    while True:
        t = time.monotonic()
        s, reps = run_round(base, rnd, 0, deadline)
        setups += s
        reports += reps
        rnd += 1
        round_busy = sum(row[2] for row in items_of(reps))
        busy += round_busy
        now = time.monotonic()
        if busy + round_busy / 2 > args.seconds or now - start + (now - t) > WALL_BUDGET:
            break
    while len(setups) < MIN_SETUPS:
        setup, report = spawn(base + ["--round", "0", "--setup-only"], deadline)
        setups.append((setup * report["scale"], setup))

    rows = items_of(reports)
    metrics, beyond = end_to_end(setups, rows, reports)
    samples = {
        "rounds": rnd,
        "raw_metrics": end_to_end(setups, rows, reports, raw=True)[0],
        "setup_s": setups,
        "items": rows,
        "calibration_s": [rep["calibration_s"] for rep in reports],
        "percentiles": {
            "p50": {"samples": len(rows)},
            "tail": {"percentile": 100.0 * (len(rows) - beyond) / len(rows),
                     "samples": len(rows), "samples_beyond": beyond},
        },
    }
    return metrics, reports, samples


def traced_run(args, base, deadline):
    plain_setups, plain = run_round(base, 0, 0, deadline)
    traced_setups, traced = run_round(base, 0, 1, deadline)
    layers, counters = {}, {}
    for rep in traced:
        for name, row in rep["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
        for name, value in rep["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(prefix):
        return sum(row["self_s"] for name, row in layers.items() if name.startswith(prefix))

    metrics = {}
    for mod, funcs in TARGETS.items():
        metrics[f"layer.{mod}.self_s"] = self_s(mod + ".")
        for func in funcs:
            name = f"{mod}.{func}"
            metrics[name + ".calls"] = calls(name)
            metrics[name + ".self_s"] = layers.get(name, {}).get("self_s", 0.0)
    metrics["textio.parse.self_s"] = self_s("textio.parse_")
    metrics["textio.format.self_s"] = self_s("textio.format_") + self_s("textio.to_")
    for name in ("enumeration.classes", "hopf.coproduct.terms", "twoas.star.extensions",
                 "cli.main.exit2", "core.canonical_form.hits", "pairing.pictures_count.zeros"):
        metrics[name] = counters.get(name, 0)
    for name, numerator in (("core.canonical_form.hit_frac", "core.canonical_form.hits"),
                            ("pairing.pictures_count.zero_frac", "pairing.pictures_count.zeros")):
        base_calls = calls(name.rsplit(".", 1)[0])
        metrics[name] = metrics[numerator] / base_calls if base_calls else 0.0
    plain_ips, traced_ips = throughput(items_of(plain)), throughput(items_of(traced))
    metrics["trace.untraced_items_per_s"] = plain_ips
    metrics["trace.items_per_s"] = traced_ips
    metrics["trace.overhead_frac"] = plain_ips / traced_ips - 1.0
    metrics["trace.spans"] = sum(rep["spans"] for rep in traced)
    top = sorted(((v, k) for k, v in metrics.items() if k.startswith("layer.")), reverse=True)[:3]
    samples = {
        "setup_s": plain_setups + traced_setups,
        "raw_items_per_s": {"untraced": throughput(items_of(plain), 2),
                            "traced": throughput(items_of(traced), 2)},
        "untraced_items": items_of(plain),
        "traced_items": items_of(traced),
        "layers": layers,
        "counters": counters,
        "top_layers_by_self_s": [[k.split(".")[1], v] for v, k in top],
    }
    return metrics, plain + traced, samples


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "doubleposets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu or platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    ap.add_argument("--inject-fail", action="store_true",
                    help="replace one output with a wrong answer before it is checked")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "doubleposets" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--smoke"] * args.smoke + ["--inject-fail"] * args.inject_fail
    try:
        run = traced_run if args.trace else timed_run
        metrics, reports, samples = run(args, base, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = items_of(reports)
    attempted = len(rows)
    failed = sum(1 for row in rows if not row[3])
    metrics["fail_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "environment": environment(args),
        "result": result,
        "all_metrics": metrics,
        "failures": [f for rep in reports for f in rep["failures"]],
        "samples": samples,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} items, {failed} failed; record in {out_path.relative_to(ROOT)}")
    for failure in record["failures"][:5]:
        print(f"  FAIL {failure}")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value['value']:.6g} {value['unit']}")
    if "fail_frac" not in result["metrics"]:
        print(f"  {'fail_frac':40s} {metrics['fail_frac']:.6g} 1")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
