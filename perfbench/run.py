"""fgseg benchmark: train, segment and score through the CLI, plus a traced run.

    python3 perfbench/run.py --workload train-64x64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload per process.  With --trace 0 the workload's CLI command runs in
a closed loop for --seconds and the end-to-end metrics are printed; with
--trace 1 the per-layer probes of tracing.py run instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs each workload in its own process and prints a table.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
THREADS = 1          # BLAS threads; one, so a neighbour on the box disturbs less
SETUPS = 5           # set-up repeats per run; setup_s is their median
WORKLOAD_NAMES = ("train-64x64", "segment-320x240", "score-cdtree")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fgseg():
    """Import fgseg from this checkout's src/ with the BLAS pools pinned
    before numpy loads.  Returns the seconds it took."""
    start = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fgseg.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fgseg resolved to {cli.__file__}, not under {src}")
    for var in cli.THREAD_ENV_VARS:
        os.environ.pop(var, None)
    os.environ["FGSEG_THREADS"] = str(THREADS)
    cli.pin_threads()
    import fgseg.data, fgseg.metrics, fgseg.model, fgseg.pyramid, fgseg.training  # noqa: E401,F401
    return perf_counter() - start


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def set_up(workload, work, seed):
    """Set up SETUPS times, keep the first; (ctx, median seconds)."""
    seconds, ctx = [], None
    for k in range(SETUPS):
        root = work / f"setup{k}"
        root.mkdir(parents=True)
        start = perf_counter()
        made = workload.setup(root, seed)
        seconds.append(perf_counter() - start)
        if k == 0:
            ctx = made
        else:
            shutil.rmtree(root)
    return ctx, statistics.median(seconds)


def end_to_end(name, seed, seconds, work, import_s):
    import workloads as wl
    workload = wl.WORKLOADS[name]
    ctx, setup_s = set_up(workload, work, seed)
    rates, attempted, failed = [], 0, 0
    start = perf_counter()
    while not attempted or perf_counter() - start < seconds:
        ops, dt, ok = workload.round(ctx)
        attempted += ops
        if ok:
            rates.append(ops / dt)
        else:
            failed += ops
    rss = peak_rss_mb()
    problems = workload.check(ctx) if rates else ["every round failed"]
    for p in problems:
        print(f"CHECK FAILED: {p}")
    rate = statistics.median(rates) if rates else 0.0
    print(f"{name}: {len(rates)} rounds, {attempted} ops attempted, {failed} failed, "
          f"{rate:.4f} ops/s, set-up {import_s + setup_s:.3f} s, peak RSS {rss:.1f} MB")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {"setup_s": {"value": import_s + setup_s, "unit": "s"},
                        "ops_per_s": {"value": rate, "unit": "op/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def traced(name, seed, seconds, work):
    import tracing
    import workloads as wl
    ctxs = {}
    for workload in wl.WORKLOADS.values():
        root = work / workload.name
        root.mkdir(parents=True)
        ctxs[workload.name] = workload.setup(root, seed)
    ctxs["score-cdtree"]["expected"] = wl.score_expected(ctxs["score-cdtree"])
    env = tracing.environment()
    ceiling = tracing.sgemm_gflops()
    absent = tracing.absent_probes()
    tracer = tracing.Tracer()
    attempted, problems = 0, []
    start = perf_counter()
    while tracer.round == 0 or perf_counter() - start < seconds:
        for probe, fn, _ in tracing.PROBES:
            if probe not in absent:
                ops, found = fn(tracer, ctxs[probe])
                attempted += ops
                problems += found
        tracer.round += 1
    values = tracing.per_layer_metrics(tracer, ceiling)
    roofline = tracing.roofline_rows(tracer, ceiling)
    print(f"environment: {json.dumps(env)}")
    print(f"sgemm ceiling: {ceiling:.1f} GFLOP/s (float32, n={tracing.SGEMM_N})")
    for key, macs, ms, gflops, share, label in roofline:
        print(f"  {key:36s} {macs / 1e6:9.1f} MMAC {ms:9.3f} ms "
              f"{gflops:7.1f} GFLOP/s {share:6.1%} {label}")
    for probe, gone in absent.items():
        print(f"absent probe {probe}: missing {', '.join(gone)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    record = WORK / "traces" / f"{name}-seed{seed}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"environment": env, "sgemm_gflops": ceiling,
                                  "absent": absent, "roofline": roofline,
                                  "metrics": values, "spans": tracer.dump()}))
    print(f"{name} traced: {tracer.round} rounds, spans in {record.relative_to(ROOT)}")
    return {"correct": not problems, "attempted": attempted, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def run_all(args):
    """Each workload in a fresh process; a table, then all results as JSON."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}")
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_s = import_fgseg()
    except ImportError as e:
        print(f"perfbench: cannot import fgseg from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, work)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
