"""Benchmark of knaster: four workloads, end-to-end metrics, and a traced run.

Run from the root of a source checkout (knaster is imported from ./src):

    python3 bench/run.py --workload lift-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload certify --seed 1 --trace 1   # per-layer metrics
    python3 bench/run.py --seed 1          # every workload, each in its own process
    python3 bench/run.py --smoke           # self-test, then every workload at a tiny size

One run sets up (import knaster, make the seeded inputs, warm the caches)
in SETUP_SAMPLES batches of at least SETUP_BATCH_S seconds each and reports
the median time of one set-up over the batches as `setup_s`. It then runs
whole rounds of the workload's operations until `--seconds` have passed.
Outputs of the first round go through the independent checks; later rounds
must reproduce them. `ops_per_s` and `op_p50_ms` count only the time spent
inside knaster: `ops_per_s` over every completed operation of every round,
`op_p50_ms` as the median over the round's operations of each one's mean
latency across the rounds. With `--trace 1` the same loop runs with spans
around knaster's layers and the run reports per-layer metrics per completed
operation instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Results and traces are also
written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import selftest
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_BATCH_S = 0.5
MODULES = ("knaster", "knaster.cli", "knaster.serialize", "knaster.svg")

clock = time.perf_counter


def import_knaster():
    """A fresh import of knaster from this checkout's src/ (never an installed copy)."""
    for key in [k for k in sys.modules if k == "knaster" or k.startswith("knaster.")]:
        del sys.modules[key]
    for name in MODULES:
        importlib.import_module(name)
    K = sys.modules["knaster"]
    if Path(K.__file__).resolve().parent != SRC / "knaster":
        raise ImportError(f"knaster imported from {K.__file__}, not from {SRC}")
    return K


def digest(out) -> bytes:
    """Fingerprint of an operation's outputs; keeping it instead of the outputs
    keeps the benchmark's own memory out of `peak_rss_mib`."""
    return hashlib.sha256(repr(out).encode()).digest()


def have_sources() -> bool:
    if (SRC / "knaster" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        return True
    print(f"error: no knaster sources under {SRC}", file=sys.stderr)
    return False


def setup(workload: str, seed: int, tiny: bool):
    """Import, make inputs, warm up; return (K, items, seconds)."""
    make_inputs = workloads.WORKLOADS[workload][0]
    t0 = clock()
    K = import_knaster()
    items = make_inputs(K, random.Random(f"{workload}/{seed}"), tiny)
    return K, items, clock() - t0


def setup_sample(workload: str, seed: int):
    """Set up again and again for at least SETUP_BATCH_S; return the mean
    seconds of one set-up. One set-up lasts 30-250 ms, short enough to fall
    wholly in a slow or a fast spell of a shared host; a batch spans
    several, so the median over batches moves less between runs."""
    count, total = 0, 0.0
    while total < SETUP_BATCH_S:
        gc.collect()
        total += setup(workload, seed, False)[2]
        count += 1
    return total / count


def run_rounds(K, workload: str, items, seconds: float, tmp: Path, tracer=None):
    """Whole rounds of the operations until `seconds` have passed.

    Returns the latencies of the completed operations per item, the reasons
    of wrong outputs, and the counts of failed and attempted operations."""
    _, op, check = workloads.WORKLOADS[workload]
    latencies = [[] for _ in items]
    first = [None] * len(items)  # per item, a digest of the output that passed the checks
    wrong, failed, attempted = [], 0, 0
    gc.collect()
    start = clock()
    while True:
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            try:
                dt, out = op(K, item, str(tmp))
            except Exception:
                failed += 1
                if failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            latencies[idx].append(dt)
            if tracer is not None:
                tracer.op = -1  # the checks' own calls into knaster are no operation's
            if first[idx] is not None:
                if digest(out) != first[idx]:
                    wrong.append(f"item {idx}: output differs from its checked first output")
            else:
                try:
                    why = check(K, item, out)
                except Exception as exc:
                    why = f"check raised {exc!r}"
                if why:
                    wrong.append(why)
                else:
                    first[idx] = digest(out)
            out = None  # so that two large outputs are never alive at once
        if clock() - start >= seconds:
            return latencies, wrong, failed, attempted


def run_workload(args) -> int:
    if not have_sources():
        return 2
    setups = [] if args.trace else [setup_sample(args.workload, args.seed)
                                    for _ in range(SETUP_SAMPLES)]
    gc.collect()
    K, items, _ = setup(args.workload, args.seed, False)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                latencies, wrong, failed, attempted = run_rounds(
                    K, args.workload, items, args.seconds, tmp, tracer)
            finally:
                tracer.uninstall()
        else:
            latencies, wrong, failed, attempted = run_rounds(
                K, args.workload, items, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for why in wrong[:5]:
        print(f"WRONG: {why}", file=sys.stderr)
    completed = sum(map(len, latencies))
    busy = sum(map(sum, latencies))
    ops_per_s = completed / busy if completed else 0.0
    per_op = [statistics.fmean(lat) for lat in latencies if lat]
    if tracer is not None:
        metrics = tracer.layer_metrics(max(completed, 1))
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(per_op) * 1000 if per_op else 0.0,
                          "unit": "ms"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "completed": completed,
              "rounds": attempted // len(items), "ops_per_s": ops_per_s,
              "setup_samples_s": setups, "wrong": wrong[:20]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "size"],
                       "spans": tracer.spans}, fh)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {attempted} failed {failed}"
          + (f" (traced ops_per_s {ops_per_s:.6g})" if tracer is not None else ""))
    print(json.dumps(result))
    return 0 if not wrong else 1


def run_all(args) -> int:
    """Every workload, one after another, each in a process of its own."""
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
    return code


def smoke() -> int:
    """The self-test, then one round of every workload at a tiny size, all checks on."""
    if not have_sources():
        return 2
    code = selftest.main(import_knaster())
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            K, items, dt = setup(name, 0, True)
            latencies, wrong, failed, attempted = run_rounds(K, name, items, 0, tmp)
            ok = not wrong and not failed
            print(f"smoke {name}: {attempted} ops, {failed} failed, {len(wrong)} wrong"
                  f" -> {'ok' if ok else 'FAIL'}")
            for why in wrong[:5]:
                print(f"  {why}")
            code = code or (0 if ok else 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test, then every workload at a tiny size")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
