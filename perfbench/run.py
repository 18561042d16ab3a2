#!/usr/bin/env python3
"""The engelkit benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 30 --trace 0

Each workload item is one engelkit command run in-process through
``engelkit.cli.run([..., "--format", "json"])`` (the bundle workload calls
``engel.tautological_forms``, which has no command).  Whole rounds of items
run until ``--seconds`` have passed; afterwards every result is checked
against an independent computation (``checks.py``); translated markings
are compared with their originals in the first round.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters, started before and after the timed loop, of the time to import
``engelkit.cli`` and generate the first round), ``items_per_s`` (items per
second over the warm rounds, every round but the first), ``item_p50_s`` (the
median over a round's items of each item's mean time in the warm rounds) and
``peak_rss_mb``.  ``--trace 1``
runs the same loop with every layer wrapped (``layertrace.py``) and prints the
per-layer metrics as per-item means.  The last line of standard output is
one JSON object; results and span files go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# Fresh interpreters timed for setup_s, half before and half after the loop,
# so that they sample the machine's speed at two moments of the run.
SETUP_PROBES = 4
# String hashing orders sympy's internal sets and dicts, so the hash seed
# alone moved invariants items_per_s by 10% between runs; it is fixed.
HASH_SEED = "0"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, make_round  # noqa: E402


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def import_engelkit():
    """Import engelkit from this checkout's sources, and from nowhere else."""
    if not (SRC / "engelkit" / "cli.py").is_file():
        raise SystemExit(f"error: no engelkit sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import engelkit.cli

    return engelkit


def setup_probe(args) -> None:
    import_engelkit()
    make_round(args.workload, args.seed, 0)
    print("ready", flush=True)


def time_setup(args, probes: int) -> list[float]:
    """Times from starting a fresh interpreter to its first round being ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - started)
            probe.communicate()
        if line.strip() != "ready" or probe.returncode != 0:
            raise SystemExit(f"error: setup probe failed (exit {probe.returncode})")
    return times


def run_item(engelkit, item) -> dict:
    """Run one item and return its parsed result."""
    if item.kind == "tautological":
        rep = engelkit.engel.tautological_forms(engelkit.symexpr.parse(item.marking))
        return {name: value for name, value in vars(rep).items() if isinstance(value, bool)}
    code, report = engelkit.cli.run(item.argv + ["--format", "json"])
    return {"code": code, "report": json.loads(report.to_json())}


def timed_loop(engelkit, args, tracer=None):
    """Whole rounds until the time is up.

    Returns the rounds as (items, outcomes, item seconds, round seconds)
    and the number of failed items.
    """
    rounds, failed = [], 0
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < args.seconds:
        round_start = time.perf_counter()
        items = make_round(args.workload, args.seed, len(rounds))
        outcomes, seconds = [], []
        for item in items:
            started = time.perf_counter()
            if tracer is not None:
                tracer.begin_item()
            try:
                outcome = run_item(engelkit, item)
                if "code" in outcome and outcome["code"] != 0:
                    raise RuntimeError(f"exit {outcome['code']}: {outcome['report']}")
            except Exception:  # a failed operation is counted, and the run goes on
                print(f"item failed: {item.argv or item.marking}", file=sys.stderr)
                traceback.print_exc()
                outcome = None
                failed += 1
            finally:
                if tracer is not None:
                    tracer.end_item()
            seconds.append(time.perf_counter() - started)
            outcomes.append(outcome)
        rounds.append((items, outcomes, seconds, time.perf_counter() - round_start))
    return rounds, failed


def warm_metrics(rounds) -> tuple[float, float]:
    """``items_per_s`` and ``item_p50_s`` over the warm rounds.

    The first round fills engelkit's and sympy's caches, so it is left out
    when the run holds more than one.  The machine's speed drifts over tens
    of seconds, so the throughput is taken over the whole of the warm rounds
    and each item's time is its mean over them; medians of single rounds
    follow the drift more closely and spread more from run to run.
    """
    warm = rounds[1:] or rounds
    items_per_s = sum(len(items) for items, *_ in warm) / sum(r[3] for r in warm)
    per_item = [statistics.fmean(times) for times in zip(*(r[2] for r in warm))]
    return items_per_s, statistics.median(per_item)


def check_all(rounds) -> bool:
    import sympy
    from checks import CheckError, check_round

    correct = True
    for round_no, (items, outcomes, _, _) in enumerate(rounds):
        try:
            check_round(items, outcomes, translations=round_no == 0)
        except (CheckError, KeyError, TypeError, ValueError, sympy.SympifyError) as exc:
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            correct = False
    return correct


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if args.setup_probe:
        setup_probe(args)
        return 0
    engelkit = import_engelkit()
    setup_times = time_setup(args, SETUP_PROBES // 2) if args.trace == 0 else []
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rounds, failed = timed_loop(engelkit, args, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    items_per_s, item_p50_s = warm_metrics(rounds)
    if args.trace == 0:
        setup_times += time_setup(args, SETUP_PROBES - len(setup_times))
    correct = check_all(rounds)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "item_p50_s": {"value": item_p50_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(items_per_s)
        tracer.write(RESULTS / f"{stem}-spans.csv")
        if tracer.worst_gap > 1e-6:
            print(f"error: self times miss an item's time by {tracer.worst_gap} s",
                  file=sys.stderr)
            correct = False
    attempted = sum(len(items) for items, *_ in rounds)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {**result, "rounds": [
        {"seconds": round_s, "items": [[item.argv or item.marking, t]
                                       for item, t in zip(items, seconds)]}
        for items, _, seconds, round_s in rounds]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
