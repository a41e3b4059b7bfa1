#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run, from the repository root:

    python3 perfbench/run.py --workload xmark-maintain --seed 1 --seconds 30 --trace 0

builds `perfbench/` (release, offline) into $CARGO_TARGET_DIR, or
`.bench_build/` when that is unset, runs one workload and passes its output
through; the last stdout line is the JSON result.

Spread mode runs a workload once per seed and reports every metric's
median and quartiles with the environment they were measured on:

    python3 perfbench/run.py --workload xmark-serve --seconds 30 --seed 1 --spread 10 --out spread.json
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("xmark-maintain", "xmark-serve", "corpus-analyze")
# The seed claims are made on, and a second one held out for confirming them.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if not configured:
        return ROOT / ".bench_build"
    path = pathlib.Path(configured)
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds the benchmark binary and returns its path."""
    if not (ROOT / "crates").is_dir() or not MANIFEST.is_file():
        fail(f"{ROOT} is not a checkout of the repository (no crates/ to build)")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(MANIFEST)]
    try:
        built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")
    binary = target / "release" / "qui-perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, capture):
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, QUI_BENCH_COMMIT=commit())
    if not capture:
        return subprocess.run(command, cwd=ROOT, env=env).returncode
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        fail(f"{workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(binary, args):
    """Runs seeds seed..seed+n-1 and summarizes every metric."""
    seeds = list(range(args.seed, args.seed + args.spread))
    results = []
    for seed in seeds:
        result = run_once(binary, args.workload, seed, args.seconds, args.trace, True)
        print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr)
        results.append(result)
    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(results),
        "seeds": seeds,
        "available_parallelism": os.cpu_count(),
        "commit": commit(),
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary["metrics"][name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    for name, m in summary["metrics"].items():
        print(f"  {name:<34} median {m['median']:>14.4f} {m['unit']:<8} "
              f"q1 {m['q1']:>12.4f} q3 {m['q3']:>12.4f} iqr/median {m['iqr_share']:.4f}")
    text = json.dumps(summary, indent=2)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if summary["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for confirming claims)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="run this many consecutive seeds and summarize")
    parser.add_argument("--out", help="spread mode: also write the summary here")
    args = parser.parse_args()
    binary = build()
    if args.spread > 0:
        return spread(binary, args)
    return run_once(binary, args.workload, args.seed, args.seconds, args.trace, False)


if __name__ == "__main__":
    sys.exit(main())
