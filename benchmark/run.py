#!/usr/bin/env python3
"""Build the abwe benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (benchmark/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build), sets
ABW_JOBS to the number of usable cores, runs the binary with the given
arguments and passes its output and exit code through. Before passing a
result on, it checks that the printed metrics are exactly the ones
BENCHMARK.json declares for the run's mode.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def check_result(line, trace):
    """Returns an error message if the result line breaks the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line of output is not a JSON object"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    declared = declared_metrics(trace)
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(n for n in set(printed) & set(declared) if printed[n] != declared[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, wrong unit {wrong}"
    return None


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["ABW_JOBS"] = str(len(os.sched_getaffinity(0)))

    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    run = subprocess.run(
        [os.path.join(target, "release", "abwe-benchmark")] + args,
        env=env, stdout=subprocess.PIPE, text=True,
    )
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    error = check_result(lines[-1] if lines else "", trace)
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
