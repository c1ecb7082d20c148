#!/usr/bin/env python3
"""Builds and runs the verifier benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`<name>` is `cold_corpus`, `edit_stream`, `service_warm`, or `all` (every
workload in turn, with one combined table). The script builds the
benchmark package in `perfbench/` and the workspace's `relaxed-serviced`
and `relaxed-shardd` in release mode, into `$CARGO_TARGET_DIR`
(`.bench_build` when unset), then runs the benchmark binary on one CPU,
the highest-numbered one this process may use. The last
line of standard output is one JSON object:
`{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
Scratch files go to a fresh directory under `.bench_tmp/` and are removed
when the run ends.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["cold_corpus", "edit_stream", "service_warm"]


def build(env):
    """Builds both binaries; exits with cargo's code if either fails."""
    for command in (
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--quiet", "-p", "relaxed-bench",
         "--bin", "relaxed-serviced", "--bin", "relaxed-shardd"],
    ):
        code = subprocess.run(command, env=env, stdout=sys.stderr).returncode
        if code != 0:
            sys.exit(code or 1)


def run_all(binary, argv):
    """Runs every workload in its own process and prints one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        args = argv[:]
        args[args.index("--workload") + 1] = workload
        out = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(out.returncode)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        sys.stdout.write("\n".join(out.stdout.strip().splitlines()[:-1]) + "\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print()
    for name, metric in combined["metrics"].items():
        print(f"{name:40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"attempted={combined['attempted']} failed={combined['failed']}")
    print(json.dumps(combined))


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        sys.exit("usage: run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    # The benchmark, and the daemon and fleet it starts, run on one CPU;
    # the build used them all. On a shared two-vCPU host, a wake-up sent to
    # the other vCPU waits for the host to run that vCPU, and the service
    # ops hand work between four processes many times each. Unpinned, the
    # p90 of service_warm ops moved by 20% between runs of identical code
    # and its p99 by 80%; pinned, by 2% and 10%.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    binary = os.path.join(release, "relaxed-perfbench")
    argv += ["--serviced", os.path.join(release, "relaxed-serviced"), "--scratch", ".bench_tmp"]
    sys.stdout.flush()
    if argv[argv.index("--workload") + 1] == "all":
        run_all(binary, argv)
    else:
        sys.exit(subprocess.run([binary] + argv).returncode)


if __name__ == "__main__":
    main()
