#!/usr/bin/env python3
"""Builds csq_bench from source and runs it.

One workload (the last line of stdout is the result object):

    python3 csq_bench/run.py --workload sync_hard --seed 1 --seconds 15 --trace 0

Every workload, each in its own process, merged into BENCH_csq_bench.json (or
BENCH_csq_bench_trace.json with --trace 1):

    python3 csq_bench/run.py [--seed 1] [--seconds 15] [--trace 0|1] [--out FILE]

The build goes to $CARGO_TARGET_DIR/csq_bench (default .bench_build/csq_bench,
relative to the repository root). Build output goes to stderr.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
with open(ROOT / "BENCHMARK.json") as _f:
    WORKLOADS = [w["name"] for w in json.load(_f)["workloads"]]


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "csq_bench"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target", "csq_bench"],
                   stdout=sys.stderr, check=True)
    return bdir / "csq_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out", help="merged report path (all-workload mode)")
    args = ap.parse_args()

    # A terminated runner stops its child (subprocess.run kills it on exit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"csq_bench: build failed: {e}", file=sys.stderr)
        return 1

    def argv(workload):
        return [str(binary), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace]

    if args.workload:
        os.chdir(ROOT)
        os.execv(binary, argv(args.workload))

    traced = args.trace == "1"
    merged = {"bench": "csq_bench", "seed": args.seed, "trace": traced, "workloads": {}}
    status = 0
    for w in WORKLOADS:
        path = ROOT / f"BENCH_csq_bench_{'trace_' if traced else ''}{w}.json"
        path.unlink(missing_ok=True)
        status |= subprocess.run(argv(w), cwd=ROOT).returncode
        if not path.exists():
            status = 1
            continue
        with open(path) as f:
            report = json.load(f)
        merged["host_cores"] = report["host_cores"]
        merged["single_core_caveat"] = report["single_core_caveat"]
        merged["workloads"][w] = report
    out = pathlib.Path(args.out or
                       ROOT / f"BENCH_csq_bench{'_trace' if traced else ''}.json")
    with open(out, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
