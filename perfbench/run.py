#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program from this checkout's
sources and runs one workload (README.md in this directory describes the
workloads and metrics).

  python3 perfbench/run.py --workload farm_idle --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --update-reference   # rewrite perfbench/reference.txt
  python3 perfbench/run.py --selftest           # build and run the fidelity tests

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
checkout root. The last line of a measuring run's stdout is its JSON result;
the build log goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.txt"
REFERENCE_SEEDS = range(1, 11)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no terasim sources in {ROOT} (need CMakeLists.txt and src/)")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = out if out.is_absolute() else ROOT / out
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", "-DTSIM_BUILD_TESTS=OFF",
                      "-DTSIM_BUILD_BENCH=OFF", "-DTSIM_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out


def check_result(stdout, trace):
    """The last stdout line must be the result, carrying exactly the metrics
    BENCHMARK.json lists for this mode."""
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no result printed", 1)
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="rewrite reference.txt from the current program")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's fidelity tests")
    args = ap.parse_args()

    if args.selftest:
        out = build("perfbench_test")
        sys.exit(subprocess.run([str(out / "perfbench_test")], cwd=out).returncode)

    out = build("perfbench")
    binary = str(out / "perfbench")
    if args.update_reference:
        seeds = ",".join(str(s) for s in REFERENCE_SEEDS)
        sys.exit(subprocess.run([binary, "--update-reference", str(REFERENCE),
                                 "--seeds", seeds, "--scratch", str(out)]).returncode)
    if args.workload is None:
        fail("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(REFERENCE), "--scratch", str(out)]
    if args.trace:
        cmd += ["--trace-out", str(out / f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 90)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    check_result(proc.stdout, args.trace)


if __name__ == "__main__":
    main()
