#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-pairs --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --self-test=1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. Build output goes to stderr; stdout carries only
the benchmark's lines, the last of which is the JSON result. With --trace 1
the spans are written to <build dir>/spans/<workload>-seed<seed>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run measures for --seconds plus set-up, warm-up and checks; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no datastage sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(out), "--target", target, "--parallel", "4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / target


def git_info():
    """Revision and dirty flag of the checkout, or unknown outside git."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown", "unknown"
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                            capture_output=True, text=True)
    if rev.returncode != 0 or status.returncode != 0:
        return "unknown", "unknown"
    return rev.stdout.strip(), "1" if status.stdout.strip() else "0"


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", type=int, choices=[0, 1], default=0,
                        help="1: build and run the benchmark's own test instead")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(run([str(build("perfbench_selftest"))]))
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0:
        parser.error("--seed must not be negative")

    binary = build("perfbench")
    rev, dirty = git_info()
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--git-rev={rev}", f"--git-dirty={dirty}"]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd.append(f"--spans-out={spans / f'{args.workload}-seed{args.seed}.json'}")
    sys.stdout.flush()
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
