#!/usr/bin/env python3
"""Runs one benchmark workload of the Damaris reproduction.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --smoke

The first form builds dmr_e2ebench from the checkout's sources (once; the
build tree is $CARGO_TARGET_DIR, default .bench_build, at the checkout
root), runs the workload and passes its output through: the last line of
standard output is the JSON result. --smoke runs every workload of
BENCHMARK.json at minimal size in both trace modes, with the benchmark's
own test (test_bench.py).
"""
import argparse
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "e2ebench"


def fail(msg: str, code: int = 1) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build() -> Path:
    """Configures (first time) and builds dmr_e2ebench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "dmr_e2ebench", "-j", "4"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "dmr_e2ebench"


def run_binary(binary: Path, args: list) -> subprocess.CompletedProcess:
    work = build_dir() / "work"
    return subprocess.run([str(binary), *args, "--work-dir", str(work)],
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()

    binary = build()
    if a.smoke:
        import test_bench  # noqa: E402 (lives next to this file)
        test_bench.BINARY = binary
        test_bench.WORK_DIR = build_dir() / "work"
        suite = unittest.defaultTestLoader.loadTestsFromModule(test_bench)
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        sys.exit(0 if ok else 1)
    if not a.workload:
        fail("--workload is required", 2)
    try:
        r = run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", str(a.seconds), "--trace", a.trace])
    except subprocess.TimeoutExpired:
        fail(f"workload {a.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH_DIR))
    main()
