#!/usr/bin/env python3
"""Builds the ASSET benchmark from this checkout's sources, runs one
workload, and passes its result line through.

    python3 assetbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--short] [--plant <name>]

Run from the root of a checkout. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR), scratch databases to .bench_run/<pid>/ (removed
after the run), and the traced run's Chrome trace and self-time table
to .bench_out/. The last line of standard output is the result JSON.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ledger_durable", "session_rtt", "extended_models")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"assetbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; build output
    goes to stderr so stdout stays the result channel."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "assetbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    binary = build_dir / "assetbench"
    return binary if binary.is_file() else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="small sizes and probe budgets (tests)")
    ap.add_argument("--plant", default="",
                    help="write one wrong outcome before the checks (tests)")
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 2

    run_dir = ROOT / ".bench_run" / str(os.getpid())
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir),
           "--out-dir", str(ROOT / ".bench_out")]
    if args.short:
        cmd.append("--short")
    if args.plant:
        cmd += ["--plant", args.plant]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        log(f"no result line (exit status {proc.returncode})")
        return proc.returncode or 2
    for ln in lines[:-1]:
        print(ln, file=sys.stderr)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
