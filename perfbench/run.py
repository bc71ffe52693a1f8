#!/usr/bin/env python3
"""Build the AKG benchmark runner from this checkout and run one workload.

    python3 perfbench/run.py --workload <compile_cold|gemm_tune|serve_stream>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The runner and the library are built with
CMake into $CARGO_TARGET_DIR (default .bench_build); run outputs (result
files, span files, temporary kernel stores) go to .bench_out. The last line
of standard output is the run's JSON result; build logs and progress go to
standard error. A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            log("configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", build_dir, "--target",
                        "akg-perfbench", "-j", jobs], stdout=sys.stderr) != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "akg-perfbench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    if exe is None:
        return 1
    proc = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
