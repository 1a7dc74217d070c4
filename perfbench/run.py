#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Configures and builds perfbench/ (which
compiles the mstv library from src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set, runs the benchmark's arithmetic
self-tests, then runs the workload.  Build and self-test output goes to
stderr; the report goes to stdout and its last line is the JSON result.
Snapshots and trace files are written inside the build directory.

CMAKE_BUILD_TYPE (default RelWithDebInfo), MSTV_SANITIZE and
MSTV_OBS_DISABLED select the build; each combination gets its own build
directory, and the result's provenance records it.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must exit within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170


def build_config():
    build_type = os.environ.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    sanitize = os.environ.get("MSTV_SANITIZE", "")
    obs_off = os.environ.get("MSTV_OBS_DISABLED", "").upper() in ("1", "ON", "TRUE", "YES")
    tag = build_type + (f"-{sanitize}san" if sanitize else "") + ("-obsoff" if obs_off else "")
    defs = [
        f"-DCMAKE_BUILD_TYPE={build_type}",
        f"-DMSTV_SANITIZE={sanitize}",
        f"-DMSTV_OBS_DISABLED={'ON' if obs_off else 'OFF'}",
    ]
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-" + tag), defs


def check_call(cmd):
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(build_dir, defs):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = []  # an existing build keeps its generator
    check_call(["cmake", "-S", HERE, "-B", build_dir, *generator, *defs])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", build_dir, "--parallel", jobs])
    check_call([os.path.join(build_dir, "perfbench_selftest")])


def source_digest():
    """SHA-256 over the library and benchmark sources, path by path."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    build_dir, defs = build_config()
    try:
        build(build_dir, defs)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "perfbench"), *argv,
           "--work-dir", build_dir,
           "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
