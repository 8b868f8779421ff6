#!/usr/bin/env python3
"""Builds the simulator in Release mode and runs one benchmark workload.

    python3 perfbench/run.py --workload attack_eol --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
configures and compiles, later runs only rebuild what changed. After a
(re)build the pass-through self-test runs once. The benchmark binary's
stdout is passed through; its last line is the JSON result, and the exit code
is non-zero when any check failed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("attack_eol", "mixed_queued", "phone_fs", "fleet_mixed")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """The git commit when available, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def build(root, build_dir):
    """Configures (once) and builds; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def selftest(build_dir):
    """Runs the decorator self-test once per build of it."""
    binary = os.path.join(build_dir, "flashbench_selftest")
    stamp = binary + ".passed"
    if os.path.exists(stamp) and os.path.getmtime(stamp) >= os.path.getmtime(binary):
        return True
    done = subprocess.run([binary], stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log("self-test failed")
        return False
    with open(stamp, "w") as f:
        f.write("ok\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {root}/src; nothing to measure")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(root, build_dir) or not selftest(build_dir):
        return 2

    cmd = [os.path.join(build_dir, "flashbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id(root)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
