#!/usr/bin/env python3
"""Build and run the mdlsq benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload lsq_dd --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which builds the library from the checkout's own
CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs the benchmark binary.  Build output goes to standard error; the
binary's standard output is passed through unchanged, so its last line is
the result line.  Exits nonzero, without a result line, when the checkout
holds no library sources or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lsq_dd", "ladder_qd_od", "serve_mixed")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library sources and build file, path-sorted."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev(root):
    if shutil.which("git") is None or not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(root, target="mdlsq_perfbench"):
    """Configures (once) and builds `target`; returns the build directory."""
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                   check=True)
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(root, "src", "mdlsq.hpp"))):
        fail("no mdlsq sources next to perfbench/ (expected CMakeLists.txt "
             "and src/mdlsq.hpp in %s)" % root)
    try:
        build_dir = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(build_dir, "mdlsq_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rev", git_rev(root), "--source", source_digest(root)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
