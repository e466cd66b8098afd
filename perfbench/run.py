#!/usr/bin/env python3
"""End-to-end benchmark of the coupled in situ run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the repository's libraries and the benchmark program into
.bench_build/perfbench, runs one workload in one process with every VP_*
variable removed from its environment (the product defaults), and prints
the run's metrics as one JSON object on the last line of stdout. The full
record of the run (environment, per-episode numbers, per-layer self
times, Chrome trace for --trace 1) goes to .bench_build/results/.

Exits nonzero, without printing a result, when the build fails; exits
nonzero after printing the result when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("insitu_nbody", "table1_binning", "intransit_stream", "svc_render")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no source tree at {root / 'src'}", 3)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)
    return build_dir / "perfbench"


def revision(root):
    """Git revision when the checkout is a repository, plus a digest of the
    sources the benchmark built (a checkout need not be a repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or "none"
    except OSError:
        rev = "none"
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for f in sorted((root / base).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return f"git {rev}; sources sha256 {h.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build" / "results"
    exe = build(root, root / ".bench_build" / "perfbench")

    env = {k: v for k, v in os.environ.items() if not k.startswith("VP_")}
    scrubbed = sorted(k for k in os.environ if k.startswith("VP_"))
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir),
           "--git-rev", revision(root), "--scrubbed", ",".join(scrubbed)]
    try:
        p = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)

    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{args.workload} exited {p.returncode} without a result", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    print(json.dumps(result))
    sys.exit(0 if p.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
