#!/usr/bin/env python3
"""Build and run one workload of the serving-runtime benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
under .bench_build/perfbench; later runs reuse that build. Every run first
executes the benchmark's self-tests, then the workload. The workload's
report goes to standard output; its last line is the JSON result. The exit
code is 0 only when the build, the self-tests and every output check pass.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, **kw):
    """Run cmd with its output on stderr; True on exit code 0."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw).returncode == 0


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd):
            return False
    jobs = str(os.cpu_count() or 1)
    return run_logged(["cmake", "--build", BUILD, "-j", jobs])


def source_id():
    """git commit when the checkout has one, plus a digest of the sources
    the benchmark builds (a checkout without .git still gets an identity)."""
    commit = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{commit} sources-sha256:{digest.hexdigest()[:16]}"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    out_dir = os.path.join(BUILD, "out")
    tmp_dir = os.path.join(BUILD, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    # Spilled vertex state goes to TMPDIR: keep it inside the checkout.
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not run_logged([os.path.join(BUILD, "perfbench_selftest"), "--gtest_brief=1"],
                      cwd=out_dir, env=env):
        log("self-tests failed")
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--commit", source_id()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None:
        sys.stdout.write(r.stdout)
        log(f"no JSON result (exit code {r.returncode})")
        return r.returncode or 1

    # The JSON result must carry exactly the metrics BENCHMARK.json names.
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"metrics disagree with BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
