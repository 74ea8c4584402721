#!/usr/bin/env python3
"""Builds and runs the HEBS end-to-end benchmark.

    python3 hebsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The first call configures and
builds the library plus the benchmark binary (hebsbench/CMakeLists.txt)
under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally.  Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result.

Extra modes:
    --heldout-seed <m>   run the workload on a second seed as well and
                         compare its end-to-end metrics with the first
                         seed's against the bounds in BENCHMARK.json;
                         exits 1 when a metric falls outside its bound
    --self-test          build and run the statistics self-test
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("hebsbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        cmds.append(cfg)
    cmds.append(["cmake", "--build", build_dir, "--target", target,
                 "-j", jobs])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(proc.stdout[-4000:] if proc.returncode else "")
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def source_digest():
    """sha256 over the library and benchmark sources: identifies the
    code a record measured, also in checkouts without git metadata."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "include", "src", "hebsbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                           "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "none"


def run_binary(binary, args, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Also on SIGTERM (see main): never leave the binary running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def heldout_report(first, second, seeds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    print("held-out check: seed %d against seed %d" % (seeds[1], seeds[0]))
    outside = []
    for name, m in first["metrics"].items():
        a, b = m["value"], second["metrics"][name]["value"]
        rel = (b - a) / abs(a) if a else 0.0
        bound = bounds.get(name)
        verdict = ("" if bound is None else
                   "within" if abs(rel) <= bound else "OUTSIDE")
        if verdict == "OUTSIDE":
            outside.append(name)
        print("  %-14s %14.4f %14.4f %+8.2f%%  bound %s %s" % (
            name, a, b, 100 * rel,
            "-" if bound is None else "%g" % bound, verdict))
    return outside


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--heldout-seed", type=int)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hebsbench")
    if args.self_test:
        binary = build(build_dir, "hebsbench_stats_test")
        sys.exit(subprocess.run([binary]).returncode)
    if not args.workload:
        p.error("--workload is required")

    binary = build(build_dir, "hebsbench")
    lines, result = run_binary(binary, args, args.seed)
    print("\n".join(lines))
    outside = []
    if args.heldout_seed is not None:
        held_lines, held = run_binary(binary, args, args.heldout_seed)
        print("\n".join(held_lines))
        print(json.dumps(held))
        if not args.trace:
            outside = heldout_report(result, held,
                                     (args.seed, args.heldout_seed))
    print(json.dumps(result))
    if outside:
        fail("held-out seed outside the bounds on " + ", ".join(outside))


if __name__ == "__main__":
    main()
