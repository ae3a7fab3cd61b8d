#!/usr/bin/env python3
"""Failure-sweep benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call builds the library and the
driver from source into .bench_build/perfbench (CMake, Release); later calls
only re-run the incremental build.  Each workload then runs as its own
process, whose standard output is passed through: a host line, a checks line,
and last the result object {"correct", "attempted", "failed", "metrics"}.

--self-test runs every workload of BENCHMARK.json at a tiny size, on two
seeds, untraced and traced, and checks that every metric is printed with its
unit, that the output checks execute and pass, and that a deliberately
corrupted expectation makes them fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "pr_perfbench"
SCRATCH = BUILD / "scratch"
CHILD_TIMEOUT_S = 170
# Compiler and driver temporaries stay inside the checkout as well.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=ENV)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True, env=ENV)


def commit_id():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: the code identity when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_child(args, identity):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(SCRATCH.relative_to(ROOT)), "--commit", identity[0],
           "--source-sha256", identity[1]]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_check:
        cmd.append("--corrupt-check")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=ENV)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    checks = next((json.loads(line) for line in lines if line.startswith('{"checks"')),
                  None)
    host = next((json.loads(line) for line in lines if line.startswith('{"host"')), None)
    return host, checks, result


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    identity = (commit_id(), source_digest())
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            log("FAIL", what)

    for workload in spec["workloads"]:
        name = workload["name"]
        for seed in (1, 2):
            for trace in (0, 1):
                args = argparse.Namespace(workload=name, seed=seed, seconds=1,
                                          trace=trace, tiny=True, corrupt_check=False)
                tag = f"{name} seed={seed} trace={trace}"
                start = time.monotonic()
                code, out = run_child(args, identity)
                expect(code == 0, f"{tag}: exit code {code}")
                if code != 0:
                    continue
                host, checks, result = parse_result(out)
                wanted = spec["per_layer" if trace else "end_to_end"]
                got = result["metrics"]
                expect(list(got) == [m["name"] for m in wanted],
                       f"{tag}: metric names {list(got)}")
                for m in wanted:
                    entry = got.get(m["name"], {})
                    expect(entry.get("unit") == m["unit"],
                           f"{tag}: {m['name']} unit {entry.get('unit')}")
                    expect(isinstance(entry.get("value"), (int, float)),
                           f"{tag}: {m['name']} value")
                expect(result["correct"] is True, f"{tag}: correct is false")
                expect(result["failed"] == 0 and result["attempted"] >= 1,
                       f"{tag}: attempted/failed {result['attempted']}/{result['failed']}")
                expect(host is not None and "commit" in host["host"], f"{tag}: host line")
                expect(checks is not None and checks["checks"] and
                       all(c["executed"] > 0 for c in checks["checks"]),
                       f"{tag}: output checks did not execute")
                expect("supports_pr" in checks["outputs"] or name == "repair-isp2048",
                       f"{tag}: supports_pr output")
                if trace:
                    share = got["trace.attributed_share"]["value"]
                    expect(share >= 0.95, f"{tag}: attributed share {share}")
                log(f"{tag}: ok ({time.monotonic() - start:.1f} s)")
        args = argparse.Namespace(workload=name, seed=1, seconds=1, trace=0,
                                  tiny=True, corrupt_check=True)
        code, out = run_child(args, identity)
        if code == 0:
            _, checks, result = parse_result(out)
            expect(result["correct"] is False, f"{name}: corrupted check still passed")
            expect(all(c["mismatches"] > 0 for c in checks["checks"]),
                   f"{name}: a corrupted check reported no mismatch")
        else:
            expect(False, f"{name}: corrupt-check run exit code {code}")
    if failures:
        log(f"self-test: {len(failures)} failure(s)")
        return 1
    log("self-test: all workloads passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (self-test size)")
    parser.add_argument("--corrupt-check", action="store_true",
                        help="perturb one expected value per check")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    code, out = run_child(args, (commit_id(), source_digest()))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
