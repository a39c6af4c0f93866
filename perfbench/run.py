#!/usr/bin/env python3
"""End-to-end benchmark of the TASS system.

Run from the root of a source tree:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the library, tass_serve and the benchmark program
(CMake package in perfbench/, build tree under $CARGO_TARGET_DIR or
.bench_build), runs one workload and prints the program's report; the
last stdout line is the JSON record. --smoke runs every workload at the
seconds-long tiny size, traced and untraced, with every correctness
gate on, and checks each record against BENCHMARK.json.

Exit status is non-zero when the build fails, a correctness gate fails,
or the sources the benchmark builds are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan", "serve_read", "serve_live")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def sources_present():
    return all(
        os.path.exists(os.path.join(ROOT, path))
        for path in ("CMakeLists.txt", "src", "tools/tass_serve.cpp")
    )


def build():
    """Configures once and builds; returns the program and daemon paths."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    program = os.path.join(out, "perfbench")
    serve = os.path.join(out, "tass", "tass_serve")
    for path in (program, serve):
        if not os.path.exists(path):
            raise RuntimeError(f"build did not produce {path}")
    return program, serve


def source_revision():
    """The git revision when the tree is a checkout, else a content hash
    of everything the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_once(program, serve, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work",
                        f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env_json = json.dumps({"revision": source_revision()})
    command = [program, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--serve", serve, "--work", work, "--env-json", env_json]
    if tiny:
        command.append("--tiny")
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The daemon dies with the benchmark program (parent-death
        # signal); kill the whole process group anyway and reap it.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        stdout = ""
        process.returncode = 1
    if trace:
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(build_dir(),
                                            f"spans-{workload}-{seed}.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return process.returncode, stdout.splitlines()


def smoke(program, serve):
    """Every workload at tiny size, traced and untraced, checked against
    the metric lists in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_once(program, serve, workload, 1, 1, trace,
                                   tiny=True)
            problems = []
            record = {}
            if code != 0:
                problems.append(f"exit {code}")
            try:
                record = json.loads(lines[-1]) if lines else {}
            except json.JSONDecodeError:
                problems.append("last line is not JSON")
            if record:
                if set(record) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"record keys {sorted(record)}")
                if record.get("correct") is not True or record.get("failed"):
                    problems.append("a correctness gate failed")
                wanted = spec["per_layer" if trace else "end_to_end"]
                metrics = record.get("metrics", {})
                for metric in wanted:
                    got = metrics.get(metric["name"])
                    if got is None:
                        problems.append(f"missing {metric['name']}")
                    elif got.get("unit") != metric["unit"]:
                        problems.append(f"{metric['name']} unit {got.get('unit')}")
                extra = set(metrics) - {m["name"] for m in wanted}
                if extra:
                    problems.append(f"unlisted metrics {sorted(extra)}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload:10s} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check it")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not sources_present():
        log(f"the TASS sources are missing next to {HERE}")
        return 1
    try:
        program, serve = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1
    if args.smoke:
        return smoke(program, serve)
    code, lines = run_once(program, serve, args.workload, args.seed,
                             args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
