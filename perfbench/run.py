#!/usr/bin/env python3
"""Runs the RASED dashboard benchmark for one workload.

Builds perfbench/ (which compiles the RASED sources in ../src) in Release
under .bench_build/, runs the benchmark binary, appends one JSON line per
run to perfbench/results.jsonl (never overwritten), and prints the result
object as the last line of standard output.

    python3 perfbench/run.py --workload panels-warm --seed 1 --seconds 15 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("panels-warm", "cells-cold", "ingest-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def git_sha(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True)
        return out.stdout.strip() or "unknown"
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def source_digest(root):
    """sha256 over the sources the benchmark builds, so runs from checkouts
    without git history still say which code they measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached_sha(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("RASED_GIT_SHA:"):
            return line.partition("=")[2]
    return None


def build(root, build_dir):
    """Configures when the build tree is new or was configured for another
    commit, so the build identity always names the sources being built,
    and brings the build up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(build_dir), "-j", jobs]]
    sha = git_sha(root)
    if cached_sha(build_dir) != sha:
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release",
                     f"-DRASED_GIT_SHA={sha}"]
        if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return build_dir / "rased_perfbench", sha


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--results", default=None,
                        help="results log (default perfbench/results.jsonl)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"RASED sources not found under {root / 'src'}")
        return 2
    work = root / ".bench_build"
    binary, sha = build(root, work / "perfbench")
    data_dir = work / "data" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--data", str(data_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        log(f"benchmark exited {proc.returncode} without a result")
        sys.stderr.write(proc.stdout)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    tagged = {}  # "BUILD {...}" and "HOST {...}" lines
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("BUILD", "HOST") and rest.startswith("{"):
            tagged[tag] = json.loads(rest)
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "git_sha": sha, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": int(args.trace),
        "build": tagged.get("BUILD", {}), "host": tagged.get("HOST", {}),
        "source_digest": source_digest(root),
        "result": result,
    }
    results = Path(args.results) if args.results else (
        root / "perfbench" / "results.jsonl")
    with open(results, "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")

    for line in lines:
        if line.partition(" ")[0] not in tagged:
            print(line)
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as err:
        log(str(err))
        sys.exit(5)
