#!/usr/bin/env python3
"""Seeded end-to-end replication benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload paper-adapt --seed 1 --seconds 20 --trace 0

It builds the drep library and the pipebench binary from this checkout
(Release, DREP_OBS=ON, DREP_AUDIT=OFF) into .bench_build/pipebench, runs
one workload for the given number of seconds, checks the result and prints
two JSON lines on stdout. The first is the full report: the provenance of
the build (the source tree's hash and, in a git checkout, its commit), the
correctness gate and every metric. The last is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a layer a workload never enters reads 0). Build output and
diagnostics go to stderr. Exit status: 0 when the run passed its gate, 1
when it failed or could not run, 2 when the checkout holds no source tree.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pipebench"
RUN_TIMEOUT_S = 170
# What goes into the binary, for the provenance hash.
SOURCE_PARTS = ["CMakeLists.txt", "src", "tools", "tests/testing", "pipebench"]


def fail(message, code=1):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds the binary (a no-op when up to date)."""
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "pipebench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "pipebench"


def source_sha256():
    digest = hashlib.sha256()
    for part in SOURCE_PARTS:
        path = ROOT / part
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
            digest.update(f.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit():
    """(commit, dirty) of a git checkout; (None, None) elsewhere."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src",
             "tools", "tests/testing", "pipebench", "CMakeLists.txt"],
            check=True, capture_output=True, text=True).stdout
        return commit, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_metrics(spec, metrics, trace):
    """Validates names and units against BENCHMARK.json; returns the
    metrics object of the result line, or raises ValueError."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(metrics) - names)
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json: {extra}")
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} not reported")
            got = {"value": 0, "unit": m["unit"]}  # layer not entered
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        value = got["value"]
        if not math.isfinite(value) or (not trace and value == 0):
            raise ValueError(f"{m['name']}: bad value {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def check_pins(workload, seed, metrics):
    """Deterministic metrics must equal their pinned per-seed values."""
    pins = json.loads((HERE / "pins.json").read_text())
    expected = pins.get(workload, {}).get(str(seed), {})
    failures = []
    for name, value in expected.items():
        got = metrics.get(name, {}).get("value")
        if got != value:
            failures.append(f"{name} = {got!r}, pinned {value!r}")
    return len(expected), failures


def main():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no drep source tree at {ROOT} (CMakeLists.txt and src/)", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"pipebench exited with {run.returncode}")
    report = json.loads(run.stdout.strip().splitlines()[-1])
    build_info = report["build"]
    if (build_info["build_type"] != "Release"
            or build_info["drep_audit"] != "OFF"):
        fail(f"refusing to report from build {build_info}")

    try:
        metrics = check_metrics(spec, report["metrics"], bool(args.trace))
    except ValueError as e:
        fail(str(e))
    pinned, pin_failures = (0, []) if args.trace else check_pins(
        args.workload, args.seed, metrics)

    gate = report["gate"]
    gate["checks"] += pinned
    gate["failures"] += len(pin_failures)
    gate["messages"] += pin_failures
    commit, dirty = git_commit()
    report["provenance"] = {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_sha256(),
        "build_type": build_info["build_type"],
        "drep_obs": build_info["drep_obs"],
        "drep_audit": build_info["drep_audit"],
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
    }
    print(json.dumps(report))
    for name, m in metrics.items():
        print(f"{name:>34} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    if gate["failures"]:
        print("gate failures: " + "; ".join(gate["messages"]), file=sys.stderr)

    print(json.dumps({
        "correct": gate["failures"] == 0,
        "attempted": max(1, int(report["attempted"])),
        "failed": int(gate["failures"]),
        "metrics": metrics,
    }))
    return 0 if gate["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
