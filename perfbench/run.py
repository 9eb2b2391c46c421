#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the
library from source plus the benchmark program) into .bench_build/ at the
repository root; later calls rebuild only what changed. The benchmark program's last
stdout line is the result object; this script checks it against
BENCHMARK.json (exact metric names and units) before printing it as its
own last line, and exits nonzero on any build, correctness or schema
failure. --selftest runs the benchmark's self-tests and checks
BENCHMARK.json against the metric set the benchmark program prints.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ("batch-large", "serve-single", "churn-sharded")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def printed_metrics():
    """{kind: [(name, unit), ...]} as compiled into the benchmark program."""
    out = subprocess.run([str(BUILD / "perfbench_selftest"), "--list-metrics"],
                         capture_output=True, text=True, check=True).stdout
    metrics = {"end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, name, unit = line.split()
        metrics[kind].append((name, unit))
    return metrics


def schema_errors(spec, printed):
    """What is wrong with BENCHMARK.json, or with its match to the benchmark program."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return errors
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        errors.append(f"workloads {names} != {list(WORKLOADS)}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload entry {w}")
    all_names = names[:]
    for kind, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                         ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            if set(m) != fields:
                errors.append(f"{kind} entry {m} has keys {sorted(m)}")
                continue
            if not name_re.match(m["name"]) or not unit_re.match(m["unit"]):
                errors.append(f"bad name or unit in {m}")
            if m["better"] not in ("higher", "lower"):
                errors.append(f"bad 'better' in {m}")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound out of (0, 0.25] in {m}")
            all_names.append(m["name"])
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != printed[kind]:
            errors.append(f"{kind} in BENCHMARK.json differs from the benchmark program: "
                          f"{sorted(set(declared) ^ set(printed[kind]))}")
    if len(set(all_names)) != len(all_names):
        errors.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (unit s, lower is better) is missing")
    if not 1 <= spec["run_seconds"] <= 60:
        errors.append("run_seconds out of [1, 60]")
    return errors


def result_errors(line, expected):
    """What is wrong with the benchmark program's result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line!r}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            errors.append(f"'{key}' is not a whole number")
    if result.get("attempted", 0) < 1:
        errors.append("'attempted' is below 1")
    got = {name: (m.get("unit"), m.get("value"))
           for name, m in result["metrics"].items()}
    if sorted(got) != sorted(name for name, _ in expected):
        errors.append(f"metrics {sorted(set(got) ^ {n for n, _ in expected})}")
    for name, unit in expected:
        if name in got:
            if got[name][0] != unit:
                errors.append(f"{name} unit {got[name][0]} != {unit}")
            if not isinstance(got[name][1], (int, float)):
                errors.append(f"{name} has no numeric value")
    return errors


def check_result_errors(printed):
    """Self-test of result_errors on a well-formed line and broken ones."""
    expected = printed["end_to_end"]
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u} for n, u in expected}}
    broken = [dict(good, extra=1), dict(good, attempted=0),
              dict(good, failed=0.5), dict(good, metrics={})]
    wrong_unit = json.loads(json.dumps(good))
    wrong_unit["metrics"][expected[0][0]]["unit"] = "furlong"
    broken.append(wrong_unit)
    errors = []
    if result_errors(json.dumps(good), expected):
        errors.append("a well-formed result line was refused")
    for b in broken:
        if not result_errors(json.dumps(b), expected):
            errors.append(f"a broken result line was accepted: {b}")
    if not result_errors("not json", expected):
        errors.append("a non-JSON last line was accepted")
    return errors


def commit_id():
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    # Not a git checkout: identify the library sources by content.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    build()
    printed = printed_metrics()
    errors = schema_errors(spec, printed)
    if errors:
        fail("BENCHMARK.json: " + "; ".join(errors))

    if args.selftest:
        rc = subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
        errors = check_result_errors(printed)
        if rc != 0 or errors:
            fail("self-tests failed: " + "; ".join(errors))
        print("perfbench: BENCHMARK.json matches the benchmark program")
        return

    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{args.workload} failed (exit {proc.returncode}): {lines[-1]}")
    kind = "per_layer" if args.trace else "end_to_end"
    errors = result_errors(lines[-1], printed[kind])
    if errors:
        fail("malformed result: " + "; ".join(errors))
    print(lines[-1])


if __name__ == "__main__":
    main()
