#!/usr/bin/env python3
"""Build and run the repository benchmark; print one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark binary (the Rust package in this directory) is built in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then run
once. Its stdout is one JSON document; this script checks its metrics
against BENCHMARK.json, prints a `perfbench-report` line with provenance
(nproc, rustc version, source revision, workload seed), the workload's own
metrics and the output digest, saves that report under
`<target>/perfbench-results/`, and prints as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's `end_to_end` list, with
--trace 1 its `per_layer` list. Every file it writes stays inside the
target directory. Exit code 2 means no result (build or run failure).
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Sources whose content defines the measured program, for the revision
# digest when the checkout is not a git repository.
REVISION_INPUTS = ["Cargo.toml", "Cargo.lock", "BENCHMARK.json", "src", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".git", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    return env


def manifest_problems(doc):
    """Contract checks of BENCHMARK.json; returns a list of problems."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        problems.append(f"top-level keys {sorted(doc)} != {sorted(keys)}")
    names = []
    for w in doc.get("workloads", []):
        if set(w) != {"name", "why"} or "\n" in w.get("why", "\n") or len(w.get("why", "")) > 200:
            problems.append(f"bad workload entry {w}")
        names.append(w.get("name", ""))
    if not 2 <= len(doc.get("workloads", [])) <= 8:
        problems.append("need 2 to 8 workloads")
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for m in doc.get(key, []):
            if set(m) != fields:
                problems.append(f"{key} entry {m} has keys {sorted(m)}")
            if not UNIT_RE.match(m.get("unit", "")):
                problems.append(f"bad unit in {m}")
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"bad 'better' in {m}")
            if key == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"bound out of range in {m}")
            names.append(m.get("name", ""))
    for n in names:
        if not NAME_RE.match(n):
            problems.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [m for m in doc.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    if not (isinstance(doc.get("run_seconds"), int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds must be an integer from 1 to 60")
    return problems


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=cargo_env(), stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def revision():
    """The git commit when the checkout is a git repository (with
    `+dirty` for uncommitted changes), else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = command_output(["git", "rev-parse", "HEAD"])
        if rev:
            dirty = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
            return rev + ("+dirty" if dirty else "")
    h = hashlib.sha256()
    for top in REVISION_INPUTS:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_once(binary, args):
    out_dir = target_dir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "perfbench-work"),
           "--trace-out", os.path.join(out_dir, "perfbench-trace", tag + ".json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run did not finish: {e}")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    try:
        return json.loads(done.stdout), tag
    except ValueError as e:
        fail(f"benchmark printed no result document: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()

    manifest = load_manifest()
    problems = manifest_problems(manifest)
    if problems:
        fail("BENCHMARK.json breaks the contract: " + "; ".join(problems))
    if args.self_test:
        cmd = ["cargo", "test", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
        sys.exit(subprocess.run(cmd, cwd=ROOT, env=cargo_env()).returncode)
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]

    binary = build()
    doc, tag = run_once(binary, args)

    expected = manifest["per_layer" if args.trace else "end_to_end"]
    got = doc.get("metrics", {})
    correct = bool(doc.get("correct"))
    if sorted(got) != sorted(m["name"] for m in expected):
        print(f"perfbench: metric set {sorted(got)} does not match BENCHMARK.json", file=sys.stderr)
        correct = False
    for m in expected:
        v = got.get(m["name"], {})
        if v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            print(f"perfbench: metric {m['name']} is {v}, expected unit {m['unit']}", file=sys.stderr)
            correct = False
    metrics = {m["name"]: got[m["name"]] for m in expected if m["name"] in got}

    report = dict(doc)
    report["provenance"] = {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "revision": revision(),
        "workload_seed": args.seed,
        "command": sys.argv,
    }
    results = os.path.join(target_dir(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(doc.get("attempted", 0)),
        "failed": int(doc.get("failed", 0)),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
