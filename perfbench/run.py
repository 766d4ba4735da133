#!/usr/bin/env python3
"""Service-level benchmark of record for rfidmon.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library sources under ../src) and runs one workload:

    python3 perfbench/run.py --workload trp_small [--seed 1] [--seconds 20]
                             [--trace 0|1] [--record-exact]
    python3 perfbench/run.py --self-test

Run it from the repository root. Build output goes to standard error; the
last line of standard output is the JSON result. The build directory is
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

The exact-count rows of a run are compared with perfbench/exact_counts.json
when that file has an entry for the workload and seed (the default seed and
the held-out seed). A mismatch is printed as EXACT-COUNT DRIFT and fails the
run. --record-exact re-records the entry after a change that moves the rows
on purpose.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_FILE = os.path.join(HERE, "exact_counts.json")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 175


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the program; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found next to perfbench/ (src/CMakeLists.txt)")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "perfbench")


def run_binary(command, timeout):
    """Runs the program to completion; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("benchmark timed out after %d s" % timeout)
        return 1, []
    return proc.returncode, out.splitlines()


def load_exact():
    if not os.path.isfile(EXACT_FILE):
        return {}
    with open(EXACT_FILE) as f:
        return json.load(f)


def exact_drift(workload, seed, rows, record):
    """Compares the run's exact-count rows with the recorded ones."""
    recorded = load_exact()
    key = "%s/seed-%d" % (workload, seed)
    if record:
        recorded[key] = rows
        with open(EXACT_FILE, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")
        return ["exact-count rows: recorded for %s" % key], False
    if key not in recorded:
        return ["exact-count rows: nothing recorded for %s" % key], False
    lines = []
    for name in sorted(set(recorded[key]) | set(rows)):
        want, got = recorded[key].get(name), rows.get(name)
        if want != got:
            lines.append("EXACT-COUNT DRIFT: %s = %r, recorded %r"
                         % (name, got, want))
    if not lines:
        lines.append("exact-count rows: match the values recorded for %s" % key)
    return lines, len(lines) > 0 and lines[0].startswith("EXACT")


def self_test(binary, scratch):
    """Runs the program's self-test and checks BENCHMARK.json against it."""
    code = subprocess.run([binary, "--self-test", "--scratch", scratch],
                          timeout=900).returncode
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    catalog = {"end_to_end": {}, "per_layer": {}, "workload": {}}
    for line in filter(None, listed):
        parts = line.split()
        catalog[parts[0]][parts[1]] = parts[2] if len(parts) > 2 else None
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = code == 0
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != catalog[section]:
            print("self-test: BENCHMARK.json %s differs from the program"
                  % section)
            ok = False
    if {w["name"] for w in spec["workloads"]} != set(catalog["workload"]):
        print("self-test: BENCHMARK.json workloads differ from the program")
        ok = False
    print("self-test (with BENCHMARK.json): %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; held-out seed for "
                        "checking claims: %d)" % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-exact", action="store_true")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.abspath(os.path.join(build_root, "perfbench")))
    if binary is None:
        return 1
    scratch = os.path.abspath(os.path.join(build_root, "perfbench-scratch"))
    if args.self_test:
        return self_test(binary, scratch)
    if not args.workload:
        parser.error("--workload is required")

    code, lines = run_binary(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--scratch", scratch], RUN_TIMEOUT_S)
    if not lines or not lines[-1].startswith("{"):
        log("benchmark printed no result (exit %d)" % code)
        return code or 1
    result = json.loads(lines[-1])
    drift_lines, drifted = [], False
    for line in lines:
        if line.startswith("exact_counts "):
            rows = json.loads(line[len("exact_counts "):])
            drift_lines, drifted = exact_drift(args.workload, args.seed, rows,
                                               args.record_exact)
    if drifted:
        result["correct"] = False
        code = code or 1
    print("\n".join(lines[:-1] + drift_lines))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
