#!/usr/bin/env python3
"""Build and run the VAESA benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline|serve_miss|serve_hit \
        --seed N --seconds S --trace 0|1 [--results-dir DIR]
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/CMakeLists.txt (the
library layers under src/ plus the perfbench program) into
$CARGO_TARGET_DIR/perfbench when that is set, else into
.bench_build/perfbench; later calls rebuild incrementally. The
program's last stdout line is the result object; it is printed only
after its metric names match BENCHMARK.json. --results-dir also saves
the run, with its provenance, as one JSON file for
perfbench/compare.py. --smoke runs every workload at a tiny size in
both trace modes and checks the schema and the correctness checks.
Exits non-zero, printing no result, when the build, the run or a check
fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, "perfbench_out")
WORKLOADS = ("pipeline", "serve_miss", "serve_hit")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no VAESA sources under %s/src" % ROOT)
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def source_sha256():
    """Hash of the compiled sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Run perfbench; returns (detail, result) or exits on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s run exited with %d" % (workload, proc.returncode))
    if not lines[-2].startswith("detail "):
        fail("%s run printed no detail line" % workload)
    detail = json.loads(lines[-2][len("detail "):])
    result = json.loads(lines[-1])
    check_result(result, declared_metrics(trace), workload)
    return detail, result


def check_result(result, declared, workload):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted must be a positive integer" % workload)
    got = result["metrics"]
    if set(got) != set(declared):
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (workload, sorted(set(declared) - set(got)),
                sorted(set(got) - set(declared))))
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != declared[name] or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            fail("%s: bad metric %s = %r" % (workload, name, entry))


def smoke():
    binary = build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_once(binary, workload, 1, 1, trace, smoke=True)
            if not result["correct"] or result["failed"]:
                fail("%s trace %d: %d of %d operations failed"
                     % (workload, trace, result["failed"],
                        result["attempted"]))
            if not trace and result["metrics"]["ok_frac"]["value"] != 1.0:
                fail("%s: ok_frac below 1" % workload)
            print("smoke %-10s trace %d: ok (%d operations)"
                  % (workload, trace, result["attempted"]))
    print("smoke: all workloads pass")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    if not args.workload:
        parser.error("--workload is required")

    binary = build()
    detail, result = run_once(binary, args.workload, args.seed,
                              args.seconds, args.trace)
    provenance = detail["provenance"]
    provenance["source_sha256"] = source_sha256()
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if described.returncode == 0:
            provenance["git_describe"] = described.stdout.strip()
    if args.results_dir:
        os.makedirs(args.results_dir, exist_ok=True)
        name = "%s_seed%d_trace%d.json" % (args.workload, args.seed,
                                           args.trace)
        with open(os.path.join(args.results_dir, name), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "detail": detail,
                       "result": result}, f, indent=1)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
