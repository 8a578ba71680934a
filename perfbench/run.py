#!/usr/bin/env python3
"""Repo benchmark driver: builds risa_perfbench from source, runs one workload,
checks its outputs and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build lives in $CARGO_TARGET_DIR (default
.bench_build) under the root.  See perfbench/README.md for the workloads and
metrics.  --record (maintenance only) writes the run's deterministic counts
into perfbench/reference.json instead of checking against it.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build; returns the binary paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError(f"no repository sources found under {ROOT}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "risa_perfbench"),
            os.path.join(build_dir, "risa", "risa_cli"))


def provenance(build_info):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "cpu_model": cpu, "nproc": os.cpu_count(),
            **build_info}


def check_trace(risa_cli, path, errors):
    """The trace must exist and pass risa_cli's nesting/monotonicity check."""
    if not os.path.isfile(path):
        errors.append(f"trace file missing: {path}")
        return
    out = subprocess.run([risa_cli, f"--trace-summary={path}"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        errors.append(f"risa_cli --trace-summary rejected {path}: "
                      f"{(out.stdout + out.stderr).strip()[-300:]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        bench, risa_cli = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    trace_prefix = os.path.join(build_dir, "traces", args.workload)
    os.makedirs(os.path.dirname(trace_prefix), exist_ok=True)
    if args.trace == 1:  # the check below must see this run's trace
        for suffix in (".replay.json", ".engine.json"):
            if os.path.exists(trace_prefix + suffix):
                os.remove(trace_prefix + suffix)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_prefix]
    t0 = time.monotonic()
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"risa_perfbench timed out after {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 2) or not lines:
        log(f"risa_perfbench failed with status {out.returncode}")
        return 1
    result = json.loads(lines[-1])
    errors = list(result["errors"])

    # Reference outputs: every run also replays the repository's default
    # seed; the run's own seed is checked too when it has a reference.
    try:
        with open(REFERENCE) as f:
            reference = json.load(f)
    except OSError:
        reference = {}
    check_seed = str(result["check_seed"])
    observed = {str(args.seed): result["counts"],
                check_seed: result["check_counts"]}
    if args.record:
        reference.setdefault(args.workload, {}).update(observed)
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
    for seed, counts in observed.items():
        want = reference.get(args.workload, {}).get(seed)
        if want is None:
            if seed == check_seed:
                errors.append(f"no reference recorded for {args.workload} "
                              f"seed {seed}")
        elif want != counts:
            errors.append(f"seed {seed}: outputs {counts} differ from the "
                          f"reference {want}")

    if args.trace == 1:
        suffix = ".engine.json" if result["regime"]["lifecycle"] else \
            ".replay.json"
        check_trace(risa_cli, trace_prefix + suffix, errors)

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "repetitions": result["repetitions"],
              "wall_s": round(time.monotonic() - t0, 3),
              "regime": result["regime"], "counts": result["counts"],
              "provenance": provenance(result["build"]), "errors": errors}
    print(json.dumps(report, sort_keys=True))
    correct = not errors
    attempted = int(result["attempted"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
