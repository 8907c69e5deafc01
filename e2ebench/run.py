#!/usr/bin/env python3
"""End-to-end benchmark of record for resched (see README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload svc_easy --seed 42 --seconds 25 --trace 0
    python3 e2ebench/run.py --seed 42            # every workload, untraced and traced
    python3 e2ebench/run.py --smoke              # tiny sizes, self-checks, < 15 s

The script builds the driver (Release, into .bench_build/), times set-up
over several spawns, runs one workload per process, checks the outputs and
prints every metric by name with its unit. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Each run
also leaves a result file with its run context under .bench_out/, which
compare.py reads.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "resched_e2e"
EXPECTED = HERE / "expected_seed42.json"
# The expected file pins the outcomes of the first units of a seed-42 run
# (a run measures hundreds of service streams).
EXPECTED_UNITS = 32

SETUP_SPAWNS = 9
PROCESS_TIMEOUT_S = 170
# Set-up is timed beside a spawn of `true` and reported as if that had taken
# this long (README.md, "Host-speed calibration"); the driver scales its own
# times by a calibration kernel.
SPAWN_REF_S = 0.0006


class BenchError(Exception):
    """A failure that leaves no result to print (missing sources, build)."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


# ---- build and run context ---------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"resched sources not found under {ROOT}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "resched_e2e",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise BenchError("build failed: " + " ".join(cmd))


def cache_value(key):
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def run_context():
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    return {"nproc": os.cpu_count(), "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "compiler": version, "git_rev": rev}


# ---- one workload --------------------------------------------------------------

def driver_cmd(workload, seed, smoke):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    return cmd + ["--smoke"] if smoke else cmd


def measure_setup(workload, seed, smoke):
    """Returns (median seconds from spawn to the driver's 'ready' line,
    median seconds to spawn and reap `true`), interleaved spawn by spawn."""
    true = shutil.which("true")
    if true is None:
        raise BenchError("`true` not found on PATH")
    samples, baseline = [], []
    for _ in range(SETUP_SPAWNS):
        begin = time.perf_counter()
        subprocess.run([true], check=True)
        baseline.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        with subprocess.Popen(driver_cmd(workload, seed, smoke) + ["--setup-only"],
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                samples.append(time.perf_counter() - begin)
                proc.communicate(timeout=PROCESS_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up spawn of {workload} failed: {line!r}")
    return statistics.median(samples), statistics.median(baseline)


def run_driver(workload, seed, seconds, trace, smoke):
    cmd = driver_cmd(workload, seed, smoke) + [
        "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT_DIR / f"trace-{workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"driver exceeded {PROCESS_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"driver exited {done.returncode} without a result"}


def canonical(obj):
    return json.dumps(obj, sort_keys=True)


def agree(a, b):
    """Per-unit fingerprint lists agree on the units both reps ran."""
    if not isinstance(a, list) or not isinstance(b, list):
        return False
    n = min(len(a), len(b))
    return n > 0 and canonical(a[:n]) == canonical(b[:n])


def rep_of(raw, kind):
    return next(r for r in raw["reps"] if r["kind"] == kind)


def check(raw, workload, seed, smoke, expected_path):
    """Returns the list of failed correctness checks."""
    if "error" in raw:
        return [f"driver error: {raw['error']}"]
    problems = []
    timed = rep_of(raw, "timed")
    for rep in raw["reps"]:
        for key in ("outcome", "path"):
            if not agree(rep[key], timed[key]):
                problems.append(f"{key} fingerprint of a {rep['kind']} rep differs "
                                f"from the timed rep")
    if seed == 42 and expected_path is not None:
        if not Path(expected_path).is_file():
            return problems + [f"{expected_path} not found"]
        expected = json.loads(Path(expected_path).read_text())
        want = expected.get("smoke" if smoke else "full", {}).get(workload)
        if want is None:
            problems.append(f"{expected_path} has no fingerprint for {workload}")
        elif not agree(want, timed["outcome"]):
            problems.append(f"outcome differs from {expected_path}: "
                            f"got {canonical(timed['outcome'])}")
    return problems


def end_to_end_metrics(raw, setup):
    """The timed rep's values, which the driver scaled to reference speed."""
    timed = rep_of(raw, "timed")
    return {
        "jobs_per_s": timed["jobs_per_s"],
        "decision_p50_ns": timed["p50_ns"],
        "decision_p99_ns": timed["p99_ns"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": setup[0] * SPAWN_REF_S / setup[1],
    }


def per_layer_metrics(raw, names):
    """The traced rep's layers, plus two metrics derived across reps."""
    timed = rep_of(raw, "timed")
    traced = rep_of(raw, "traced")
    out = {name: traced["layers"][name] for name in names
           if name in traced["layers"]}
    out["trace.overhead_frac"] = timed["jobs_per_s"] / traced["jobs_per_s"] - 1.0
    # The one-thread rep runs the first unit only. A single-threaded
    # workload is its own one-thread baseline.
    one_thread = [r for r in raw["reps"] if r["kind"] == "one_thread"]
    out["sim.parallel_eff"] = (
        one_thread[0]["wall_s"] / (timed["units"][0]["wall_s"] * raw["threads"])
        if one_thread else 1.0)
    return out


def run_workload(spec, workload, seed, seconds, trace, smoke, expected_path):
    """Runs one workload in its own process; returns the result record."""
    load_before = os.getloadavg()
    setup = None if trace else measure_setup(workload, seed, smoke)
    raw = run_driver(workload, seed, seconds, trace, smoke)
    load_after = os.getloadavg()
    problems = check(raw, workload, seed, smoke, expected_path)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {}
    attempted = failed = 0
    if "error" not in raw:
        values = (per_layer_metrics(raw, units) if trace
                  else end_to_end_metrics(raw, setup))
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units if name in values}
        problems += [f"{name} was not reported" for name in units
                     if name not in values]
        counted = [r for r in raw["reps"] if r["kind"] in ("timed", "traced")]
        attempted = sum(r["attempted"] for r in counted)
        failed = sum(r["failed"] for r in counted)
    if problems:
        failed = attempted = max(attempted, 1)
    context = run_context()
    context.update(load_before=load_before, load_after=load_after)
    context["load_flag"] = max(load_before[0], load_after[0]) > (os.cpu_count() or 1)
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
        "seconds": seconds, "context": context,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "samples": None if trace or "error" in raw else rep_of(raw, "timed")["samples"],
        "setup_spawn_s": setup,  # [driver to ready, `true`], medians
        "reps": [{k: r[k] for k in ("kind", "wall_s", "jobs_per_s", "units")}
                 for r in raw.get("reps", [])],
        "outcome": rep_of(raw, "timed")["outcome"] if "reps" in raw else None,
    }


def report(result):
    """Human-readable lines, then the result file with its run context."""
    ctx = result["context"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"reps={len(result['reps'])} nproc={ctx['nproc']} "
          f"build={ctx['build_type']} compiler={ctx['compiler']!r} "
          f"rev={ctx['git_rev'][:12]} load={ctx['load_before'][0]:.2f}->"
          f"{ctx['load_after'][0]:.2f}")
    if ctx["load_flag"]:
        print("# WARNING: load average exceeded nproc; timings are suspect")
    for name, metric in result["metrics"].items():
        extra = ""
        if name.startswith("decision_p") and result["samples"] is not None:
            extra = f"  (samples={result['samples']})"
        print(f"{result['workload']:16s} {name:36s} {metric['value']:.6g} "
              f"{metric['unit']}{extra}")
    print(f"{result['workload']:16s} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    name = (f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
            f"{'-smoke' if result['smoke'] else ''}-{stamp}.json")
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")


def summary_line(results):
    metrics = {}
    for r in results:
        for name, metric in r["metrics"].items():
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            metrics[key] = metric
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


# ---- smoke -----------------------------------------------------------------

def smoke_checks(results):
    """What the smoke asserts beyond the per-run correctness checks."""
    problems = [f"{r['workload']}: {r['failed']} failed operations"
                for r in results if r["failed"]]
    outcomes = {}
    for r in results:
        outcomes.setdefault(r["workload"], set()).add(canonical(r["outcome"]))
    problems += [f"{workload}: traced and untraced outcomes differ"
                 for workload, seen in outcomes.items() if len(seen) != 1]
    done = subprocess.run([sys.executable, str(HERE / "compare.py"), "--selftest"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        problems.append("compare.py --selftest failed:\n" + done.stdout + done.stderr)
    return problems


# ---- main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="1: traced run, per-layer metrics; with no "
                             "--workload, default runs both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes, self-checks")
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="expected fingerprints for seed 42")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this run's seed-42 outcomes as expected")
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; choose from {names}")
        build()
        if cache_value("CMAKE_BUILD_TYPE") != "Release":
            raise BenchError(f"refusing a {cache_value('CMAKE_BUILD_TYPE')!r} build; "
                             f"delete {BUILD_DIR} to reconfigure as Release")
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else spec["run_seconds"]
    workloads = [args.workload] if args.workload else names
    if args.trace is not None:
        modes = [bool(args.trace)]
    else:
        modes = [False, True] if args.workload is None or args.smoke else [False]

    results = []
    try:
        for workload in workloads:
            for trace in modes:
                result = run_workload(spec, workload, args.seed, seconds, trace,
                                      args.smoke,
                                      None if args.update_expected else args.expected)
                report(result)
                results.append(result)
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 2

    if args.update_expected:
        if args.seed != 42:
            sys.stderr.write("run.py: --update-expected needs --seed 42\n")
            return 2
        path = Path(args.expected)
        expected = json.loads(path.read_text()) if path.is_file() else {}
        section = expected.setdefault("smoke" if args.smoke else "full", {})
        # A traced run measures fewer units; keep the longest list.
        for r in sorted((r for r in results if r["outcome"] is not None),
                        key=lambda r: len(r["outcome"])):
            section[r["workload"]] = r["outcome"][:EXPECTED_UNITS]
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    line = summary_line(results)
    if args.smoke:
        problems = smoke_checks(results)
        for problem in problems:
            print(f"# SMOKE FAILED: {problem}")
        line["correct"] = line["correct"] and not problems
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
