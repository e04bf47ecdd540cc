#!/usr/bin/env python3
"""The psc benchmark: builds the program from source, runs one workload and
prints every metric by name and unit.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): serve_mix, oneshot_federation, mc_fleet.
With --trace 0 the last stdout line carries the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run. The run exits nonzero on any wrong answer or impossible value.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fixed tail percentile per workload and request class: tail_percentile of
# half the sample count a 30 s run produces here, so a host twice as slow
# still keeps at least MIN_BEYOND samples beyond it.
TAILS = {
    "serve_mix": {"answer": 99, "check": 80, "write": 80},
    "oneshot_federation": {"answer": 98, "check": 99},
    "mc_fleet": {"answer": 95, "check": 95},
}
MIN_BEYOND = 10
# Centre percentile per request class. Checks use the lower quartile: the
# check is single-threaded, and on a shared host it runs in a fast mode or
# one about 45% slower depending on the vCPU it lands on. The share of slow
# placements changes from run to run, so on mc_fleet, whose checks repeat
# identical work, a median jumps between the two modes while the lower
# quartile stays in the fast one.
CENTRES = {"answer": 50, "check": 25, "write": 50}
# serve_mix: the answer tail every ladder rung must meet to count towards
# capacity_rps.
LATENCY_LIMIT_MS = 10.0
CANDIDATE_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75)


class BenchError(Exception):
    """A failed build, a failed run or an impossible value."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample set")
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n, q):
    return round(n * (100.0 - q) / 100.0, 9)


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None."""
    for q in CANDIDATE_PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def latency_summary(name, values, q):
    """The centre (CENTRES) and the fixed tail of one request class; errors
    when the tail has too few samples beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        raise BenchError(
            "%s: p%g needs %d samples beyond it, only %.1f of %d"
            % (name, q, MIN_BEYOND, samples_beyond(len(values), q), len(values)))
    return percentile(values, CENTRES[name]), percentile(values, q)


def rung_report(ladder, rates, tail_q, limit_ms):
    """Per-rung answer tail and backlog, and capacity_rps: the highest rate
    whose rung, and every rung below it, meets limit_ms without a growing
    backlog. A backlog grows when answers due in the last quarter of a rung
    wait more than twice as long (plus 1 ms) as those due in its first."""
    rungs = []
    for r, rate in enumerate(rates):
        rows = [(due, lat) for rung, kind, due, lat in zip(
            ladder["rung"], ladder["kind"], ladder["due_ms"], ladder["latency_ms"])
                if rung == r and kind == 0]
        if not rows:
            rungs.append({"rate": rate, "answers": 0, "tail_ms": None, "growing": True})
            continue
        rows.sort()
        start, end = rows[0][0], rows[-1][0]
        span = max(end - start, 1e-9)
        first = [lat for due, lat in rows if due <= start + span / 4]
        last = [lat for due, lat in rows if due >= end - span / 4]
        growing = statistics.median(last) > 2 * statistics.median(first) + 1.0
        q = tail_q if samples_beyond(len(rows), tail_q) >= MIN_BEYOND else tail_percentile(len(rows))
        tail = percentile([lat for _, lat in rows], q) if q else max(lat for _, lat in rows)
        rungs.append({"rate": rate, "answers": len(rows), "tail_ms": tail,
                      "tail_q": q, "growing": growing})
    capacity = 0.0
    for rung in rungs:
        if rung["tail_ms"] is None or rung["growing"] or rung["tail_ms"] > limit_ms:
            break
        capacity = float(rung["rate"])
    return rungs, capacity


# ---------------------------------------------------------------------------
# build and run


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("psc source tree not found next to %s" % HERE)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", out, "-j", jobs, "--target", "psc_perfbench", "pscd"])
    return out


def run_logged(command):
    completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if completed.returncode != 0:
        raise BenchError("command failed (%d): %s" % (completed.returncode, " ".join(command)))


def run_harness(out, args):
    workdir = os.path.join(out, "runs", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [os.path.join(out, "psc_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pscd", os.path.join(out, "pscd")]
    command += args.harness_args
    process = subprocess.Popen(command, cwd=workdir, stdout=subprocess.PIPE,
                               start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=max(120.0, 4.0 * args.seconds))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError("the workload did not finish in time")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("the workload printed no record (exit %d)" % process.returncode)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        raise BenchError("unreadable workload record")
    return process.returncode, record


def cmake_cache(out):
    cache = {}
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as handle:
            for line in handle:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def environment(out, record, args):
    cache = cmake_cache(out)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            version = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "psc_obs": cache.get("PSC_OBS", ""),
        "sanitize": cache.get("PSC_SANITIZE", ""),
        "psc_threads_env": os.environ.get("PSC_THREADS", ""),
        "resolved_threads": record.get("env", {}).get("resolved_threads"),
        "git_sha": sha,
        "seed": args.seed,
        "traced": bool(args.trace),
        "workload": args.workload,
    }


# ---------------------------------------------------------------------------
# metrics


def check_value(name, value, unit):
    if value is None or not isinstance(value, (int, float)) or math.isnan(value) \
            or math.isinf(value):
        raise BenchError("impossible value: %s is %r" % (name, value))
    if unit in ("ms", "us", "s") and value < 0:
        raise BenchError("impossible value: negative duration %s = %r %s" % (name, value, unit))


def generator_lag(extra, seconds):
    """p99 of how late the generator sent reference-rung requests, ms."""
    ladder = extra["ladder"]
    lag = [value for rung, value in zip(ladder["rung"], ladder["lag_ms"])
           if rung == extra["reference_rung"]]
    value = percentile(lag, 99) if lag else 0.0
    if value > seconds * 1000.0:
        raise BenchError("impossible value: generator lag %.1f ms beyond the run length" % value)
    return value


def end_to_end(workload, result, seconds):
    """End-to-end metrics plus the workload-specific extras, as
    {name: (value, unit)}, after the impossible-value guards."""
    samples = result["samples"]
    tails = TAILS[workload]
    metrics = {}
    if not result["setup_s"]:
        raise BenchError("no set-up was timed")
    metrics["setup_s"] = (statistics.median(result["setup_s"]), "s")
    for cls, q in sorted(tails.items()):
        values = samples.get(cls, [])
        centre, tail = latency_summary(cls, values, q)
        if centre > tail:
            raise BenchError("impossible value: %s p%d %.6g > p%g %.6g"
                             % (cls, CENTRES[cls], centre, q, tail))
        metrics["%s_p%d_ms" % (cls, CENTRES[cls])] = (centre, "ms")
        metrics["%s_tail_ms" % cls] = (tail, "ms")
        metrics["%s_tail_pct" % cls] = (q, "pct")
        metrics["%s_samples" % cls] = (len(values), "count")
    metrics["ops_per_s"] = (result["ops_per_s"], "op/s")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    attempted = max(1, result["attempted"])
    metrics["fail_frac"] = (result["failed"] / attempted, "ratio")
    extra = result.get("extra", {})
    if workload == "serve_mix":
        rungs, capacity = rung_report(extra["ladder"], extra["rung_rates"],
                                      tails["answer"], LATENCY_LIMIT_MS)
        metrics["capacity_rps"] = (capacity, "req/s")
        for rung in rungs:
            if rung["tail_ms"] is not None:
                metrics["rung_%d_answer_tail_ms" % rung["rate"]] = (rung["tail_ms"], "ms")
        metrics["gen.lag_ms"] = (generator_lag(extra, seconds), "ms")
    for name, (value, unit) in metrics.items():
        check_value(name, value, unit)
    return metrics


def per_layer(workload, result, seconds, layer_specs):
    """Per-layer metrics of a traced run; 0 for layers the workload never
    enters. Rejects self times that sum past their traced parents."""
    extra = result.get("extra", {})
    if extra.get("negative_self_spans", 0) > 0:
        raise BenchError("impossible value: %d spans' children sum past them"
                         % extra["negative_self_spans"])
    self_time = extra.get("self_time", {})
    for name, entry in self_time.items():
        if entry["self_ms"] < 0 or entry["self_ms"] > entry["total_ms"]:
            raise BenchError("impossible value: span %s self %.6g ms vs total %.6g ms"
                             % (name, entry["self_ms"], entry["total_ms"]))
    layers = dict(result.get("layers", {}))
    if workload == "serve_mix":
        layers["gen.lag_ms"] = generator_lag(extra, seconds)
    elif layers.get("gen.lag_ms", 0.0) > seconds * 1000.0:
        raise BenchError("impossible value: generator lag beyond the run length")
    metrics = {}
    for spec in layer_specs:
        value = layers.get(spec["name"], 0.0)
        check_value(spec["name"], value, spec["unit"])
        metrics[spec["name"]] = (value, spec["unit"])
    return metrics, self_time


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAILS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("harness_args", nargs="*",
                        help="extra psc_perfbench flags after --, e.g. --stall-ms 100")
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        out = build()
        returncode, record = run_harness(out, args)
        env = environment(out, record, args)
        print("env: " + json.dumps(env, sort_keys=True))
        if env["build_type"] not in ("Release", "RelWithDebInfo") or env["sanitize"]:
            warning = ("WARNING: %s build%s: timings are not representative"
                       % (env["build_type"] or "untyped",
                          " with sanitizer " + env["sanitize"] if env["sanitize"] else ""))
            print(warning)
            log(warning)
        result = record["result"]
        for reason, count in sorted(result.get("fail_reasons", {}).items()):
            print("failure %s: %d" % (reason, count))
        for error in result.get("errors", []):
            print("WRONG: " + error)
        if args.trace:
            metrics, self_time = per_layer(args.workload, result, args.seconds,
                                           spec["per_layer"])
            for name, entry in sorted(self_time.items()):
                print("self %-32s calls %7d  total %10.3f ms  self %10.3f ms"
                      % (name, entry["calls"], entry["total_ms"], entry["self_ms"]))
            reported = metrics
        else:
            metrics = end_to_end(args.workload, result, args.seconds)
            reported = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
        for name, (value, unit) in sorted(metrics.items()):
            print("metric %-34s %14.6g %s" % (name, value, unit))
    except BenchError as error:
        log("perfbench: %s" % error)
        return 1
    correct = returncode == 0 and not result.get("errors")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
