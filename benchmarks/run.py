"""Benchmark for the balancedn simulator.

Usage:
    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; without --workload every workload in
BENCHMARK.json runs in turn.  Each iteration is a fresh single-threaded
process (benchmarks/worker.py) that runs one scenario through
``balancedn.scenarios.run_scenario``.  Iterations repeat while the next
one is expected to end within --seconds (at least MIN_ITERATIONS
untraced ones).  Every iteration of one seed makes the same requests in
the same order, so each request is timed once per iteration.  The
end-to-end metrics are:

    setup_s          worker start until its first request (imports,
                     topology, corpus, registration), scaled by the
                     host's speed just before that iteration (below),
                     median over iterations
    req_norm_us_p10  10th percentile, over the distinct requests, of each
                     request's best host time across the iterations,
                     scaled by the host's best speed in the run
    peak_rss_mb      the worker's peak resident set, median over iterations

A shared host can run the same code at speeds up to twice apart, in
phases from a fraction of a second to minutes.  Best-of-iterations
(timeit's rule) drops the short phases from the request metric: a
request's fastest repeat is the one that lost least to other tenants.
The long phases are divided out: before each iteration this process
times REFERENCE_REPS passes of a fixed reference loop (dicts, small
objects, a heap; none of the program's code).  Set-up times are scaled
by REFERENCE_NOMINAL_US over that pass's median, best request times by
REFERENCE_NOMINAL_US over the run's best pass.  So a slower program
reads slower, while a slower host reads the same.  The raw figures
(setup_raw_s, req_best_us_p10/p50/p99), the reference loop's times, and
the plain medians run_s (first request until the CSV is written), pooled
req_us_p50 and req_us_p99 are printed and written to the result file
too; they follow the host's phases too closely to gate a change.

With --trace 1 each round is one untraced and one traced iteration, and
the per-layer metrics come from the traced one, plus the micro-loops
(benchmarks/micro.py) run afterwards in their own process.  Every
iteration's outputs are checked; failures and unsatisfied requests
count as failed.  Results, host facts and CSV fingerprints go to
.bench_runs/; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_runs"
MIN_ITERATIONS = 3
# Every run must end well inside 180 s: no iteration starts past this.
BUDGET_S = 150.0
# The reference loop's time on an uncontended core of the host the
# benchmark was defined on (Intel Xeon vCPU at 2.0 GHz, Python 3.11);
# scaled times read as host time on such a core.
REFERENCE_NOMINAL_US = 2400.0
REFERENCE_REPS = 30
REFERENCE_KEYS = [f"/cat{i % 16}/obj{i}-{i * 7919 % 65536:04x}" for i in range(2000)]


class BenchError(RuntimeError):
    pass


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the simulator's: dicts keyed by
    names, small objects, a heap of tuples and string splits."""
    table = {}
    heap: list[tuple[int, int, str]] = []
    for i, key in enumerate(REFERENCE_KEYS):
        table[key] = _Entry(key, i)
        heapq.heappush(heap, (i * 7 % 101, i, key))
    total = 0
    while heap:
        _, i, key = heapq.heappop(heap)
        entry = table.get(key)
        if entry is not None and entry.value == i:
            total += len(key.split("/"))
    return total


def reference_pass() -> list[float]:
    """REFERENCE_REPS timings of the reference loop in microseconds: the
    host's speed now."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPS):
            start = time.perf_counter_ns()
            reference_loop()
            times.append((time.perf_counter_ns() - start) / 1000.0)
    finally:
        gc.enable()
    return times


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker process; returns its result, timed from its start."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ, PYTHONHASHSEED=str(spec["seed"] % 2**32))
    t_spawn = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "t_first" in result:
        result["setup_s"] = (result["t_first"] - t_spawn) / 1e9
        result["run_s"] = (result["t_end"] - result["t_first"]) / 1e9
    return result


def iteration_spec(workload: str, seed: int, inputs: dict, trace: bool) -> dict:
    tag = f"{workload}-seed{seed}"
    return {"root": str(ROOT), "mode": "iteration", "workload": workload,
            "seed": seed, "inputs": inputs, "trace": trace,
            "csv": str(RUN_DIR / f"{tag}{'-traced' if trace else ''}.csv"),
            "spans": str(RUN_DIR / f"{tag}.spans.json")}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_per_request(iterations: list[dict]) -> list[float]:
    """Each request's fastest time over the iterations (same seed, same order)."""
    return [min(times) for times in zip(*(it["samples_us"] for it in iterations))]


def end_to_end(iterations: list[dict], passes: list[list[float]]) -> dict[str, float]:
    """``passes[i]`` is the reference pass made just before ``iterations[i]``."""
    best_scale = REFERENCE_NOMINAL_US / min(min(times) for times in passes)
    return {
        "setup_s": statistics.median(
            it["setup_s"] * REFERENCE_NOMINAL_US / statistics.median(times)
            for it, times in zip(iterations, passes)),
        "req_norm_us_p10": percentile(best_per_request(iterations), 10) * best_scale,
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
    }


def informational(iterations: list[dict], passes: list[list[float]]) -> dict[str, float]:
    """Figures printed beside the metrics; too host-bound to gate a change."""
    best = best_per_request(iterations)
    pooled = [s for it in iterations for s in it["samples_us"]]
    return {
        "reference_best_us": min(min(times) for times in passes),
        "reference_median_us": statistics.median(statistics.median(t) for t in passes),
        "setup_raw_s": statistics.median(it["setup_s"] for it in iterations),
        "req_best_us_p10": percentile(best, 10),
        "req_best_us_p50": percentile(best, 50),
        "req_best_us_p99": percentile(best, 99),
        "run_s": statistics.median(it["run_s"] for it in iterations),
        "req_us_p50": percentile(pooled, 50),
        "req_us_p99": percentile(pooled, 99),
    }


def per_layer(plain: list[dict], traced: list[dict], micro: dict) -> dict[str, float]:
    layers = {name: statistics.median(it["layers"][name] for it in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(it["run_s"] for it in traced)
                                  - statistics.median(it["run_s"] for it in plain))
    layers.update(micro)
    return layers


def host_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": os.getloadavg(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    RUN_DIR.mkdir(exist_ok=True)
    host = host_facts()
    start = time.monotonic()
    deadline = start + BUDGET_S + 25
    inputs = workloads.scenario_inputs(workload, seed, ROOT, RUN_DIR)
    plain: list[dict] = []
    traced: list[dict] = []
    passes: list[list[float]] = []
    while True:
        began = time.monotonic()
        passes.append(reference_pass())
        plain.append(spawn(iteration_spec(workload, seed, inputs, False), deadline))
        if trace:
            traced.append(spawn(iteration_spec(workload, seed, inputs, True), deadline))
        now = time.monotonic()
        # Stop when another round of the same length would pass --seconds.
        finish = now - start + (now - began)
        if len(plain) >= (1 if trace else MIN_ITERATIONS) and finish > seconds:
            break
        if finish > BUDGET_S:
            break
    everything = plain + traced
    fingerprints = {it["fingerprint"] for it in everything}
    errors = [e for it in everything for e in it["errors"]]
    if len(fingerprints) > 1:
        errors.append(f"iterations of one seed wrote different CSVs: {sorted(fingerprints)}")
    if len({len(it["samples_us"]) for it in everything}) > 1:
        errors.append("iterations of one seed timed different numbers of requests")
    if trace:
        micro = spawn({"root": str(ROOT), "mode": "micro", "seed": seed}, deadline)
        errors += micro["errors"]
        metrics = per_layer(plain, traced, micro["metrics"])
    else:
        metrics = end_to_end(plain, passes)
    attempted = sum(it["requests"] for it in everything)
    failed = sum(it["unsatisfied"] for it in everything) + len(errors)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host, "iterations": len(plain), "traced_iterations": len(traced),
        "distinct_requests": len(plain[0]["samples_us"]),
        "request_kind": workloads.REQUEST_KIND[workload],
        "fingerprint": fingerprints.pop() if len(fingerprints) == 1 else None,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "errors": errors[:20], "metrics": metrics, "informational": informational(plain, passes),
        "raw": [{k: it[k] for k in ("setup_s", "run_s", "peak_rss_mb")} for it in plain],
    }
    out = RUN_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def print_report(result: dict, units: dict[str, str]) -> None:
    print(f"{result['workload']} seed {result['seed']}: {result['iterations']} iterations"
          f" (+{result['traced_iterations']} traced), each timing the same"
          f" {result['distinct_requests']} {result['request_kind']} requests")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")
    for name, value in result["informational"].items():
        unit = "s" if name.endswith("_s") else "us"
        print(f"  {name:40s} {value:14.6g} {unit} (not gated)")
    print(f"  {'failed_ratio':40s} {result['failed_ratio']:14.6g}"
          f" ({result['failed']} of {result['attempted']})")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    print(f"  fingerprint sha256 {result['fingerprint']}")
    host = result["host"]
    print(f"  host: nproc={host['nproc']} python={host['python']}"
          f" loadavg={','.join(f'{x:.2f}' for x in host['loadavg'])}"
          f" commit={host['commit']} src_sha256={host['src_sha256'][:16]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.REQUEST_KIND))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "balancedn" / "__init__.py").is_file():
        sys.stderr.write(f"error: no balancedn sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]

    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(result, units)
            missing = set(wanted) - set(result["metrics"])
            if missing:
                raise BenchError(f"metrics not measured: {sorted(missing)}")
            results.append(result)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    def entry(result: dict, name: str) -> dict:
        return {"value": result["metrics"][name], "unit": units[name]}

    if len(results) == 1:
        metrics = {name: entry(results[0], name) for name in wanted}
    else:
        metrics = {f"{r['workload']}.{name}": entry(r, name) for r in results for name in wanted}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
