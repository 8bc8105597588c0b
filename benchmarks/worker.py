"""One benchmark iteration (or the micro-loops) in a fresh process.

Usage: python3 benchmarks/worker.py '<json spec>'

The spec names the checkout root, the mode ("iteration" or "micro"),
and for an iteration the workload, its ScenarioConfig fields, the CSV
path, and whether to trace.  The last line of standard output is a JSON
object with monotonic timestamps, request samples, peak RSS, check
results, the CSV fingerprint and, when traced, the per-layer numbers.
``time.monotonic_ns`` is one system-wide clock, so the parent can time
set-up from the moment it started this process.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def import_program(root: Path):
    """Import balancedn from the checkout's own sources, nowhere else."""
    src = root / "src"
    if not (src / "balancedn" / "__init__.py").is_file():
        raise SystemExit(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    import balancedn
    if Path(balancedn.__file__).resolve().parent != (src / "balancedn").resolve():
        raise SystemExit(f"balancedn imported from {balancedn.__file__}, not {src}")
    return balancedn


def install_layers(tracer, sim_seen: dict) -> None:
    """Wrap the public calls of each module that the workloads reach."""
    from balancedn import core, engine, node, resolution, scenarios, topology

    tracer.wrap(scenarios, "run_scenario", "scenarios.run_scenario")
    tracer.wrap(scenarios, "load_preset", "topology.load")
    tracer.wrap(scenarios, "load_topology", "topology.load")
    tracer.wrap(scenarios, "synthetic_corpus", "scenarios.corpus")
    tracer.wrap(scenarios, "emit_csv", "metrics.emit")
    tracer.wrap(resolution.Deployment, "register_bulk", "resolution.register_bulk")

    def resolved(args, outcome):
        if not outcome.shortcut_taken:
            tracer.count("resolution.tld_path")

    tracer.wrap(resolution.Deployment, "resolve_and_fetch", "resolution.resolve",
                request=True, on_result=resolved)

    def drained(args, result):
        sim_seen[id(args[0])] = args[0]

    tracer.wrap(engine.Simulation, "run_until", "engine.run_until",
                request=True, on_result=drained)
    tracer.wrap(topology, "shortest_paths", "topology.bfs")
    tracer.wrap(topology.PathTable, "path", "topology.path", keep=False)
    tracer.wrap(topology.Topology, "link_between", "topology.link_between", keep=False)

    counts = tracer.counts
    counts["engine.peak_queue"] = 0

    def scheduled(args, result):
        depth = len(args[0])
        if depth > counts["engine.peak_queue"]:
            counts["engine.peak_queue"] = depth

    tracer.wrap(engine.EventQueue, "schedule", "engine.schedule", keep=False,
                on_result=scheduled)
    tracer.wrap(node.NdnNode, "on_interest", "node.on_interest", keep=False)
    tracer.wrap(node.NdnNode, "on_data", "node.on_data", keep=False)

    def expired(args, entry):
        if entry is not None:
            tracer.count("node.expire_pit_useful")

    tracer.wrap(node.NdnNode, "expire_pit", "node.expire_pit", keep=False,
                on_result=expired)
    tracer.wrap(core.InterestPacket, "delivered_to", "core.delivered_to", keep=False)
    tracer.wrap(core.DataPacket, "delivered_to", "core.delivered_to", keep=False)
    tracer.count_property(core.ContentName, "canonical_text", "core.canonical_text")


def layer_metrics(tracer, sims: list) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    floods = tracer.calls("engine.run_until")
    events = sum(sim.processed for sim in sims)
    interest = sum(flow.interest_traversals for sim in sims for flow in sim.flows.values())
    expiries = tracer.calls("node.expire_pit")
    resolves = tracer.calls("resolution.resolve")
    counts = tracer.counts
    return {
        "engine.events": events,
        "engine.events_per_request": events / floods if floods else 0,
        "engine.self_s": tracer.self_s("engine.run_until") + tracer.self_s("engine.schedule"),
        "engine.schedule_calls": tracer.calls("engine.schedule"),
        "engine.peak_queue": counts.get("engine.peak_queue", 0),
        "engine.interest_traversals_per_request": interest / floods if floods else 0,
        "node.on_interest_calls": tracer.calls("node.on_interest"),
        "node.on_interest_self_s": tracer.self_s("node.on_interest"),
        "node.on_data_calls": tracer.calls("node.on_data"),
        "node.on_data_self_s": tracer.self_s("node.on_data"),
        "node.expire_pit_calls": expiries,
        "node.expire_pit_useful_ratio":
            counts.get("node.expire_pit_useful", 0) / expiries if expiries else 0,
        "node.duplicates_suppressed": sum(sim.duplicates_suppressed for sim in sims),
        "core.delivered_to_calls": tracer.calls("core.delivered_to"),
        "core.delivered_to_s": tracer.total_s("core.delivered_to"),
        "core.canonical_text_calls": counts.get("core.canonical_text", 0),
        "resolution.resolve_calls": resolves,
        "resolution.resolve_self_us_mean":
            tracer.self_s("resolution.resolve") * 1e6 / resolves if resolves else 0,
        "resolution.tld_path_ratio":
            counts.get("resolution.tld_path", 0) / resolves if resolves else 0,
        "resolution.register_bulk_s": tracer.total_s("resolution.register_bulk"),
        "topology.path_calls": tracer.calls("topology.path"),
        "topology.link_between_calls": tracer.calls("topology.link_between"),
        "topology.bfs_calls": tracer.calls("topology.bfs"),
        "topology.bfs_s": tracer.total_s("topology.bfs"),
        "topology.load_s": tracer.total_s("topology.load"),
        "scenarios.corpus_s": tracer.total_s("scenarios.corpus"),
        "scenarios.self_s": tracer.self_s("scenarios.run_scenario"),
        "metrics.emit_s": tracer.total_s("metrics.emit"),
    }


def run_iteration(spec: dict) -> dict:
    from balancedn import engine, resolution, scenarios
    from tracer import Tracer
    import workloads

    workload = spec["workload"]
    inputs = dict(spec["inputs"])
    tracer = None
    sims: dict[int, object] = {}
    if spec["trace"]:
        tracer = Tracer()
        install_layers(tracer, sims)

    # Outermost timer on the request call: the first call ends set-up.
    kind = workloads.REQUEST_KIND[workload]
    owner, attr = {"flood": (engine.Simulation, "run_until"),
                   "lookup": (resolution.Deployment, "resolve_and_fetch")}[kind]
    request_call = getattr(owner, attr)
    stamps: list[int] = []

    def timed(*args, **kwargs):
        start = time.monotonic_ns()
        result = request_call(*args, **kwargs)
        stamps.append(start)
        stamps.append(time.monotonic_ns())
        return result

    setattr(owner, attr, timed)

    # The deployments the scenario registers its corpus in, for the checks.
    deployments: list = []
    register_bulk = resolution.Deployment.register_bulk

    def register(self, *args, **kwargs):
        deployments.append(self)
        return register_bulk(self, *args, **kwargs)

    resolution.Deployment.register_bulk = register
    inputs["schemes"] = tuple(inputs.get("schemes", scenarios.SCHEMES))
    config = scenarios.ScenarioConfig(**inputs, out=spec["csv"])
    report = scenarios.run_scenario(config)
    t_end = time.monotonic_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    samples_us = [(stamps[i + 1] - stamps[i]) / 1000.0 for i in range(0, len(stamps), 2)]
    errors = workloads.check_outputs(workload, inputs, report, deployments)
    fingerprint = hashlib.sha256(Path(spec["csv"]).read_bytes()).hexdigest()
    result = {
        "t_first": stamps[0] if stamps else t_end,
        "t_end": t_end,
        "samples_us": samples_us,
        "peak_rss_mb": peak_rss_mb,
        "requests": workloads.requests_attempted(report),
        "unsatisfied": workloads.unsatisfied(report),
        "errors": errors,
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, list(sims.values()))
        tracer.write_spans(spec["spans"])
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    import_program(Path(spec["root"]))
    if spec["mode"] == "micro":
        from micro import micro_loops
        result = micro_loops(spec["seed"])
    else:
        result = run_iteration(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
