"""The benchmark's workloads: inputs made from the seed, and output checks.

Every workload runs one scenario through ``balancedn.scenarios.run_scenario``,
the call ``balancedn run`` makes.  The rationale for each workload is in
``BENCHMARK.json``.  The checks use oracles kept here (a bitwise
CRC-16/ARC and a plain BFS), not the program's own code.
"""

from __future__ import annotations

import random
from collections import deque
from pathlib import Path

# What one timed request is, per workload: a flood's run_until(None)
# drain, or one resolve_and_fetch.
REQUEST_KIND = {"flood-ote": "flood", "balancedn-ote": "lookup"}

# 6 consumers x 60 foreign producers = 360 floods per iteration.
FLOOD_CONSUMERS = 6
FLOOD_CONTENT = 20_000
# 15% of the s3 default corpus: registering it is most of set-up, yet an
# iteration is short enough to repeat every lookup about ten times in a
# run, which best-of-iterations timing needs.
SWEEP_CONTENT = 150_000
CRC_SAMPLES_PER_SHARD = 100


def scenario_inputs(workload: str, seed: int, root: Path, run_dir: Path) -> dict:
    """ScenarioConfig fields for one workload, generated from ``seed``."""
    if workload == "flood-ote":
        preset = root / "src" / "balancedn" / "presets" / "oteglobe.topo"
        topo = run_dir / f"flood-ote-seed{seed}.topo"
        topo.write_text(consumer_subset(preset.read_text("utf-8"), seed),
                        encoding="utf-8")
        return {"scenario": "s3", "topology": str(topo),
                "content_count": FLOOD_CONTENT, "schemes": ["flooding"], "seed": seed}
    if workload == "balancedn-ote":
        return {"scenario": "s3", "topology": "oteglobe",
                "content_count": SWEEP_CONTENT, "schemes": ["balancedn"], "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def consumer_subset(topology_text: str, seed: int) -> str:
    """The preset with all but FLOOD_CONSUMERS seed-chosen consumers made routers.

    Nodes and links stay as they are, so every flood covers the whole
    graph exactly as in the full s3 sweep; only fewer consumers ask.
    """
    lines = topology_text.splitlines()
    consumers = [line.split()[1] for line in lines
                 if line.startswith("node ") and line.split()[3] == "consumer"]
    chosen = set(random.Random(seed).sample(consumers, FLOOD_CONSUMERS))
    out = []
    for line in lines:
        fields = line.split()
        if line.startswith("node ") and fields[3] == "consumer" and fields[1] not in chosen:
            line = f"node {fields[1]} {fields[2]} router"
        out.append(line)
    return "\n".join(out) + "\n"


def crc16_arc_bitwise(data: bytes) -> int:
    """CRC-16/ARC one bit at a time: reflected poly 0xA001, init 0, xorout 0."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xA001 if crc & 1 else crc >> 1
    return crc


def bfs_distances(topology_text: str, source: int) -> dict[int, int]:
    adjacency: dict[int, list[int]] = {}
    for line in topology_text.splitlines():
        fields = line.split("#", 1)[0].split()
        if fields and fields[0] == "link":
            a, b = int(fields[1]), int(fields[2])
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def link_count(topology_text: str) -> int:
    return sum(1 for line in topology_text.splitlines() if line.startswith("link "))


def check_outputs(workload: str, inputs: dict, report, deployments) -> list[str]:
    """Output checks; returns one message per failed check (empty when all pass).

    ``deployments`` are the resolution deployments the scenario registered
    its corpus in, captured by the worker.
    """
    errors: list[str] = []
    if workload == "flood-ote":
        text = Path(inputs["topology"]).read_text("utf-8")
        bound = 2 * link_count(text)
        distances: dict[int, dict[int, int]] = {}
        for rec in report.records:
            if not rec.satisfied:
                continue  # counted as unsatisfied, not as a failed check
            dist = distances.get(rec.consumer)
            if dist is None:
                dist = distances[rec.consumer] = bfs_distances(text, rec.consumer)
            problems = []
            if rec.path_hops != dist[rec.producer]:
                problems.append(f"path_hops {rec.path_hops} != BFS {dist[rec.producer]}")
            if rec.data_traversals != rec.path_hops:
                problems.append(f"data traversals {rec.data_traversals} "
                                f"!= path_hops {rec.path_hops}")
            if rec.interest_traversals > bound:
                problems.append(f"interest traversals {rec.interest_traversals} "
                                f"> 2|E| = {bound}")
            if problems:  # one failed check per request
                errors.append(f"{rec.consumer}->{rec.producer}: " + "; ".join(problems))
    elif workload == "balancedn-ote":
        loaded = sum(report.shard_loads.values())
        expected = inputs["content_count"]
        if loaded != expected:
            errors.append(f"shard loads sum to {loaded}, corpus is {expected}")
        errors += crc_placement_errors(deployments, inputs["seed"])
    return errors


def crc_placement_errors(deployments, seed: int) -> list[str]:
    """Sampled registered names must sit in the shard CRC-16/ARC assigns them.

    One failed check per shard that holds a misplaced sample.
    """
    errors = []
    rng = random.Random(seed)
    for deployment in deployments:
        for site_node, site in deployment.sites.items():
            for shard in site.shards:
                keys = list(shard.authoritative)
                sample = rng.sample(keys, min(CRC_SAMPLES_PER_SHARD, len(keys)))
                wrong = [key for key in sample if crc16_arc_bitwise(key.encode())
                         % deployment.resolver_count != shard.index]
                if wrong:
                    errors.append(f"site {site_node} shard {shard.index}: {len(wrong)} of "
                                  f"{len(sample)} sampled names hash elsewhere, e.g. {wrong[0]}")
    return errors


def unsatisfied(report) -> int:
    return sum(1 for rec in report.records if not rec.satisfied)


def requests_attempted(report) -> int:
    return len(report.records)
