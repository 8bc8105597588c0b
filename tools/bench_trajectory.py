"""Write one point of the performance trajectory, ``BENCH_<pr>.json``.

Usage: ``python tools/bench_trajectory.py BENCH_<pr>.json [--against REV]``
from the root of a checkout; it measures the checkout it lives in.

The program is measured twice, back to back (``one_run`` each time),
and the file holds both runs and the spread between them: for each
number, ``|a - b|`` over the smaller of the two.  Every time is raw
host time.  A reference pass taken beside a run to scale it lands in
another host phase often enough that scaled times spread wider than
raw ones, so compare files by raw times, digests and exact counts.
One run holds

- end to end: the wall time and the peak resident set of each CLI run
  in RUNS, each in a fresh ``python -m balancedn.cli`` process, the
  median of 3 and all 3.  The peak RSS is the child's own, read with
  ``os.wait4`` on its pid by a small launcher process (see
  ``run_child``); its output goes to files, so no pipe reader waits on
  it and nothing else reaps it;
- the sha256 of each CSV.  s4 rows hold measured CPU times, so its
  digest is recorded and never compared; the other runs are simulated,
  and their digests must agree within a run and between the two runs,
  or the script exits 1 and writes nothing;
- per layer: the numbers of ``benchmarks/micro.py`` ``micro_loops``,
  and the ``tools/code_lines.py`` total of ``src``;
- the resolver read path on its own (``read_path``): the s3 OTEGlobe
  requests timed once cold and then, for new names, with every route
  memo leg warm, and the memo's exact entry counts;
- the flood engine on its own (``flood_path``): the s3 OTEGlobe
  flooding requests of a fixed consumer subset, µs per flood, and the
  exact events, ``schedule`` calls and Interest copies per flood;
- facts: the commit (``-dirty`` if the checkout differs from it),
  nproc, the Python version, the load average and whether a
  ``__pycache__`` was under ``src`` when the run began.

Times from two files land in different host phases and do not compare.
``--against REV`` pairs the checkout with commit REV within one file:
``git archive`` (local, no network) writes REV's tree to a temporary
directory, and for each CLI run, ``read_path`` and ``flood_path`` a
REV process and a checkout process run as PAIRS pairs, which side
runs first alternating (see ``against``).  The ``against`` block holds both sides' raw times, the
per-pair ratios (checkout over REV), their median and how many pairs
the checkout won.  If a simulated digest, a CSV's or the flood path's,
differs between the two sides, the script exits 1 and writes nothing,
unless ``--allow-digest-change`` is given, which only a demonstrated
bug fix should use.

``micro_loops`` is imported; nothing under ``benchmarks/`` is edited.  A
run takes about 30 s on a 2-core host, and ``--against`` adds about
three minutes.  ``micro_loops``' own
``resolution.resolve_us_per_request`` mostly times cold trips, so the
read path's warm cost shows only in ``read_path``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import cycle
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "benchmarks", ROOT / "tools"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from balancedn.core import parse_name, parse_names  # noqa: E402
from balancedn.engine import Simulation  # noqa: E402
from balancedn.resolution import Deployment  # noqa: E402
from balancedn.scenarios import _cross_subnet_pairs, synthetic_corpus  # noqa: E402
from balancedn.topology import load_preset  # noqa: E402
from code_lines import code_lines  # noqa: E402
from micro import micro_loops  # noqa: E402

# the README's s4 load map
SKEW = "0:650000,1:50000,2:50000,3:50000,4:50000,5:50000,6:50000,7:50000"
RUNS = {
    "s1_long": ["--scenario", "s1_long"],
    "s2": ["--scenario", "s2"],
    "s3_flooding": ["--scenario", "s3", "--schemes", "flooding", "--content", "20000"],
    "s3_balancedn": ["--scenario", "s3", "--schemes", "balancedn"],
    "s4": ["--scenario", "s4", "--skew", SKEW],
}
UNCOMPARED = {"s4"}
MICRO_SEED = 1
# the balancedn-ote workload's corpus size, named with the CLI runs' seed
READ_PATH_CONTENT = 150_000
READ_PATH_SEED = 42
WARM_PASSES = 5
# the flood path's consumers, drawn with the benchmark's default seed
FLOOD_PATH_CONSUMERS = 6
FLOOD_PATH_SEED = 1
FLOOD_PASSES = 10
# --against: parent and change processes per CLI run and per block, as
# many pairs as the benchmark's gate runs
PAIRS = 10
# the time each block is paired on
PAIRED_TIMES = {"read_path": "warm_us_per_request", "flood_path": "us_per_flood"}


# Spawns argv with its output in two files, reaps it with wait4 and prints
# [wall s, exit code, peak RSS in KB].  Linux carries the resident peak of
# the memory a process had before exec into its own peak, so the child must
# come from a process as small as this one, not from the measuring process,
# which holds a registered corpus after ``read_path``.
LAUNCHER = """\
import json, os, sys, time
argv, out, err = json.loads(sys.argv[1])
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])
_, status, usage = os.wait4(pid, 0)
print(json.dumps([time.perf_counter() - start, os.waitstatus_to_exitcode(status),
                  usage.ru_maxrss]))
"""


def run_child(argv: list[str], env: dict, out_dir: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one child process running ``argv``.

    ``LAUNCHER`` starts the child and times it.  The child's standard
    output and error go to files in ``out_dir``, and the launcher reaps
    it with ``os.wait4``, so its resource usage is its own.
    """
    stdout, stderr = out_dir / "child.out", out_dir / "child.err"
    launched = subprocess.run(
        [sys.executable, "-I", "-S", "-c", LAUNCHER,
         json.dumps([argv, str(stdout), str(stderr)])],
        env=env, check=True, capture_output=True, text=True)
    elapsed, code, peak_kb = json.loads(launched.stdout)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {stderr.read_text()}")
    return elapsed, peak_kb / 1024  # Linux reports kilobytes


def cli_time(name: str, repeats: int, out_dir: Path, src: Path = ROOT / "src") -> dict:
    """Median wall time and peak RSS of ``repeats`` fresh CLI processes of run ``name``.

    The CLI is the package under ``src``, this checkout's by default.
    """
    csv = out_dir / f"{name}.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "balancedn.cli", "run", *RUNS[name],
            "--seed", "42", "--out", str(csv)]
    raw, rss, digests = [], [], set()
    for _ in range(repeats):
        elapsed, peak_mb = run_child(argv, env, out_dir)
        raw.append(elapsed)
        rss.append(peak_mb)
        digests.add(hashlib.sha256(csv.read_bytes()).hexdigest())
    if len(digests) > 1 and name not in UNCOMPARED:
        raise RuntimeError(f"{name}: {repeats} runs wrote {len(digests)} different CSVs")
    return {"raw_s": statistics.median(raw), "raw_runs_s": raw,
            "peak_rss_mb": statistics.median(rss), "peak_rss_runs_mb": rss,
            "sha256": digests.pop()}


def micro_numbers() -> dict:
    """``micro_loops``' numbers, by metric name."""
    result = micro_loops(MICRO_SEED)
    if result["errors"]:
        raise RuntimeError(f"micro_loops checks failed: {result['errors']}")
    return result["metrics"]


def read_path() -> dict:
    """The s3 OTEGlobe requests on a fresh ``Deployment``: a cold pass, then warm ones.

    The corpus (READ_PATH_CONTENT names, owned round-robin by the
    producers) is registered as s3 registers it.  The cold pass makes
    every cross-subnet request once, filling the route memo as it goes.
    Warm pass m makes the same (consumer, producer) requests for names
    no request has used: pair (j, k)'s slot ``k + j * producers`` becomes
    ``k + (j + m * consumers) * producers``, a name the same producer
    owns.  So every leg a warm pass reads is memoized, and every name
    still misses its shard as in the cold pass.  Names are parsed, CRCs
    included, before each timed pass.  Times are µs per request: the
    cold pass, and the median of WARM_PASSES warm passes with each pass.
    """
    topology = load_preset("oteglobe")
    consumers = len(topology.nodes_with_role("consumer"))
    producers = topology.nodes_with_role("producer")
    corpus = synthetic_corpus(READ_PATH_CONTENT, READ_PATH_SEED)
    deployment = Deployment(topology)
    deployment.register_bulk(zip(corpus, cycle(producers)))
    pairs = _cross_subnet_pairs(topology)
    resolve = deployment.resolve_and_fetch

    def timed_pass(m: int) -> float:
        shift = m * consumers * len(producers)
        names = list(parse_names(corpus[slot + shift] for _, _, slot in pairs))
        start = time.perf_counter()
        for (consumer, _, _), name in zip(pairs, names):
            resolve(consumer, name)
        return (time.perf_counter() - start) * 1e6 / len(pairs)

    cold = timed_pass(0)
    warm = [timed_pass(m) for m in range(1, WARM_PASSES + 1)]
    return {"requests": len(pairs), "cold_us_per_request": cold,
            "warm_us_per_request": statistics.median(warm),
            "warm_runs_us_per_request": warm, "memo_entries": {
                "consumer": len(deployment._consumer_legs),
                "tld": len(deployment._tld_legs),
                "fetch": sum(map(len, deployment._fetch_legs.values()))}}


def flood_path() -> dict:
    """The s3 OTEGlobe flooding requests of a fixed consumer subset on one ``Simulation``.

    FLOOD_PATH_CONSUMERS consumers, drawn with FLOOD_PATH_SEED, make their
    s3 cross-subnet requests as ``balancedn run`` floods them: each pass
    publishes its names, then injects each request at the clock and
    drains it before the next.  Pass m asks for names no other pass
    uses, so no flood meets another's PIT entries or dead nonces.  Pass 0
    is untimed: it counts, per flood, the events, the ``schedule`` calls
    (injection and timer included) and the Interest copies sent, and
    hashes each request's simulated outcome.  Passes 1 to FLOOD_PASSES
    time the drains alone, as the ``flood-ote`` workload times a
    request: µs per flood, the best pass and each pass, raw.
    """
    topology = load_preset("oteglobe")
    chosen = set(random.Random(FLOOD_PATH_SEED).sample(
        topology.nodes_with_role("consumer"), FLOOD_PATH_CONSUMERS))
    pairs = [pair for pair in _cross_subnet_pairs(topology) if pair[0] in chosen]
    sim = Simulation(topology)
    clock = time.perf_counter

    def one_pass(m: int) -> tuple[list, float]:
        names = [parse_name(f"/flood/p{m}/obj{slot}") for _, _, slot in pairs]
        for (_, producer, _), name in zip(pairs, names):
            sim.publish(producer, name)
        outcomes, elapsed = [], 0.0
        for (consumer, producer, _), name in zip(pairs, names):
            state = sim.inject_request(consumer, name, at=sim.now)
            start = clock()
            sim.run_until(None)
            elapsed += clock() - start
            if not state.satisfied:
                raise RuntimeError(f"flood {consumer}->{producer} was not answered")
            flow = sim.flow_stats(name)
            outcomes.append((consumer, producer, state.path_hops,
                             state.completed_at - state.injected_at,
                             flow.interest_traversals, flow.data_traversals))
        return outcomes, elapsed * 1e6 / len(pairs)

    queue = sim.queue
    schedule, calls = queue.schedule, [0]

    def counted(fire_at: int, event: tuple) -> None:
        calls[0] += 1
        schedule(fire_at, event)

    queue.schedule = counted
    outcomes, _ = one_pass(0)
    del queue.schedule
    floods = len(pairs)
    per_flood = {"events": sim.processed / floods, "schedule_calls": calls[0] / floods,
                 "interest_copies": sum(o[4] for o in outcomes) / floods}
    runs = [one_pass(m)[1] for m in range(1, FLOOD_PASSES + 1)]
    return {"floods": floods, "us_per_flood": min(runs), "runs_us_per_flood": runs,
            "per_flood": per_flood,
            "sha256": hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()}


def facts() -> dict:
    # the commit's hash, with "-dirty" when the checkout differs from it
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40",
                             "--exclude=*"], cwd=ROOT, capture_output=True, text=True)
    return {"commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": os.getloadavg(),
            "pycache": any((ROOT / "src").rglob("__pycache__"))}


def one_run(names=tuple(RUNS), repeats: int = 3, micro: bool = True) -> dict:
    """One measurement of the checkout: facts, CLI runs, per-layer numbers, code lines.

    ``micro`` False leaves out the per-layer numbers, the micro-loops,
    the read path and the flood path alike.
    """
    result = {"facts": facts()}
    with tempfile.TemporaryDirectory() as tmp:
        result["end_to_end"] = {name: cli_time(name, repeats, Path(tmp)) for name in names}
    if micro:
        result["per_layer"] = micro_numbers()
        result["read_path"] = read_path()
        result["flood_path"] = flood_path()
    result["code_lines"] = sum(map(code_lines, (ROOT / "src").rglob("*.py")))
    return result


# One block of this script in a fresh process whose balancedn is the package
# under ``src``: it is imported from there before the script, which then
# finds it loaded and leaves it be.
BLOCK = """\
import json, sys
sys.path.insert(0, {src!r})
import balancedn.core, balancedn.engine, balancedn.resolution, balancedn.scenarios
sys.path.insert(0, {tools!r})
import bench_trajectory
print(json.dumps(bench_trajectory.{block}()))
"""


def block_in(block: str, src: Path) -> dict:
    """``read_path`` or ``flood_path`` of the package under ``src``, in a fresh process."""
    code = BLOCK.format(src=str(src), tools=str(ROOT / "tools"), block=block)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{block} of {src} failed: {result.stderr}")
    return json.loads(result.stdout.splitlines()[-1])


def extract(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` under ``into`` with local ``git archive``; return its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} exited {archive.returncode}")
    return commit


def paired(measure, pairs: int, parent_src: Path) -> dict:
    """``measure(src)`` -> (time, digest) of parent and change in turn, ``pairs`` times.

    Each pair is a parent process and a change process; the parent runs
    first in the even-numbered pairs and the change in the odd ones, so
    that neither side always runs in the other's wake.  A ratio is the
    change's time over its pair's parent time; the change wins a pair
    whose ratio is below 1.  ``digests`` holds each side's distinct
    digests, ``None`` for a measure that has none.
    """
    times: dict[str, list[float]] = {"parent": [], "change": []}
    digests: dict[str, set] = {"parent": set(), "change": set()}
    sides = (("parent", parent_src), ("change", ROOT / "src"))
    for i in range(pairs):
        for side, src in sides[::-1] if i % 2 else sides:
            elapsed, digest = measure(src)
            times[side].append(elapsed)
            digests[side].add(digest)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {"parent_raw": times["parent"], "change_raw": times["change"],
            "ratios": ratios, "median_ratio": statistics.median(ratios),
            "change_won": sum(r < 1 for r in ratios),
            "digests": {side: sorted(d, key=str) for side, d in digests.items()}}


def against(rev: str, names=tuple(RUNS), pairs: int = PAIRS,
            blocks=tuple(PAIRED_TIMES)) -> dict:
    """Paired points of this checkout (the change) against commit ``rev`` (the parent).

    ``rev`` is extracted into a temporary directory, and both sides'
    sources are byte-compiled first, so that neither pays for it in a
    timed process.  Each CLI run in ``names`` is paired on its wall time
    and CSV digest, each block in ``blocks`` on its PAIRED_TIMES time
    (and the flood path on its outcome digest); every process is a
    fresh one.  ``digest_changes`` lists the simulated runs and blocks
    whose digests are not one and the same on both sides; s4's CPU-time
    rows are not compared.
    """
    result: dict = {"rev": rev}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        result["commit"] = extract(rev, parent)
        for src in (parent / "src", ROOT / "src"):
            compileall.compile_dir(src, quiet=1)
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()

        def cli_run(name):
            def measure(src):
                entry = cli_time(name, 1, out_dir, src)
                return entry["raw_s"], entry["sha256"]
            return measure

        def block_run(name):
            def measure(src):
                block = block_in(name, src)
                return block[PAIRED_TIMES[name]], block.get("sha256")
            return measure

        result["end_to_end"] = {name: paired(cli_run(name), pairs, parent / "src")
                                for name in names}
        for name in blocks:
            result[name] = paired(block_run(name), pairs, parent / "src")
    compared = [(f"end_to_end.{name}", entry) for name, entry in result["end_to_end"].items()
                if name not in UNCOMPARED]
    compared += [(name, result[name]) for name in blocks]
    result["digest_changes"] = [name for name, entry in compared
                                if len(entry["digests"]["parent"]) != 1
                                or entry["digests"]["parent"] != entry["digests"]["change"]]
    return result


def spread(a: float, b: float) -> float:
    return abs(a - b) / min(a, b)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the file to write, e.g. BENCH_26.json")
    parser.add_argument("--against", metavar="REV",
                        help="also pair this checkout with commit REV, process by process")
    parser.add_argument("--allow-digest-change", action="store_true",
                        help="write the file though a simulated digest differs from REV's")
    args = parser.parse_args(argv)
    first, second = one_run(), one_run()
    digests = [{name: entry["sha256"] for name, entry in run["end_to_end"].items()
                if name not in UNCOMPARED} for run in (first, second)]
    if digests[0] != digests[1]:
        sys.stderr.write(f"error: the two runs wrote different CSVs: {digests}\n")
        return 1
    point = {"sha256": digests[0]}
    if args.against:
        point["against"] = against(args.against)
        changed = point["against"]["digest_changes"]
        if changed and not args.allow_digest_change:
            sys.stderr.write(f"error: {', '.join(changed)} differ from {args.against}'s; "
                             f"pass --allow-digest-change for a bug fix that changes them\n")
            return 1
    spreads = {f"end_to_end.{name}": spread(entry["raw_s"],
                                             second["end_to_end"][name]["raw_s"])
               for name, entry in first["end_to_end"].items()}
    spreads.update((f"per_layer.{name}", spread(value, second["per_layer"][name]))
                   for name, value in first["per_layer"].items())
    spreads.update((f"read_path.{name}", spread(first["read_path"][name],
                                                 second["read_path"][name]))
                   for name in ("cold_us_per_request", "warm_us_per_request"))
    spreads["flood_path.us_per_flood"] = spread(first["flood_path"]["us_per_flood"],
                                                second["flood_path"]["us_per_flood"])
    Path(args.out).write_text(json.dumps(
        {**point, "spread": spreads, "runs": [first, second]}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
