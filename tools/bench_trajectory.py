"""Write one point of the performance trajectory, ``BENCH_<pr>.json``.

Usage: ``python tools/bench_trajectory.py BENCH_<pr>.json [--against REV]``
from the root of a checkout.  It pairs the checkout (the change) with
commit REV (the parent), ``HEAD`` by default, so that a working tree
is paired with the commit it starts from.

Times taken in two files land in different host phases and do not
compare, so every time is paired within one file.  ``git archive``
(local, no network) writes REV's tree to a temporary directory, and for
each measure a REV process and a checkout process run as PAIRS pairs,
which side runs first alternating (see ``paired``).  The measures are

- each CLI run in RUNS, a fresh ``python -m balancedn.cli`` process:
  its wall time and the sha256 of its CSV;
- the resolver read path (``read_path``): the s3 OTEGlobe requests
  with every route memo leg warm, µs per request, and the memo's exact
  entry counts;
- the flood engine (``flood_path``): the s3 OTEGlobe flooding requests
  of a fixed consumer subset, µs per flood, the exact events,
  ``schedule`` calls and Interest copies per flood, and the sha256 of
  the requests' simulated outcomes.

For each measure the ``against`` block holds both sides' raw times, the
per-pair ratios (change over parent), their median, how many pairs the
change won, each process's own peak RSS and each side's distinct exact
outputs.  Every time is raw host time.  A small launcher process starts
each child and reaps it with ``os.wait4`` (see ``run_child``).

Both sides are byte-compiled before any timed process, under a
``PYTHONPYCACHEPREFIX`` in the temporary directory that every child is
given, so nothing is written under either ``src``.  Under a prefix the
standard library's bytecode is read from there too, so the compiling
process imports all that a child imports.

s4 rows hold measured CPU times, so its digest is recorded and never
compared.  If another CLI digest or the flood path's differs between
the sides, or within one, the script exits 1 and writes nothing, unless
``--allow-digest-change`` is given, which only a demonstrated bug fix
should use.

The file also holds, once, facts: the commit, ``-dirty`` if the
checkout differs from it, nproc, the Python version, the load average
and the ``tools/code_lines.py`` total of ``src``.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tools"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from balancedn.core import parse_name, parse_names  # noqa: E402
from balancedn.engine import Simulation  # noqa: E402
from balancedn.resolution import Deployment  # noqa: E402
from balancedn.scenarios import _cross_subnet_pairs, synthetic_corpus  # noqa: E402
from balancedn.topology import load_preset  # noqa: E402
from code_lines import code_lines  # noqa: E402

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
# the read path's corpus names are the CLI runs'
READ_PATH_SEED = 42
WARM_PASSES = 5
# the flood path's consumers, drawn with the benchmark's default seed
FLOOD_PATH_CONSUMERS = 6
FLOOD_PATH_SEED = 1
FLOOD_PASSES = 10
# parent and change processes per measure, as many pairs as the
# benchmark's gate runs
PAIRS = 10
# the time each block is paired on; the rest of its output is exact
PAIRED_TIMES = {"read_path": "warm_us_per_request", "flood_path": "us_per_flood"}


# Spawns argv with its output in two files, reaps it with wait4 and prints
# [wall s, exit code, peak RSS in KB].  Linux carries the resident peak of
# the memory a process had before exec into its own peak, so the child must
# come from a process as small as this one, not from the measuring process,
# which holds what its blocks built.
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

# Imports all that any child imports: first the package on PYTHONPATH,
# its CLI included, then this script, whose own path entry for this
# checkout's src then comes too late to matter.
IMPORTS = (f"import json, sys, balancedn.cli; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
           "import bench_trajectory")


def run_child(argv: list[str], env: dict, out_dir: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and standard output of a child running ``argv``.

    ``LAUNCHER`` starts the child and times it.  The child's standard
    output and error go to files in ``out_dir``, so no pipe reader waits
    on it, and the launcher reaps it with ``os.wait4``, so its resource
    usage is its own.
    """
    stdout, stderr = out_dir / "child.out", out_dir / "child.err"
    launched = subprocess.run(
        [sys.executable, "-I", "-S", "-c", LAUNCHER,
         json.dumps([argv, str(stdout), str(stderr)])],
        env=env, check=True, capture_output=True, text=True)
    elapsed, code, peak_kb = json.loads(launched.stdout)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {stderr.read_text()}")
    return elapsed, peak_kb / 1024, stdout.read_text()  # Linux reports kilobytes


def read_path() -> dict:
    """The s3 OTEGlobe requests on a fresh ``Deployment``: a cold pass, then warm ones.

    The cold pass makes every cross-subnet request once, filling the
    route memo as it goes.  Warm pass m makes the same (consumer,
    producer) requests for names no request has used: pair (j, k)'s
    slot ``k + j * producers`` becomes ``k + (j + m * consumers) *
    producers``, a name the same producer owns under s3's round-robin
    ownership.  So every leg a warm pass reads is memoized, and every
    name still misses its shard as in the cold pass.  As s3 registers
    its requested names, every name of the cold and the WARM_PASSES
    warm passes is registered, to its slot's producer, before the cold
    pass.  Names are parsed, CRCs included, before each timed pass.
    The time is µs per request, the median of the warm passes.
    """
    topology = load_preset("oteglobe")
    consumers = len(topology.nodes_with_role("consumer"))
    shift = consumers * len(topology.nodes_with_role("producer"))
    pairs = _cross_subnet_pairs(topology)
    # every slot is below shift, so pass m's slots are below (m + 1) * shift
    corpus = synthetic_corpus((WARM_PASSES + 1) * shift, READ_PATH_SEED)
    keys = [[corpus[slot + m * shift] for _, _, slot in pairs] for m in range(WARM_PASSES + 1)]
    deployment = Deployment(topology)
    deployment.register_bulk((key, producer) for pass_keys in keys
                             for (_, producer, _), key in zip(pairs, pass_keys))
    resolve = deployment.resolve_and_fetch

    def timed_pass(m: int) -> float:
        names = list(parse_names(keys[m]))
        start = time.perf_counter()
        for (consumer, _, _), name in zip(pairs, names):
            resolve(consumer, name)
        return (time.perf_counter() - start) * 1e6 / len(pairs)

    timed_pass(0)
    warm = [timed_pass(m) for m in range(1, WARM_PASSES + 1)]
    return {"requests": len(pairs), "warm_us_per_request": statistics.median(warm),
            "memo_entries": {
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
    request: µs per flood in the best pass, raw.
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
    return {"floods": floods,
            "us_per_flood": min(one_pass(m)[1] for m in range(1, FLOOD_PASSES + 1)),
            "per_flood": per_flood,
            "sha256": hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()}


def facts() -> dict:
    # the commit's hash, with "-dirty" when the checkout differs from it
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40",
                             "--exclude=*"], cwd=ROOT, capture_output=True, text=True)
    return {"commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": os.getloadavg(),
            "code_lines": sum(map(code_lines, (ROOT / "src").rglob("*.py")))}


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


def child_env(src: Path, pycache: Path) -> dict:
    """The environment of a child that imports the package under ``src``.

    Its bytecode goes to and comes from ``pycache``, whatever
    ``PYTHONDONTWRITEBYTECODE`` says, so a module is compiled once per run.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache), PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def paired(measure, pairs: int, envs: dict) -> dict:
    """``measure(env)`` -> (time, peak RSS, exact) of parent and change in turn, ``pairs`` times.

    ``envs`` maps "parent" and "change" to their children's environment.
    Each pair is a parent process and a change process; the parent runs
    first in the even-numbered pairs and the change in the odd ones, so
    that neither side always runs in the other's wake.  A ratio is the
    change's time over its pair's parent time; the change wins a pair
    whose ratio is below 1.  ``exact`` maps each name to an output that
    every process of one side should repeat, a digest or exact counts;
    each side keeps its distinct values.
    """
    times: dict[str, list[float]] = {"parent": [], "change": []}
    rss: dict[str, list[float]] = {"parent": [], "change": []}
    exact: dict[str, dict[str, list]] = {}
    sides = list(envs.items())
    for i in range(pairs):
        for side, env in sides[::-1] if i % 2 else sides:
            elapsed, peak_mb, values = measure(env)
            times[side].append(elapsed)
            rss[side].append(peak_mb)
            for name, value in values.items():
                distinct = exact.setdefault(name, {"parent": [], "change": []})[side]
                if value not in distinct:
                    distinct.append(value)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {"parent_raw": times["parent"], "change_raw": times["change"],
            "ratios": ratios, "median_ratio": statistics.median(ratios),
            "change_won": sum(r < 1 for r in ratios), "peak_rss_mb": rss, **exact}


def against(rev: str, names=tuple(RUNS), pairs: int = PAIRS,
            blocks=tuple(PAIRED_TIMES)) -> dict:
    """Paired measures of this checkout (the change) against commit ``rev`` (the parent).

    ``rev`` is extracted into a temporary directory, and one untimed
    process per side writes the bytecode of all that it imports under
    the prefix there, so that no timed process compiles.  Each CLI run
    in ``names`` is paired on its wall time and keeps its CSV digest;
    each block in ``blocks`` is paired on its PAIRED_TIMES time and
    keeps the rest of its output.  ``digest_changes`` lists the CLI runs
    and blocks whose ``sha256`` is not one and the same on both sides;
    s4's CPU-time rows are not compared.
    """
    result: dict = {"rev": rev}
    with tempfile.TemporaryDirectory() as tmp:
        parent, out_dir = Path(tmp) / "parent", Path(tmp) / "out"
        result["commit"] = extract(rev, parent)
        out_dir.mkdir()
        envs = {side: child_env(src, Path(tmp) / "pycache")
                for side, src in (("parent", parent / "src"), ("change", ROOT / "src"))}
        for env in envs.values():
            subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)

        def cli_run(name):
            csv = out_dir / f"{name}.csv"
            argv = [sys.executable, "-m", "balancedn.cli", "run", *RUNS[name],
                    "--seed", "42", "--out", str(csv)]

            def measure(env):
                elapsed, peak_mb, _ = run_child(argv, env, out_dir)
                return elapsed, peak_mb, {"sha256": hashlib.sha256(csv.read_bytes()).hexdigest()}
            return measure

        def block_run(name):
            argv = [sys.executable, "-c",
                    f"{IMPORTS}; print(json.dumps(bench_trajectory.{name}()))"]

            def measure(env):
                _, peak_mb, out = run_child(argv, env, out_dir)
                block = json.loads(out.splitlines()[-1])
                return block.pop(PAIRED_TIMES[name]), peak_mb, block
            return measure

        result["end_to_end"] = {name: paired(cli_run(name), pairs, envs) for name in names}
        for name in blocks:
            result[name] = paired(block_run(name), pairs, envs)
    compared = [(f"end_to_end.{name}", entry) for name, entry in result["end_to_end"].items()
                if name not in UNCOMPARED]
    compared += [(name, result[name]) for name in blocks]
    result["digest_changes"] = [
        name for name, entry in compared if "sha256" in entry
        and (len(entry["sha256"]["parent"]) != 1
             or entry["sha256"]["parent"] != entry["sha256"]["change"])]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the file to write, e.g. BENCH_26.json")
    parser.add_argument("--against", metavar="REV", default="HEAD",
                        help="the commit to pair this checkout with (default: HEAD)")
    parser.add_argument("--allow-digest-change", action="store_true",
                        help="write the file though a simulated digest differs from REV's")
    args = parser.parse_args(argv)
    point = {"facts": facts(), "against": against(args.against)}
    changed = point["against"]["digest_changes"]
    if changed and not args.allow_digest_change:
        sys.stderr.write(f"error: {', '.join(changed)} differ from {args.against}'s; "
                         f"pass --allow-digest-change for a bug fix that changes them\n")
        return 1
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
