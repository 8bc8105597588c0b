"""List the functions of ``src/balancedn`` that no CLI run calls.

Usage: ``python tools/reach.py`` (any working directory).  It measures
the checkout it lives in.

In a fresh interpreter the script installs a ``sys.setprofile`` hook
before it imports ``balancedn``, so the calls made while the package
imports (``core._build_crc_table``) count.  Then it runs
``balancedn.cli.main`` in-process over RUNS: every scenario, ``hash``,
``validate``, a ``--schemes`` run, a request that fails its Interest
lifetime, and one error path per exit code.  The flooding runs use
NSFNET alone, and s3 runs BalanceDN alone at the fewest names its
sweep fits, so the whole trace takes about a second.  CSVs go to a
temporary directory and the runs' output, the ``--verbose`` event log
included, is discarded.  A run that exits with another code than RUNS
expects stops the script with exit 1, since it would cut the trace
short.

A function is each ``def`` in ``src/balancedn``: methods, properties
and nested functions included, named ``module.qualname``.
Comprehensions, generator expressions and lambdas are not counted.
The script prints the functions that no run called, one per line in
source order, and exits 0.  ``tests/test_reach.py`` holds that list
equal to ALLOWLIST, so a new function that no run reaches fails it, and
so does an entry that goes stale: reached, or no longer in ``src``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "balancedn"

# Each function that no CLI run calls, with the reason it stays.
TRACED_AND_WRAPPED = ("runs only with track_edges, which only the tests set; "
                      "benchmarks/worker.py also wraps it by name")
WORKER = "benchmarks/worker.py reads or wraps it by name (ROADMAP item 4)"
TRAFFIC = "a definition that TestTraffic holds ResolutionOutcome.traffic() to"
ALLOWLIST = {
    "core.InterestPacket.delivered_to": TRACED_AND_WRAPPED,
    "core.DataPacket.delivered_to": TRACED_AND_WRAPPED,
    "engine.Simulation.duplicates_suppressed": WORKER,
    "resolution.ResolverShard.store_cached": "acceptance criterion 7 replays the LRU with it",
    "resolution.ResolutionOutcome.shortcut_taken": WORKER,
    "resolution.ResolutionOutcome.interest_traversals": TRAFFIC,
    "resolution.ResolutionOutcome.data_traversals": TRAFFIC,
    "resolution.ResolutionOutcome.bits_moved": TRAFFIC,
    "topology.Topology.link_between": WORKER,
}

# A consumer and two producers, one on each side of a 2,500-ms link:
# every cross-subnet round trip takes about 5 s, past the 4-s Interest
# lifetime, so the first request fails and the run exits 1.
SLOW_LINK_TOPOLOGY = """\
node 0 c consumer
node 1 r router
node 2 r router
node 3 p producer
node 4 s resolver
node 5 t tld
node 6 n nameserver
node 7 p2 producer
link 0 1 1 1000
link 1 2 2500 1000
link 2 3 1 1000
link 1 4 1 1000
link 4 5 1 1000
link 5 6 1 1000
link 1 7 1 1000
"""

NSFNET = str(PACKAGE / "presets" / "nsfnet.topo")
# (argv, expected exit code); "{out}" is a CSV path and "{slow}" the
# slow-link topology file, both in a temporary directory
RUNS = [
    (["run", "--scenario", "s1_near", "--out", "{out}"], 0),
    (["run", "--scenario", "s1_mid", "--out", "{out}"], 0),
    (["run", "--scenario", "s1_long", "--out", "{out}"], 0),
    (["run", "--scenario", "s2", "--content", "3000", "--verbose", "--out", "{out}"], 0),
    (["run", "--scenario", "s2", "--content", "3000", "--schemes", "flooding",
      "--out", "{out}"], 0),
    (["run", "--scenario", "s3", "--content", "14761", "--schemes", "balancedn",
      "--out", "{out}"], 0),
    (["run", "--scenario", "s4", "--resolvers", "2", "--skew", "0:300,1:100",
      "--out", "{out}"], 0),
    (["hash", "--name", "/video/a.mp4"], 0),
    (["validate", "--topology", NSFNET], 0),
    (["run", "--scenario", "s2", "--topology", "{slow}", "--resolvers", "1",
      "--content", "100", "--out", "{out}"], 1),
    (["run", "--scenario", "s2", "--content", "10", "--out", "{out}"], 1),
    (["run", "--scenario", "s2", "--content", "0", "--out", "{out}"], 2),
]


def defs(node: ast.AST, prefix: str = ""):
    """``(first line of its code object, qualname)`` of each def under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a decorated function's code starts at its first decorator
            yield (min([child.lineno] + [d.lineno for d in child.decorator_list]),
                   prefix + child.name)
            yield from defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from defs(child, f"{prefix}{child.name}.")
        else:
            yield from defs(child, prefix)


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line of its code object) -> module.qualname`` of each def."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        filename = os.path.realpath(path)
        for first, qualname in defs(ast.parse(path.read_text("utf-8"))):
            found[filename, first] = f"{path.stem}.{qualname}"
    return found


def traced_codes() -> set:
    """The code objects of every Python call made by the runs of RUNS."""
    codes: set = set()
    add = codes.add
    # every profile event's frame is a running Python call, so adding its
    # code on each event records every function that ran
    sys.setprofile(lambda frame, event, arg: add(frame.f_code))
    try:
        sys.path.insert(0, str(ROOT / "src"))
        from balancedn import cli

        with tempfile.TemporaryDirectory() as tmp:
            slow = Path(tmp) / "slow.topo"
            slow.write_text(SLOW_LINK_TOPOLOGY, "utf-8")
            for argv, expected in RUNS:
                argv = [a.format(out=Path(tmp) / "out.csv", slow=slow) for a in argv]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                if code != expected:
                    raise SystemExit(f"balancedn {' '.join(argv)} exited {code}, "
                                     f"not {expected}:\n{sink.getvalue()[-2000:]}")
    finally:
        sys.setprofile(None)
    return codes


def unreached() -> list[str]:
    """``module.qualname`` of each function in ``src`` that no run called."""
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in traced_codes()}
    return [name for key, name in defined_functions().items() if key not in reached]


def main() -> int:
    for name in unreached():
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
