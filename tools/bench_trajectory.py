"""Write one point of the performance trajectory, ``BENCH_<pr>.json``.

Usage: ``python tools/bench_trajectory.py BENCH_<pr>.json``
from the root of a checkout; it measures the checkout it lives in.

The program is measured twice, back to back (``one_run`` each time),
and the file holds both runs and the spread between them: for each
number, ``|a - b|`` over the smaller of the two.  Every time is raw
host time.  A reference pass taken beside a run to scale it lands in
another host phase often enough that scaled times spread wider than
raw ones, so compare files by raw times, digests and exact counts.
One run holds

- end to end: the wall time of each CLI run in RUNS, each in a fresh
  ``python -m balancedn.cli`` process, the median of 3 and all 3;
- the sha256 of each CSV.  s4 rows hold measured CPU times, so its
  digest is recorded and never compared; the other runs are simulated,
  and their digests must agree within a run and between the two runs,
  or the script exits 1 and writes nothing;
- per layer: the numbers of ``benchmarks/micro.py`` ``micro_loops``,
  and the ``tools/code_lines.py`` total of ``src``;
- facts: the commit (``-dirty`` if the checkout differs from it),
  nproc, the Python version, the load average and whether a
  ``__pycache__`` was under ``src`` when the run began.

``micro_loops`` is imported; nothing under ``benchmarks/`` is edited.  A
run takes about 30 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "benchmarks", ROOT / "tools"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

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


def cli_time(name: str, repeats: int, out_dir: Path) -> dict:
    """Median wall time of ``repeats`` fresh CLI processes of run ``name``."""
    csv = out_dir / f"{name}.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    raw, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "balancedn.cli", "run", *RUNS[name],
                        "--seed", "42", "--out", str(csv)],
                       env=env, check=True, capture_output=True)
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        digests.add(hashlib.sha256(csv.read_bytes()).hexdigest())
    if len(digests) > 1 and name not in UNCOMPARED:
        raise RuntimeError(f"{name}: {repeats} runs wrote {len(digests)} different CSVs")
    return {"raw_s": statistics.median(raw), "raw_runs_s": raw, "sha256": digests.pop()}


def micro_numbers() -> dict:
    """``micro_loops``' numbers, by metric name."""
    result = micro_loops(MICRO_SEED)
    if result["errors"]:
        raise RuntimeError(f"micro_loops checks failed: {result['errors']}")
    return result["metrics"]


def facts() -> dict:
    # the commit's hash, with "-dirty" when the checkout differs from it
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40",
                             "--exclude=*"], cwd=ROOT, capture_output=True, text=True)
    return {"commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": os.getloadavg(),
            "pycache": any((ROOT / "src").rglob("__pycache__"))}


def one_run(names=tuple(RUNS), repeats: int = 3, micro: bool = True) -> dict:
    """One measurement of the checkout: facts, CLI runs, micro-loops, code lines."""
    result = {"facts": facts()}
    with tempfile.TemporaryDirectory() as tmp:
        result["end_to_end"] = {name: cli_time(name, repeats, Path(tmp)) for name in names}
    if micro:
        result["per_layer"] = micro_numbers()
    result["code_lines"] = sum(map(code_lines, (ROOT / "src").rglob("*.py")))
    return result


def spread(a: float, b: float) -> float:
    return abs(a - b) / min(a, b)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the file to write, e.g. BENCH_26.json")
    args = parser.parse_args(argv)
    first, second = one_run(), one_run()
    digests = [{name: entry["sha256"] for name, entry in run["end_to_end"].items()
                if name not in UNCOMPARED} for run in (first, second)]
    if digests[0] != digests[1]:
        sys.stderr.write(f"error: the two runs wrote different CSVs: {digests}\n")
        return 1
    spreads = {f"end_to_end.{name}": spread(entry["raw_s"],
                                             second["end_to_end"][name]["raw_s"])
               for name, entry in first["end_to_end"].items()}
    spreads.update((f"per_layer.{name}", spread(value, second["per_layer"][name]))
                   for name, value in first["per_layer"].items())
    Path(args.out).write_text(json.dumps(
        {"sha256": digests[0], "spread": spreads, "runs": [first, second]},
        indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
