"""The trajectory script's one CLI run, its read-path and flood-path blocks,
and its pairing against a commit on s1_long and the flood path.

Each runs in a subprocess, because importing the script puts
``src/`` and ``tools/`` on the import path.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
S1_LONG_SHA256 = "7fc947cb1111ce7ab4ad02d6e8c4f33e1db73dd843bcbf9de00c7f708f45091e"

# One s1_long CLI run of this checkout, as ``against`` times each one.
# The ballast raises this process's resident peak by 64 MB; the child's
# peak must not carry it.
ONE_RUN = """\
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {tools!r})
import bench_trajectory
ballast = b"x" * (64 << 20)
with tempfile.TemporaryDirectory() as tmp:
    csv = Path(tmp) / "s1_long.csv"
    argv = [sys.executable, "-m", "balancedn.cli", "run", *bench_trajectory.RUNS["s1_long"],
            "--seed", "42", "--out", str(csv)]
    env = bench_trajectory.child_env(bench_trajectory.ROOT / "src", Path(tmp) / "pycache")
    elapsed, peak_mb, _ = bench_trajectory.run_child(argv, env, Path(tmp))
    sha256 = hashlib.sha256(csv.read_bytes()).hexdigest()
print(json.dumps({{"raw_s": elapsed, "peak_rss_mb": peak_mb, "sha256": sha256,
                  "facts": bench_trajectory.facts()}}))
"""


def test_one_run_records_the_s1_long_digest_and_its_times():
    code = ONE_RUN.format(tools=str(ROOT / "tools"))
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout.splitlines()[-1])
    assert run["sha256"] == S1_LONG_SHA256
    assert run["raw_s"] > 0
    # the CLI child's own peak RSS (an interpreter with the package loaded,
    # about 16 MB), not the ballast-laden caller's
    assert 5 < run["peak_rss_mb"] < 50
    assert set(run["facts"]) == {"commit", "nproc", "python", "loadavg", "code_lines"}
    assert run["facts"]["code_lines"] > 0


READ_PATH = """\
import json, sys
sys.path.insert(0, {tools!r})
import bench_trajectory
print(json.dumps(bench_trajectory.read_path()))
"""


def test_read_path_times_the_warm_passes_and_counts_the_route_memo():
    code = READ_PATH.format(tools=str(ROOT / "tools"))
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    block = json.loads(result.stdout.splitlines()[-1])
    assert set(block) == {"requests", "warm_us_per_request", "memo_entries"}
    assert block["requests"] == 14_520
    assert block["warm_us_per_request"] > 0
    # the warm passes read the cold pass's legs and add none
    assert block["memo_entries"] == {"consumer": 242, "tld": 61, "fetch": 3_660}


FLOOD_PATH = """\
import json, sys
sys.path.insert(0, {tools!r})
import bench_trajectory
print(json.dumps(bench_trajectory.flood_path()))
"""


def test_flood_path_times_floods_and_counts_each_one():
    code = FLOOD_PATH.format(tools=str(ROOT / "tools"))
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    block = json.loads(result.stdout.splitlines()[-1])
    assert set(block) == {"floods", "us_per_flood", "per_flood", "sha256"}
    # 6 consumers, each asking the 60 producers outside its subnet
    assert block["floods"] == 360
    assert block["us_per_flood"] > 0
    # every event is one schedule call; each flood sends OTEGlobe's 428
    # Interest copies, 365 of them to leaves that schedule nothing
    assert block["per_flood"] == {"events": 83.5, "schedule_calls": 83.5,
                                  "interest_copies": 428.0}
    assert block["sha256"] == (
        "72db4535557e802e44facead77bf748cba48afeda835d7db80f2236e3fecf388")


# The ballast raises this process's resident peak by 64 MB; no child's
# peak may carry it.
AGAINST = """\
import json, sys
sys.path.insert(0, {tools!r})
import bench_trajectory
ballast = b"x" * (64 << 20)
print(json.dumps({{"facts": bench_trajectory.facts(),
                  "against": bench_trajectory.against("HEAD", ["s1_long"], 3, ["flood_path"])}}))
"""


def in_git_checkout() -> bool:
    return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True).returncode == 0


def src_tree() -> dict:
    return {str(path): path.stat().st_mtime_ns for path in (ROOT / "src").rglob("*")}


@pytest.mark.skipif(not in_git_checkout(), reason="needs the git history of the checkout")
def test_against_head_pairs_equal_digests_with_ratios_near_one():
    code = AGAINST.format(tools=str(ROOT / "tools"))
    before = src_tree()
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # both sides' bytecode goes to the temporary prefix, none under src
    assert src_tree() == before
    point = json.loads(result.stdout.splitlines()[-1])
    assert set(point["facts"]) == {"commit", "nproc", "python", "loadavg", "code_lines"}
    assert point["facts"]["code_lines"] > 0
    block = point["against"]
    assert block["rev"] == "HEAD" and len(block["commit"]) == 40
    assert block["digest_changes"] == []
    s1_long, flood = block["end_to_end"]["s1_long"], block["flood_path"]
    assert s1_long["sha256"] == {"parent": [S1_LONG_SHA256], "change": [S1_LONG_SHA256]}
    assert flood["sha256"]["parent"] == flood["sha256"]["change"]
    assert flood["per_flood"]["parent"] == flood["per_flood"]["change"]
    # each CLI child's own peak RSS (an interpreter with the package loaded,
    # about 16 MB), not the ballast-laden caller's
    for side in ("parent", "change"):
        assert len(s1_long["peak_rss_mb"][side]) == 3
        assert all(5 < mb < 50 for mb in s1_long["peak_rss_mb"][side])
    for entry in (s1_long, flood):
        assert len(entry["parent_raw"]) == len(entry["change_raw"]) == 3
        assert entry["ratios"] == [c / p for p, c in zip(entry["parent_raw"],
                                                         entry["change_raw"])]
        assert entry["median_ratio"] == sorted(entry["ratios"])[1]
        assert entry["change_won"] == sum(r < 1 for r in entry["ratios"])
        # the same simulation on both sides: any gap is the host's
        assert 0.5 < entry["median_ratio"] < 2
