"""The trajectory script's per-run function, on s1_long alone.

It runs in a subprocess, because importing the script puts
``benchmarks/`` and ``tools/`` on the import path.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
S1_LONG_SHA256 = "7fc947cb1111ce7ab4ad02d6e8c4f33e1db73dd843bcbf9de00c7f708f45091e"

# The ballast raises this process's resident peak by 64 MB; the child's
# peak must not carry it.
ONE_RUN = """\
import json, sys
sys.path.insert(0, {tools!r})
import bench_trajectory
ballast = b"x" * (64 << 20)
print(json.dumps(bench_trajectory.one_run(["s1_long"], repeats=1, micro=False)))
"""


def test_one_run_records_the_s1_long_digest_and_its_times():
    code = ONE_RUN.format(tools=str(ROOT / "tools"))
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout.splitlines()[-1])
    entry = run["end_to_end"]["s1_long"]
    assert list(run["end_to_end"]) == ["s1_long"]
    assert entry["sha256"] == S1_LONG_SHA256
    assert entry["raw_s"] > 0
    assert len(entry["raw_runs_s"]) == 1
    # the CLI child's own peak RSS (an interpreter with the package loaded,
    # about 17 MB), not the ballast-laden caller's
    assert entry["peak_rss_runs_mb"] == [entry["peak_rss_mb"]]
    assert 5 < entry["peak_rss_mb"] < 50
    assert set(run["facts"]) == {"commit", "nproc", "python", "loadavg", "pycache"}
    assert run["code_lines"] > 0


READ_PATH = """\
import json, sys
sys.path.insert(0, {tools!r})
import bench_trajectory
print(json.dumps(bench_trajectory.read_path()))
"""


def test_read_path_times_both_passes_and_counts_the_route_memo():
    code = READ_PATH.format(tools=str(ROOT / "tools"))
    result = subprocess.run([sys.executable, "-B", "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    block = json.loads(result.stdout.splitlines()[-1])
    assert set(block) == {"requests", "cold_us_per_request", "warm_us_per_request",
                          "warm_runs_us_per_request", "memo_entries"}
    assert block["requests"] == 14_520
    warm = block["warm_runs_us_per_request"]
    assert len(warm) == 5 and sorted(warm)[2] == block["warm_us_per_request"]
    assert block["cold_us_per_request"] > 0 and min(warm) > 0
    # the warm passes read the cold pass's legs and add none
    assert block["memo_entries"] == {"consumer": 242, "tld": 61, "fetch": 3_660}
