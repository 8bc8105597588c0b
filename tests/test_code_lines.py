import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''\
"""A docstring on
two lines."""
# a comment

total = (1 +
         2)
'''


def test_counts_only_the_lines_holding_code(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(FIXTURE)
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [f"2 {tmp_path / 'pkg' / 'mod.py'}", "2 total"]
