"""The reach gate: every function in ``src/balancedn`` is called by a CLI
run, or is on ``tools/reach.py``'s allowlist with its reason.

The script runs in a fresh interpreter, because it must install its
profile hook before ``balancedn`` is imported.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def allowlist():
    # load the script as a module without putting tools/ on the import path
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ALLOWLIST


def test_every_unreached_function_is_allowlisted_and_no_entry_is_stale():
    run = subprocess.run([sys.executable, "-B", str(SCRIPT)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    allowed = allowlist()
    assert sorted(run.stdout.split()) == sorted(allowed)
    assert all(reason.strip() for reason in allowed.values())
