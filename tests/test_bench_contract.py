"""The benchmark tracer wraps program names from outside; they must exist.

``benchmarks/worker.py`` (run with ``--trace 1``) replaces functions and
methods of ``balancedn`` by name.  A rename or removal in ``src/`` breaks
that run with an ``AttributeError`` but no other test.  The wrapping
runs in a subprocess so that its class patching stays out of this one.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """\
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracer, worker
worker.install_layers(tracer.Tracer(), {{}})
"""


def test_tracer_wraps_every_name_it_expects():
    code = INSTALL.format(bench=str(ROOT / "benchmarks"), src=str(ROOT / "src"))
    # -I: no PYTHONPATH or user site, so balancedn comes from src only;
    # -B: no bytecode cache left in the checkout
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
