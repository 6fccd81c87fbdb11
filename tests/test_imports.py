"""Each caller loads only the modules it names.

The package ``__init__`` files hold only docstrings, and the parameter
classes, the link budget and the analyzer table live in pure-Python
modules, so a scenario and the closed-form oracle (``fsbb84 predict``
too) must load neither numpy, the Monte Carlo, the protocol machine nor
the socket transport. Each module must also import
on its own, in a fresh module table, so no import cycle hides behind an
import order. Each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import fsbb84

PACKAGE = Path(fsbb84.__file__).resolve().parent

# What a scenario and predict() never need: numpy, the Monte-Carlo stages,
# the runner and simulator, the session machine, the wire codec and the
# socket transport.
OFF_ORACLE_PATH = ("numpy", "fsbb84.channel", "fsbb84.source", "fsbb84.receiver",
                   "fsbb84.sync", "fsbb84.seeds", "fsbb84.runner", "fsbb84.simulate",
                   "fsbb84.protocol.session", "fsbb84.protocol.framing",
                   "fsbb84.protocol.transport", "socket")

_ORACLE = f"""
import sys
from fsbb84 import analysis, scenario
analysis.predict(scenario.bundled_scenario("table2_beam_expanders"))
print(" ".join(m for m in {OFF_ORACLE_PATH!r} if m in sys.modules))
"""

_CLI_PREDICT = f"""
import contextlib, io, sys
from fsbb84 import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["predict", "--scenario", "table1_run1_retro"]) == 0
print(" ".join(m for m in {OFF_ORACLE_PATH!r} if m in sys.modules))
"""

_EACH_ALONE = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "fsbb84"]:
        del sys.modules[loaded]
    importlib.import_module(name)
"""


def _python(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_oracle_path_loads_no_simulator_or_transport():
    assert _python(_ORACLE).split() == []


def test_cli_predict_loads_no_numpy_or_transport():
    assert _python(_CLI_PREDICT).split() == []


def test_every_module_imports_on_its_own():
    names = sorted(".".join(("fsbb84",) + p.relative_to(PACKAGE).with_suffix("").parts)
                   .removesuffix(".__init__") for p in PACKAGE.rglob("*.py"))
    assert {"fsbb84", "fsbb84.cli", "fsbb84.protocol.transport"} <= set(names)
    _python(_EACH_ALONE, *names)
