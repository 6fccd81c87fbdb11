"""perfbench's traced spans still find every function they wrap in this tree.

``perfbench/spans.py`` replaces each of its ``TARGETS`` at the name its
caller looks it up under; a target that a refactor moved or renamed would
leave a layer unmeasured without failing any test here. The module is
loaded from its file, without adding ``perfbench`` to ``sys.path`` or
writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_perfbench_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, attr in spans.TARGETS:
        _, _, fn = spans._resolve(module, attr)
        assert callable(fn), name
