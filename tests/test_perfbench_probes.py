"""The benchmark's traced probes (perfbench/tracing.py) read per-layer timings
through fgseg's own entry points, some of which nothing in src calls; each
probe must still find every entry point it wraps."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_probes_find_their_entry_points(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # no __pycache__ inside the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing

    assert tracing.absent_probes() == {}
