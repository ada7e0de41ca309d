"""The benchmark's trace targets still name callables in the package.

perfbench wraps module attributes by name and reports the ones it cannot
find as `trace.missing_spans`; this test fails first when a refactor
renames or deletes one.  It only imports perfbench's layer table and
tracer -- the benchmark's own tests run subprocesses and stay out of this
suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    modules = {t.module: importlib.import_module(f"starkshaper.{t.module}") for t in layers.TARGETS}
    with tracing.installed(tracing.Tracer(), modules, layers.TARGETS) as tracer:
        assert tracer.missing == []
