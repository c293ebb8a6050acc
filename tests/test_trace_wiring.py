"""perfbench's layer tracer against the names it wraps.

`perfbench/tracing.py` swaps public names of `hopf_dde.cli` and
`hopf_dde.pipeline` for span-recording wrappers. A boundary that is
renamed, or that a call path no longer goes through, records no span;
these tests catch that without running the benchmark.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from hopf_dde import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_exists(tracing):
    for name in tracing.BOUNDARIES:
        mod_name, attr = name.split(".")
        assert hasattr(importlib.import_module(f"hopf_dde.{mod_name}"), attr), name


def test_simulating_run_reaches_every_boundary(tmp_path, tracing):
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        rc = cli.main(["--config", str(ROOT / ".github" / "ci" / "short.cfg"),
                       "--out", str(out)])
    assert rc == 0
    reached = {span.name for span in tracer.spans}
    assert set(tracing.required_boundaries(True)) <= reached
    assert not any(span.error for span in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, 0)
    csv_bytes = sum(p.stat().st_size for p in out.glob("*.csv"))
    assert sorted(p.name for p in out.glob("*.csv")) == ["phase.csv", "trajectory.csv"]
    assert metrics["report.csv_bytes"] == csv_bytes
