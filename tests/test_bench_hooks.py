"""The benchmark's tracing hooks still attach to the program.

bench/spans.py wraps program attributes by name, and bench/run.py's
``layer_metrics`` reads the spans and counters those wrappers record.  A
refactor that renames or reshapes a wrapped function breaks the per-layer
metrics without failing any program test; this test catches that.  The
sweep_fixed workload's generated configs are also checked to run on the
smallest grid.
"""

import ast
import importlib.util
import os
import sys
from dataclasses import replace
from pathlib import Path

from picture_lab import cli, heisenberg, lab, schrodinger

BENCH = Path(__file__).resolve().parent.parent / "bench"

# read by layer_metrics, but recorded by no wrapper since the matrix oracle
# was replaced by the Fock state-vector oracle
NOT_RECORDED = {"heisenberg.evolve.matrix"}

DRIVEN = """
[field]
kind = monochromatic
amplitude = 0.1
omega = 0.5

[time]
periods = 0.5
n_steps = 1000

[fock]
oracle = true

[run]
name = hooks
record_every = 50
export_trajectory = true
export_snapshots = true
export_fock_moments = true
"""


def _layer_metrics_reads():
    """Span names, (span, counter) pairs and counter keys layer_metrics reads."""
    tree = ast.parse((BENCH / "run.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    names, pairs, keys, prefixes = set(), set(), set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("pick", "total", "own_total", "counted"):
            args = [a.value for a in node.args if isinstance(a, ast.Constant)]
            if args:
                names.add(args[0])
                if node.func.id == "counted":
                    pairs.add(tuple(args))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "startswith":
            prefixes.add(node.args[0].value)
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "counters" and isinstance(node.slice, ast.Constant):
            keys.add(node.slice.value)
    return names, pairs, keys, prefixes


def _load_bench_module(monkeypatch, name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_bench_spans_record_what_layer_metrics_reads(tmp_path, monkeypatch):
    spans = _load_bench_module(monkeypatch, "bench_spans", "spans.py")

    config = tmp_path / "hooks.cfg"
    config.write_text(DRIVEN)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, cli, lab, heisenberg, schrodinger)
        assert cli.run_command(str(config), tmp_path / "out", verbosity=0) == 0
    finally:
        tracer.restore()

    names, pairs, keys, prefixes = _layer_metrics_reads()
    assert names and pairs and keys and prefixes
    recorded = {s.name for s in tracer.spans}
    assert names - NOT_RECORDED <= recorded
    for prefix in prefixes:
        assert any(name.startswith(prefix) for name in recorded), prefix
    for name, key in pairs:
        for s in tracer.spans:
            if s.name == name:
                assert s.counters.get(key, 0) > 0, (name, key)
    for key in keys:
        assert any(s.counters.get(key, 0) > 0 for s in tracer.spans), key


def test_sweep_fixed_grids_sized_to_64(tmp_path, monkeypatch):
    _load_bench_module(monkeypatch, "spans", "spans.py")  # run.py imports it
    monkeypatch.setattr(os, "environ", dict(os.environ))  # run.py pins threads
    run = _load_bench_module(monkeypatch, "bench_run", "run.py")
    path, charges = run.sweep_config(1, 1.0, tmp_path)
    base = cli.load_config(path).scenario
    for charge in charges:
        s = replace(base, params=replace(base.params, charge=float(charge)),
                    fock_oracle=False)
        assert lab.run_equivalence(s).final_state.grid.n_points == 64
