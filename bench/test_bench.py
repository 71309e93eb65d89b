"""Smoke test of the benchmark itself, at a tiny horizon.

    python3 -m pytest bench/test_bench.py

For each workload it makes one untraced and one traced run and checks
that every metric named in BENCHMARK.json is emitted, that every gate is
evaluated on every operation, and that the layers' self times account for
each traced operation's wall time within the tracing overhead.
"""

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.05
GATES = {"exit_code", "no_exception", "reports_present", "sup_discrepancy",
         "residual_vacuum", "flawed_value", "ehrenfest", "deterministic"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_runs_emit_every_metric_and_gate(workload):
    plain = run.measure(workload, seed=3, seconds=0, trace=False, scale=TINY)
    traced = run.measure(workload, seed=3, seconds=0, trace=True, scale=TINY)

    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    expected = GATES | ({"free_moment"} if workload == "golden_free" else set())
    for result in (plain, traced):
        assert result["failed"] == 0
        assert set(result["gates"]) == expected
        for counts in result["gates"].values():
            assert counts == {"evaluated": result["attempted"], "missed": 0}
        # times, sizes and counts are never 0; accuracy readouts may be
        assert all(m["value"] > 0 for k, m in result["metrics"].items()
                   if m["unit"] != "1" and k != "trace.overhead_s")

    overhead = abs(traced["metrics"]["trace.overhead_s"]["value"])
    for op in traced["ops"]:
        if op["traced"]:
            gap = op["wall_s"] - op["layer_self_s"]
            assert 0 <= gap <= overhead + 0.01 * op["wall_s"]
