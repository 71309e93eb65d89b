"""The streamed artifact writer against the whole-file writer it replaced.

``reference_text`` is that writer, kept as the reference: every cell by
the ``_cell`` rule, the report by one ``json.dumps(indent=2,
sort_keys=True)`` of the whole dict.  ``serialize.write_artifact`` must
write the same bytes for every kind, at every length around its chunk
size, and for the floats whose spelling differs between CSV and JSON.
"""

import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from picture_lab import cli, serialize
from picture_lab.schrodinger import MIN_N_POINTS, GridWavefunction, PositionGrid

CHUNK = serialize.CHUNK
KINDS = tuple(serialize.ARTIFACTS)

TINY = """
[oscillator]
charge = 1.0

[field]
kind = monochromatic
amplitude = 0.1
omega = 0.5

[time]
periods = 1
n_steps = 4000

[fock]
oracle = false

[run]
name = tiny
record_every = 1
""" + "".join(f"export_{kind} = true\n" for kind in KINDS)


def reference_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def reference_report_dict(report) -> dict:
    return {
        "scenario": asdict(report.scenario),
        "tolerances": dict(report.tolerances),
        "series": {header: column(report).tolist()
                   for header, column in serialize.ARTIFACTS["series"][1]
                   if header != "vacuum_term"},
        "results": {"n_samples": len(report.times),
                    **{key: getattr(report, key) for key in serialize._RESULTS}},
        "verdicts": {key: getattr(report, key) for key in serialize._VERDICTS},
    }


def reference_text(report, kind) -> str:
    columns = serialize.ARTIFACTS[kind][1]
    if columns is None:
        return json.dumps(reference_report_dict(report), indent=2, sort_keys=True) + "\n"
    lines = [",".join(header for header, _ in columns)]
    lines.extend(",".join(map(reference_cell, row))
                 for row in zip(*(column(report).tolist() for _, column in columns)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A real run with every export kind on and 4001 records, as a
    sweep_fixed entry has."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.cfg"
    path.write_text(TINY)
    config = cli.load_config(path)
    return config, cli.run_equivalence(config.scenario)


def write_all(report, out, cache):
    for kind, (suffix, _) in serialize.ARTIFACTS.items():
        serialize.write_artifact(report, kind, out / suffix, cache)


def assert_reference_bytes(report, out):
    for kind, (suffix, _) in serialize.ARTIFACTS.items():
        assert (out / suffix).read_bytes() == reference_text(report, kind).encode(), kind
    assert not list(out.glob("*.tmp"))


def test_real_run_matches_the_reference_writer(tiny, tmp_path):
    config, report = tiny
    assert len(report.times) == 4001
    cli._export(config, report, tmp_path)
    for kind, (suffix, _) in serialize.ARTIFACTS.items():
        path = tmp_path / f"tiny_{suffix}"
        assert path.read_bytes() == reference_text(report, kind).encode(), kind
    assert len(list(tmp_path.iterdir())) == len(KINDS)


SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.0, -1e-300)


def synthetic(report, rows: int, seed: int):
    """``report`` with every series of ``rows`` rows, holding NaN, ±inf,
    -0.0, the smallest subnormal and 1e16 at and around chunk edges, and a
    final state whose grid has ``rows`` points rounded up to a power of two
    (MIN_N_POINTS at least)."""
    rng = np.random.default_rng(seed)

    def column(n=rows):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        for at in (0, 1, CHUNK - 1, CHUNK, n - 1):
            if at < n:
                values[at] = rng.choice(SPECIALS)
        values[rng.integers(n, size=max(1, n // 50))] = rng.choice(SPECIALS)
        return values

    n_points = max(MIN_N_POINTS, 1 << (rows - 1).bit_length())
    psi = np.empty(n_points, complex)
    psi.real, psi.imag = column(n_points), column(n_points)
    return replace(report, times=column(), q_c=column(), qdot_c=column(), x_h=column(),
                   x2_s=column(), x2_h=column(), xi=column(), residual_5_1=column(),
                   vacuum_term=float(rng.choice(SPECIALS)),
                   final_state=GridWavefunction(PositionGrid(8.0, n_points), psi))


@pytest.mark.parametrize("rows", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_special_floats_and_chunk_edges_match_the_reference_writer(tiny, tmp_path, rows):
    report = synthetic(tiny[1], rows, seed=rows)
    write_all(report, tmp_path, {})
    assert_reference_bytes(report, tmp_path)


def test_each_distinct_chunk_is_rendered_once_per_report(tiny, tmp_path, monkeypatch):
    report = tiny[1]
    rendered = []
    render = serialize._render
    monkeypatch.setattr(serialize, "_render",
                        lambda values: rendered.append(values.tobytes()) or render(values))
    write_all(report, tmp_path, {})
    chunks = {values[start:start + CHUNK].tobytes()
              for _, columns in serialize.ARTIFACTS.values() if columns
              for _, column in columns
              for values in [column(report)] for start in range(0, len(values), CHUNK)}
    # the times, q_c and x2_heisenberg are each in three or four files
    assert sorted(rendered) == sorted(chunks)
    assert_reference_bytes(report, tmp_path)


def test_equal_bytes_of_another_dtype_render_by_their_own_rule(tiny, tmp_path):
    zeros = np.zeros(len(tiny[1].times))
    report = replace(tiny[1], x2_s=zeros, xi=zeros.astype(np.int64))
    write_all(report, tmp_path, {})
    assert_reference_bytes(report, tmp_path)


def test_export_peak_memory(tiny, tmp_path):
    config, report = tiny
    tracemalloc.start()
    try:
        cli._export(config, report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(list(tmp_path.iterdir())) == len(KINDS)
    # the whole-file writer peaked at ~2.7 MB
    assert peak < 1.5e6, peak


class Unprintable:
    def __init__(self, error):
        self.error = error

    def __str__(self):
        raise self.error


@pytest.mark.parametrize("kind", ["series", "report"])
def test_failed_write_leaves_no_file(tiny, tmp_path, kind):
    # x2_schrodinger, in both kinds, fails in its second chunk, after the
    # file's first chunk has been written
    error = ValueError("cell cannot be rendered")
    report = synthetic(tiny[1], CHUNK + 5, seed=1)
    x2_s = report.x2_s.astype(object)
    x2_s[CHUNK + 2] = Unprintable(error)
    report = replace(report, x2_s=x2_s)
    config = replace(tiny[0], exports=frozenset({kind}))
    with pytest.raises(ValueError) as failed:
        cli._export(config, report, tmp_path)
    assert failed.value is error
    assert failed.value.scenario == report.scenario.name
    assert list(tmp_path.iterdir()) == []


def test_failed_rename_leaves_no_file(tmp_path, monkeypatch):
    error = OSError("rename failed")

    def failing(src, dst):
        raise error

    monkeypatch.setattr(serialize.os, "replace", failing)
    with pytest.raises(OSError) as failed:
        serialize.write_csv(tmp_path / "summary.csv", ["a"], [[1.0], [2.0]])
    assert failed.value is error
    assert list(tmp_path.iterdir()) == []
