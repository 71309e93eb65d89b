import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import picture_lab as pl
from picture_lab import cli, serialize


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
record_every = 20
"""

TINY_MODESUM = """
[field]
kind = mode_sum
amplitudes = 0.05, 0.03
omegas = 0.41, 1.73
seed = 19

[time]
periods = 1
n_steps = 4000

[fock]
oracle = false

[run]
name = tinyms
record_every = 20
"""


def write(tmp_path, text, name="config.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_exit_zero_and_artifacts(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "ALL PASS" in captured
    series = out / "tiny_series.csv"
    report = out / "tiny_report.json"
    assert series.exists() and report.exists()
    header = series.read_text().splitlines()[0]
    assert header == "t,q_c,x2_schrodinger,x2_heisenberg,vacuum_term,residual_5_1"
    data = json.loads(report.read_text())
    assert data["verdicts"]["all_pass"] is True
    assert data["results"]["vacuum_term"] == pytest.approx(0.5, abs=1e-12)
    # no temporary files left behind
    assert not list(out.glob("*.tmp"))


def test_negative_mass_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY.replace("charge = 1.0", "charge = 1.0\nmass = -1.0"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "mass must be positive" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY + "\nmas = 1.0\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "mas" in err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY + "\n[oscilator]\nmass = 1.0\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "oscilator" in capsys.readouterr().err


def test_unparsable_value_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY.replace("n_steps = 4000", "n_steps = many"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "n_steps" in capsys.readouterr().err


def test_field_kind_key_mismatch_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY.replace("kind = monochromatic", "kind = zero"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "amplitude" in capsys.readouterr().err


def test_missing_config_reports_bundled_names(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1
    err = capsys.readouterr().err
    assert "driven" in err and "free" in err


def test_equivalence_failure_exit_two(tmp_path, capsys):
    cfg = write(tmp_path, TINY.replace("record_every = 20",
                                       "record_every = 20\ntol_equivalence = 1e-18"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_engine_error_exit_one(tmp_path, capsys):
    cfg = write(tmp_path, TINY.replace("n_steps = 4000", "n_steps = 10"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "dt" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path, TINY_MODESUM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["run", str(cfg), "--out", str(out2), "--quiet"]) == 0
    for name in ("tinyms_series.csv", "tinyms_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_readme_schema_block_lists_every_config_key(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Config schema", 1)[1].split("```")[1]
    parts = re.split(r"^\[(\w+)\]", block, flags=re.M)[1:]
    rows = dict(zip(parts[::2], parts[1::2]))
    assert set(rows) == set(cli.CONFIG_SCHEMA)
    for section, keys in cli.CONFIG_SCHEMA.items():
        words = set(re.findall(r"\w+", rows[section]))
        missing = [k for k in keys if k not in words]
        assert not missing, f"[{section}] {missing} missing from the README schema"

    # every "key (default ...)" in the block is what load_config gives for a
    # config that leaves the key unset, with each field kind
    defaults = {(section, key): raw for section, row in rows.items()
                for key, raw in re.findall(r"(\w+) \(([^,)]+)", row) if raw != "required"}
    no_default = {"t1", "periods", "n_steps", "amplitude", "omega", "amplitudes",
                  "omegas", "phases"}
    assert sorted(key for _, key in defaults) == \
        sorted(set().union(*cli.CONFIG_SCHEMA.values()) - no_default)
    for field in ("", "kind = monochromatic\namplitude = 0.1\nomega = 0.5",
                  "kind = mode_sum\namplitudes = 0.1\nomegas = 0.5"):
        text = f"[field]\n{field}\n[time]\nperiods = 1\nn_steps = 4000\n"
        path = write(tmp_path, text, "minimal.cfg")
        config = cli.load_config(path)
        s = config.scenario
        sources = (config, s, s.params, s.field, s.ics, s.time_grid)
        for (section, key), raw in defaults.items():
            if re.search(rf"^{key} =", text, flags=re.M):
                continue
            attr = "fock_oracle" if key == "oracle" else key
            value = next(getattr(o, attr) for o in sources if hasattr(o, attr))
            if raw == "config stem":
                expected = path.stem
            elif raw.startswith("auto"):  # left unset: chosen at run time
                expected = None
            else:
                expected = cli._convert(section, key, cli.CONFIG_SCHEMA[section][key], raw)
            assert value == expected, f"[{section}] {key}: README {raw}, loaded {value!r}"


def test_sweep_empty_values(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    assert cli.main(["sweep", str(cfg), "--axis", "e", "--values", ","]) == 1
    assert "no sweep values" in capsys.readouterr().err


def test_sweep_rejects_values_with_one_label(tmp_path, capsys):
    # both print as e=0.1: the second entry would overwrite the first's files
    cfg = write(tmp_path, TINY)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(cfg), "--axis", "e", "--values", "0.1, 0.1000001",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sweep e: ")
    assert "0.1 " in err[0] and "0.1000001" in err[0]
    assert not out.exists()  # rejected before any engine ran


def test_sweep_charge_axis(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "sweep"
    code = cli.main(["sweep", str(cfg), "--axis", "e",
                     "--values", "0,0.1", "--out", str(out)])
    assert code == 0
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0].startswith("axis,value,n_steps")
    assert len(summary) == 3
    assert (out / "e=0" / "tiny_e=0_series.csv").exists()
    assert (out / "e=0.1" / "tiny_e=0.1_series.csv").exists()


def test_sweep_dt_axis_reports_orders(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    out = tmp_path / "dtsweep"
    period = 2.0 * np.pi
    dts = [period / n for n in (2000, 4000, 8000, 16000)]
    code = cli.main(["sweep", str(cfg), "--axis", "dt",
                     "--values", ",".join(repr(d) for d in dts),
                     "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    order = re.search(r"observed order \(split-step <x\^2>\): (\S+)", text)
    assert order and 1.9 <= float(order.group(1)) <= 2.1, text
    # the RK4's finest endpoint difference (2.3e-15) sits at roundoff and is
    # left out; the other two give its order
    order = re.search(r"observed order \(classical trajectory\): (\S+)", text)
    assert order and 3.5 <= float(order.group(1)) <= 4.5, text


def test_sweep_artifact_cells_keep_their_format(tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(write(tmp_path, TINY)), "--axis", "e",
                     "--values", "0,0.05", "--out", str(out)]) == 0
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    header = summary[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in summary[1:]]
    assert len(rows) == 2
    cells = [cell for row in rows for key, cell in row.items()
             if key not in ("axis", "n_steps", "all_pass")]
    series = sorted(out.glob("*/*_series.csv"))
    assert len(series) == 2
    for path in series:
        cells += [c for line in path.read_text().splitlines()[1:] for c in line.split(",")]
    assert all(repr(float(cell)) == cell for cell in cells)
    for row in rows:
        assert row["axis"] == "e" and row["all_pass"] == "true"
        assert re.fullmatch(r"[0-9]+", row["n_steps"])


def test_artifact_table_matches_the_export_keys():
    kinds = set(serialize.ARTIFACTS)
    assert kinds == {f.name.removeprefix("export_") for f in fields(cli.RunConfig)
                     if f.name.startswith("export_")}
    assert kinds == {key.removeprefix("export_") for key in cli.CONFIG_SCHEMA["run"]
                     if key.startswith("export_")}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for suffix, _ in serialize.ARTIFACTS.values():
        assert f"`<name>_{suffix}`" in readme, suffix


def test_sweep_invalid_axis_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    with pytest.raises(SystemExit) as done:
        cli.main(["sweep", str(cfg), "--axis", "banana", "--values", "1"])
    assert done.value.code == 1  # 2 means a failed verdict
    assert "invalid choice: 'banana'" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["sweep", "CFG", "--axis", "e", "--values", "0",
                                   "--jobs", "x"],
                                  ["sweep", "CFG", "--values", "0"],
                                  ["run"]])
def test_usage_errors_exit_one(tmp_path, capsys, args):
    cfg = str(write(tmp_path, TINY))
    with pytest.raises(SystemExit) as done:
        cli.main([cfg if arg == "CFG" else arg for arg in args])
    assert done.value.code == 1
    assert "usage: picture-lab" in capsys.readouterr().err


def test_sweep_non_integer_fock_rejected(tmp_path, capsys):
    cfg = write(tmp_path, TINY)
    assert cli.main(["sweep", str(cfg), "--axis", "n_fock",
                     "--values", "32.5"]) == 1
    assert "integer" in capsys.readouterr().err


def test_sweep_parallel_jobs(tmp_path):
    cfg = write(tmp_path, TINY)
    summaries = []
    for jobs in ("2", "1"):
        out = tmp_path / f"jobs{jobs}"
        code = cli.main(["sweep", str(cfg), "--axis", "e", "--values", "0,0.05,0.1",
                         "--out", str(out), "--jobs", jobs])
        assert code == 0
        summaries.append((out / "sweep_summary.csv").read_bytes())
    # the workers' shares come back in the order of the values
    assert summaries[0] == summaries[1]


ALL_EXPORTS = "".join(f"export_{kind} = true\n" for kind in serialize.ARTIFACTS)


def entry_digests(tmp_path, axis, values, label):
    """sha256 by file name of the artifacts of entry ``label`` of a sweep."""
    cfg = write(tmp_path, TINY + ALL_EXPORTS)
    out = tmp_path / f"{axis}_{values}"
    assert cli.main(["sweep", str(cfg), "--axis", axis, "--values", values,
                     "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out / label).iterdir()}
    assert len(digests) == len(serialize.ARTIFACTS)
    return digests


def test_entry_artifacts_do_not_depend_on_its_batch(tmp_path):
    # determinism: e=0.05 runs in one batch with e=0 in the first sweep
    # and alone in the second, and writes the same bytes
    assert (entry_digests(tmp_path, "e", "0,0.05", "e=0.05")
            == entry_digests(tmp_path, "e", "0.05", "e=0.05"))


def test_entry_artifacts_do_not_depend_on_a_shared_row(tmp_path):
    # n_fock=64 reads the propagation of n_fock=32, whose row it shares,
    # in the first sweep and its own in the second
    assert (entry_digests(tmp_path, "n_fock", "32,64", "n_fock=64")
            == entry_digests(tmp_path, "n_fock", "64", "n_fock=64"))


@pytest.mark.parametrize("axis,values,batches", [("e", "0,0.05,0.1", [3]),
                                                 ("n_fock", "32,64", [1]),
                                                 ("n_points", "256,512", [1, 1]),
                                                 ("dt", "0.0015,0.001", [1, 1])])
def test_sweep_batches_the_entries_that_share_a_time_grid(tmp_path, monkeypatch, axis,
                                                          values, batches):
    sizes = []

    def counting(drive, psi, *args, **kwargs):
        sizes.append(1 if isinstance(psi, pl.GridWavefunction) else len(psi))
        return propagate(drive, psi, *args, **kwargs)

    propagate = pl.lab.propagate
    monkeypatch.setattr(pl.lab, "propagate", counting)
    assert cli.main(["sweep", str(write(tmp_path, TINY)), "--axis", axis,
                     "--values", values, "--out", str(tmp_path / "o")]) == 0
    assert sizes == batches


@pytest.mark.parametrize("axis,values,oracle,batches", [
    ("e", "0,0.05,0.1", "true", [3]),
    ("dt", "0.0015,0.001", "true", [1]),  # one oracle grid, one row
    ("n_points", "256,512", "true", [1]),
    ("n_fock", "32,64", "true", [1, 1]),  # one batch per basis size
    ("e", "0,0.05", "false", [])])
def test_sweep_batches_the_oracles_that_share_a_grid(tmp_path, monkeypatch, axis, values,
                                                     oracle, batches):
    sizes = []

    def counting(drive, state):
        sizes.append(1 if isinstance(drive, pl.DriveTable) else len(drive))
        return fock_state_moments(drive, state)

    fock_state_moments = pl.lab.fock_state_moments
    monkeypatch.setattr(pl.lab, "fock_state_moments", counting)
    config = write(tmp_path, set_key(TINY, "fock", "oracle", oracle))
    assert cli.main(["sweep", str(config), "--axis", axis, "--values", values,
                     "--out", str(tmp_path / "o")]) == 0
    assert sizes == batches


def set_key(text, section, key, value):
    """Config text with ``key = value`` in ``section`` (replacing any prior value)."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    header = f"[{section}]"
    if header not in lines:
        lines += ["", header]
    lines.insert(lines.index(header) + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


GOOD_AXIS_VALUE = {"e": "0.1", "gamma": "0.1", "dt": "0.01", "n_points": "512",
                   "n_fock": "32"}


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("section,key,value", [
    ("run", "record_every", "0"),
    ("run", "tol_equivalence", "-1"),
    ("run", "decay_threshold", "0"),
    ("grid", "n_points", "1000"),
    ("grid", "padding_sigmas", "0"),
    ("fock", "n_fock", "8"),
    ("fock", "oracle_steps_per_period", "0"),
    ("time", "splitting", "rk2"),
    ("time", "splitting", "yoshida4"),  # retired
    ("time", "n_steps", "1e400"),
    ("grid", "n_points", "inf"),
    ("field", "seed", "3"),
    ("run", "name", "../escaped"),
    ("run", "name", "..\\escaped"),
    # section None: a sweep value only, no config key
    (None, "e", "abc"),
    (None, "gamma", "abc"),
    (None, "dt", "abc"),
    (None, "n_points", "abc"),
    (None, "n_fock", "abc"),
    (None, "dt", "0"),
    (None, "dt", "-0.01"),
    (None, "dt", "inf"),
    (None, "dt", "100"),
])
def test_invalid_scenario_value_rejected_before_engines(tmp_path, capsys, monkeypatch,
                                                        section, key, value):
    def no_engine(scenario):
        raise AssertionError("an engine ran before validation")

    monkeypatch.setattr(cli, "run_equivalence", no_engine)
    out = tmp_path / "o"
    if section is not None:
        cfg = write(tmp_path, set_key(TINY, section, key, value))
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        assert key in one_error_line(capsys)
        assert cli.main(["sweep", str(cfg), "--axis", "e", "--values", "0,0.1",
                         "--out", str(out)]) == 1
        assert key in one_error_line(capsys)
    if key in cli.SWEEP_AXES:
        # a bad value later in the sweep stops it before the first entry runs
        assert cli.main(["sweep", str(write(tmp_path, TINY)), "--axis", key,
                         "--values", f"{GOOD_AXIS_VALUE[key]},{value}",
                         "--out", str(out)]) == 1
        assert f"{key}={value}" in one_error_line(capsys)
    assert not out.exists()


# A free packet released from q0 = 15 swings through x = 0 with momentum
# 15; its spectrum then needs pi/dx above 15 + 11 momentum widths.
RELEASED = """
[oscillator]
charge = 0.0

[initial]
q0 = 15.0

[time]
periods = 1
n_steps = 16000

[fock]
n_fock = 256

[run]
name = released
export_snapshots = true
"""


def snapshot_rows(path):
    return len(path.read_text().splitlines()) - 1  # less the header


def test_aliasing_is_a_grid_error(tmp_path, capsys):
    # 256 points give pi/dx = 17.6: the spectrum wraps round +-k_max, which
    # no position-space guard sees, and the run must not end as a verdict
    cfg = write(tmp_path, set_key(RELEASED, "grid", "n_points", "256"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "spectral density reached the grid edge at step" in one_error_line(capsys)


def test_grid_sized_from_the_momentum_reach(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["run", str(write(tmp_path, RELEASED)), "--out", str(out)]) == 0
    assert snapshot_rows(out / "released_final_state.csv") == 512


def test_explicit_n_points_is_honoured(tmp_path):
    text = set_key(TINY, "run", "export_snapshots", "true")
    out = tmp_path / "o"
    assert cli.main(["run", str(write(tmp_path, text)), "--out", str(out), "--quiet"]) == 0
    assert snapshot_rows(out / "tiny_final_state.csv") == 64
    fixed = write(tmp_path, set_key(text, "grid", "n_points", "1024"), "fixed.cfg")
    assert cli.main(["run", str(fixed), "--out", str(out), "--quiet"]) == 0
    assert snapshot_rows(out / "tiny_final_state.csv") == 1024
    sweep = tmp_path / "sweep"
    assert cli.main(["sweep", str(write(tmp_path, text)), "--axis", "n_points",
                     "--values", "512,2048", "--out", str(sweep)]) == 0
    for n in (512, 2048):
        name = f"n_points={n}"
        assert snapshot_rows(sweep / name / f"tiny_{name}_final_state.csv") == n


def test_step_guard_follows_the_packet(tmp_path, capsys):
    # resonant drive from rest: the energy scale of the packet at t0 passes
    # the guard, but the packet swings out to |q_c| ~ 12
    text = """
[field]
kind = monochromatic
amplitude = 1.0
omega = 1.0

[time]
periods = 4
n_steps = 16000

[fock]
n_fock = 256
"""
    assert cli.main(["run", str(write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 1
    err = one_error_line(capsys)
    assert "too coarse" in err and "at step" in err


def test_truncated_coherent_state_exits_one(tmp_path, capsys):
    text = set_key(set_key(TINY, "initial", "v0", "60.0"), "fock", "n_fock", "64")
    assert cli.main(["run", str(write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 1
    assert "n_fock" in one_error_line(capsys)


def test_foreign_exception_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    # numpy's allocation error takes (shape, dtype), not one message;
    # construct it without allocating anything
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError

    def no_memory(*args, **kwargs):
        raise _ArrayMemoryError((2**40,), np.dtype(complex))

    monkeypatch.setattr(pl.lab, "propagate", no_memory)
    cfg = write(tmp_path, TINY)
    out = tmp_path / "o"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
    err = one_error_line(capsys)
    assert "[scenario tiny]" in err and "Unable to allocate" in err
    assert cli.main(["sweep", str(cfg), "--axis", "e", "--values", "0,0.1",
                     "--out", str(out)]) == 1
    err = one_error_line(capsys)
    assert "[scenario tiny_e=0]" in err and "Unable to allocate" in err
    assert not out.exists()


def fail_in_entry(monkeypatch, charge):
    """Make the classical path of the entry with ``charge`` raise MemoryError."""
    solve_trajectory = pl.lab.solve_trajectory

    def failing(params, *args, **kwargs):
        if params.charge == charge:
            raise MemoryError("no room")
        return solve_trajectory(params, *args, **kwargs)

    monkeypatch.setattr(pl.lab, "solve_trajectory", failing)


@pytest.mark.parametrize("values,jobs,workers", [("0,0.1", "1", []),
                                                 ("0,0.05,0.1", "2", [2])])
def test_foreign_error_names_the_batch_entry_it_arose_in(tmp_path, capsys, monkeypatch,
                                                         pools, values, jobs, workers):
    # e=0.1 shares its batch with e=0, also as worker 0's share of --jobs 2
    fail_in_entry(monkeypatch, 0.1)
    out = tmp_path / "o"
    assert cli.main(["sweep", str(write(tmp_path, TINY)), "--axis", "e",
                     "--values", values, "--out", str(out), "--jobs", jobs]) == 1
    assert one_error_line(capsys) == "error: [scenario tiny_e=0.1] MemoryError: no room\n"
    assert pools == workers and not out.exists()


def test_artifact_write_error_names_its_entry(tmp_path, capsys, monkeypatch):
    write_artifact = cli.write_artifact

    def failing(report, kind, path, cache=None):
        if report.scenario.name == "tiny_e=0.1":
            raise OSError("disk full")
        write_artifact(report, kind, path, cache)

    monkeypatch.setattr(cli, "write_artifact", failing)
    assert cli.main(["sweep", str(write(tmp_path, TINY)), "--axis", "e",
                     "--values", "0,0.1", "--out", str(tmp_path / "o")]) == 1
    assert one_error_line(capsys) == "error: [scenario tiny_e=0.1] OSError: disk full\n"


@pytest.fixture()
def pools(monkeypatch):
    """Replace ProcessPoolExecutor by a fake that runs inline; lists max_workers."""
    created = []

    class FakePool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = cli.concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    return created


@pytest.mark.parametrize("jobs,workers", [(1, []), (2, [2]), (3, [3]), (500, [3])])
def test_sweep_jobs_capped_at_entry_count(tmp_path, monkeypatch, pools, jobs, workers):
    ran = []

    def fake_entries(entries):
        rows = []
        for config, _ in entries:
            ran.append(config.scenario.name)
            row = {key: 0.0 for key in ("sup_discrepancy", "ehrenfest_sup",
                                        "decomposition_sup", "residual_min",
                                        "residual_max", "vacuum_term", "q_c_final",
                                        "x2_s_final", "dt")}
            rows.append(dict(row, name=ran[-1], n_steps=1, all_pass=True))
        return rows

    monkeypatch.setattr(cli, "_sweep_entries", fake_entries)
    cfg = write(tmp_path, TINY)
    assert cli.sweep_command(str(cfg), "e", ["0", "0.05", "0.1"],
                             tmp_path / "o", jobs=jobs) == 0
    assert pools == workers
    assert len(ran) == 3


@pytest.mark.parametrize("jobs", ["0", "-1", "-500"])
def test_sweep_jobs_below_one_rejected(tmp_path, capsys, monkeypatch, pools, jobs):
    monkeypatch.setattr(cli, "run_equivalence", lambda scenario: pytest.fail("ran"))
    out = tmp_path / "o"
    assert cli.main(["sweep", str(write(tmp_path, TINY)), "--axis", "e",
                     "--values", "0,0.1", "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs" in one_error_line(capsys)
    assert pools == [] and not out.exists()


def test_module_entry_point_runs_without_warnings(tmp_path):
    # importing the package must not import cli, or runpy warns that
    # picture_lab.cli was already in sys.modules before running it as __main__
    cfg = write(tmp_path, TINY)
    env = dict(os.environ, PYTHONPATH=str(Path(pl.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "picture_lab.cli", "run",
         str(cfg), "--quiet", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "tiny_report.json").exists()
