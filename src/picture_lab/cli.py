"""Command-line front end: config-driven runs, exports, and sweeps.

Configs are INI-style key-value files with sections.  CONFIG_SCHEMA below
gives the type of every key; each default is declared once, on the
dataclass the key is passed to (OscillatorParams, the FieldModel
constructor of the field kind, InitialConditions, Scenario, RunConfig),
and the README lists them.  Unknown sections or keys are hard errors, and
every physical value is validated before any engine runs.  The bundled
configs are the golden suite (golden_scenarios).  Exit codes: 0 all
verdicts pass, 2 a verdict failed, 1 any other failure, reported by
_fail.  The files a run or sweep writes, their columns and cell format
are defined in serialize; [run] has one export_<kind> key per kind of its
ARTIFACTS, and RunConfig.exports holds the kinds a run writes.  SWEEP_AXES
is the one table of sweep axes: each axis's type tag, by which _convert
reads its values as it reads config values, and how a value sets it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import inspect
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .classical import InitialConditions
from .errors import ConfigInvalid, PictureLabError
from .lab import Scenario, observed_order, run_equivalence
from .model import FIELD_KINDS, FieldModel, OscillatorParams, TimeGrid
from .serialize import ARTIFACTS, SUMMARY_COLUMNS, write_artifact, write_csv

BUNDLED_DIR = Path(__file__).parent / "configs"

# section -> key -> type tag.  Defaults live only on the dataclasses the
# keys are passed to; a key the file does not set is not passed on.
CONFIG_SCHEMA = {
    "oscillator": {"mass": "float", "omega0": "float", "charge": "float",
                   "hbar": "float"},
    "field": {"kind": "str", "gamma": "float", "amplitude": "float", "omega": "float",
              "phase": "float", "amplitudes": "floats", "omegas": "floats",
              "phases": "floats", "seed": "int"},
    "initial": {"q0": "float", "v0": "float"},
    "time": {"t0": "float", "t1": "float", "periods": "float", "n_steps": "int",
             "splitting": "str"},
    "grid": {"n_points": "int", "padding_sigmas": "float"},
    "fock": {"n_fock": "int", "oracle": "bool", "oracle_steps_per_period": "int"},
    "run": {"name": "str", "record_every": "int", "match_quantum_ics": "bool",
            "tol_equivalence": "float", "decay_threshold": "float",
            **{f"export_{kind}": "bool" for kind in ARTIFACTS}, "verbosity": "int"},
}

@dataclass(frozen=True)
class RunConfig:
    """A scenario, the ARTIFACTS kinds its run writes, and how much it prints."""
    scenario: Scenario
    exports: frozenset = frozenset({"series", "report"})
    verbosity: int = 1


def _convert(kind: str, raw: str):
    """``raw`` read by the rule of type tag ``kind``, for config and sweep
    values alike; raises ValueError."""
    if kind == "float":
        return float(raw)
    if kind == "int":
        value = float(raw)
        if not value.is_integer():
            raise ValueError("not an integer")
        return int(value)
    if kind == "bool":
        flag = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if flag is None:
            raise ValueError("not a boolean")
        return flag
    if kind == "floats":
        return tuple(float(p) for p in raw.replace(",", " ").split())
    return raw.strip()


def _read_config(path) -> dict:
    """Section -> the typed values of the keys the file sets."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigInvalid(f"malformed config {path}: {exc}") from None

    values = {section: {} for section in CONFIG_SCHEMA}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigInvalid(f"unknown section [{section}]")
        schema = CONFIG_SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigInvalid(f"unknown key '{key}' in section [{section}]")
            values[section][key] = _build(f"[{section}] {key}={raw.strip()}: ",
                                          _convert, schema[key], raw)
    return values


def _build_field(fsec: dict) -> FieldModel:
    kind = fsec.pop("kind", FieldModel.kind)
    if kind not in FIELD_KINDS:
        raise ConfigInvalid(f"[field] kind: must be one of {sorted(FIELD_KINDS)}, "
                            f"got {kind!r}")
    # the kind's FieldModel constructor names its keys; those without a
    # default are required
    keys = inspect.signature(getattr(FieldModel, kind)).parameters.values()
    extraneous = fsec.keys() - {p.name for p in keys}
    if extraneous:
        raise ConfigInvalid(f"[field] keys {sorted(extraneous)} are not valid for "
                            f"kind '{kind}'")
    for key in keys:
        if key.default is key.empty and key.name not in fsec:
            raise ConfigInvalid(f"[field] {key.name} is required for kind '{kind}'")
    return _build("[field] ", getattr(FieldModel, kind), **fsec)


def _build(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ValueError raised as ConfigInvalid after ``prefix``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigInvalid(f"{prefix}{exc}") from None


def load_config(path) -> RunConfig:
    """Parse and validate a config file into a runnable scenario."""
    cfg = _read_config(path)
    params = _build("[oscillator] ", OscillatorParams, **cfg["oscillator"])
    field = _build_field(cfg["field"])
    ics = _build("[initial] ", InitialConditions, **cfg["initial"])

    # [time] keys other than the grid's go to Scenario, as do [grid], [fock]
    # and the [run] keys other than exports and verbosity
    tsec = cfg["time"]
    t0 = tsec.pop("t0", 0.0)
    t1, periods = tsec.pop("t1", None), tsec.pop("periods", None)
    if "n_steps" not in tsec:
        raise ConfigInvalid("[time] n_steps is required")
    if (t1 is None) == (periods is None):
        raise ConfigInvalid("[time] exactly one of t1 or periods must be set")
    if t1 is None:
        t1 = t0 + periods * params.period
        if not t0 < t1 < math.inf:  # a span that rounds away leaves t1 at t0
            raise ConfigInvalid(f"[time] periods: must be > 0 and end the run at a finite "
                                f"time after t0 = {t0!r}, got {periods!r}")
    grid = _build("[time] ", TimeGrid, t0, t1, tsec.pop("n_steps"))

    fock = cfg["fock"]
    if "oracle" in fock:
        fock["fock_oracle"] = fock.pop("oracle")
    rsec = cfg["run"]
    name = rsec.pop("name", "") or Path(path).stem
    if "/" in name or "\\" in name:  # artifact paths are joined from the name
        raise ConfigInvalid(f"[run] name: must not contain '/' or '\\', got {name!r}")
    exports = frozenset(kind for kind in ARTIFACTS
                        if rsec.pop(f"export_{kind}", kind in RunConfig.exports))
    verbosity = rsec.pop("verbosity", RunConfig.verbosity)
    scenario = _build("", Scenario, name=name, params=params, field=field, ics=ics,
                      time_grid=grid, **tsec, **cfg["grid"], **fock, **rsec)
    return RunConfig(scenario, exports, verbosity)


def golden_scenarios(fock_oracle: bool = True) -> dict:
    """The four reference scenarios of the acceptance suite, by name.

    They are the bundled configs of the same names; each config's header
    says why it takes its step count and splitting.
    """
    return {name: replace(load_config(BUNDLED_DIR / f"{name}.cfg").scenario,
                          fock_oracle=fock_oracle)
            for name in ("free", "driven", "mode_sum", "damped")}


def resolve_config_path(arg: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled config."""
    path = Path(arg)
    if path.exists():
        return path
    bundled = BUNDLED_DIR / (arg if arg.endswith(".cfg") else arg + ".cfg")
    if bundled.exists():
        return bundled
    raise ConfigInvalid(f"config not found: {arg} (bundled: "
                        f"{', '.join(sorted(p.stem for p in BUNDLED_DIR.glob('*.cfg')))})")


def _export(config: RunConfig, report, out_dir: Path):
    cache = {}  # the report's rendered cells, shared by its files
    try:
        for kind, (suffix, _) in ARTIFACTS.items():
            if kind in config.exports:
                write_artifact(report, kind, out_dir / f"{report.scenario.name}_{suffix}",
                               cache)
    except Exception as exc:
        exc.scenario = report.scenario.name
        raise


def _fail(exc: Exception) -> int:
    """Report ``exc`` as one ``error:`` line on stderr; returns exit code 1.

    Every failure of a command leaves here.  Any error but the package's
    own that escaped a scenario is headed by the scenario's name and type.
    """
    name = getattr(exc, "scenario", None)
    if name is not None and not isinstance(exc, PictureLabError):
        exc = f"[scenario {name}] {type(exc).__name__}: {exc}"
    print(f"error: {exc}", file=sys.stderr)
    return 1


def run_command(config_path, out_dir=None, verbosity=None) -> int:
    try:
        config = load_config(resolve_config_path(config_path))
        out = Path(out_dir) if out_dir else Path(f"{config.scenario.name}_run")
        report = run_equivalence(config.scenario)
        _export(config, report, out)
    except Exception as exc:
        return _fail(exc)
    if verbosity is None:
        verbosity = config.verbosity
    if verbosity >= 1:
        for line in report.summary_lines():
            print(line)
        print(f"  artifacts -> {out}")
        print(f"verdict: {'ALL PASS' if report.all_pass else 'FAIL'}")
    return 0 if report.all_pass else 2


def _with_dt(s: Scenario, dt: float) -> Scenario:
    grid = s.time_grid
    horizon = grid.t1 - grid.t0
    if not (0 < dt <= horizon and math.isfinite(horizon / dt)):
        raise ValueError(f"dt must be finite, > 0 and at most the horizon {horizon:g}")
    return replace(s, time_grid=TimeGrid(grid.t0, grid.t1, int(round(horizon / dt))))


# sweep axis -> (type tag of its values, (scenario, value) -> swept scenario)
SWEEP_AXES = {
    "e": ("float", lambda s, v: replace(s, params=replace(s.params, charge=v))),
    "gamma": ("float", lambda s, v: replace(s, field=replace(s.field, gamma=v))),
    "dt": ("float", _with_dt),
    "n_points": ("int", lambda s, v: replace(s, n_points=v)),
    "n_fock": ("int", lambda s, v: replace(s, n_fock=v)),
}


def _sweep_entries(entries):
    """Run sweep entries as one call of ``run_equivalence``, which batches
    those that share a time grid, and export them; returns their summary
    rows by column name, each with its run's ``norm_error_max``, which the
    dt orders read and the summary does not hold."""
    reports = run_equivalence([config.scenario for config, _ in entries])
    rows = []
    for (config, out_dir), report in zip(entries, reports):
        _export(config, report, Path(out_dir))
        rows.append({header: column(report) for header, column in SUMMARY_COLUMNS})
        rows[-1]["norm_error_max"] = report.norm_error_max
    return rows


def sweep_command(config_path, axis, values, out_dir=None, jobs=1) -> int:
    for bad, message in ((axis not in SWEEP_AXES,
                          f"axis must be one of {tuple(SWEEP_AXES)}"),
                         (not values, "no sweep values"),
                         (jobs < 1, f"--jobs must be at least 1, got {jobs}")):
        if bad:
            return _fail(ConfigInvalid(message))
    try:
        base = load_config(resolve_config_path(config_path))
        out = Path(out_dir) if out_dir else Path(f"{base.scenario.name}_sweep_{axis}")
        kind, swept = SWEEP_AXES[axis]
        entries, parsed, raws = [], [], {}
        for raw in values:
            prefix = f"sweep {axis}={raw.strip()}: "
            v = _build(prefix, _convert, kind, raw)
            # the label names the entry's directory and scenario
            label = f"{axis}={v:g}"
            if label in raws:
                raise ConfigInvalid(f"sweep {axis}: values {raws[label]} and {raw.strip()} "
                                    f"both label their entry {label}")
            raws[label] = raw.strip()
            s = _build(prefix, swept, base.scenario, v)
            entries.append((replace(base, scenario=replace(s, name=f"{s.name}_{label}")),
                            out / label))
            parsed.append(v)
        values = parsed

        # each worker runs every workers-th entry, as one run_equivalence
        # call; the pool starts all its workers at the first submit: never
        # more than there are entries
        workers = min(jobs, len(entries))
        if workers == 1:
            shares = [_sweep_entries(entries)]
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_sweep_entries, entries[i::workers])
                           for i in range(workers)]
                shares = [future.result() for future in futures]
        rows = [None] * len(entries)
        for i, share in enumerate(shares):
            rows[i::workers] = share

        # the value prints as a float on every axis, integer axes included
        headers = [header for header, _ in SUMMARY_COLUMNS]
        write_csv(out / "sweep_summary.csv", ["axis", "value"] + headers,
                  [[axis, float(v)] + [row[h] for h in headers]
                   for v, row in zip(values, rows)])
    except Exception as exc:
        return _fail(exc)

    for v, row in zip(values, rows):
        print(f"{axis}={v:g}: sup discrepancy {row['sup_discrepancy']:.3e}, "
              f"{'pass' if row['all_pass'] else 'FAIL'}")
    if axis == "dt" and len(rows) >= 3:
        _print_dt_orders(values, rows)
    print(f"summary -> {out / 'sweep_summary.csv'}")
    return 0 if all(r["all_pass"] for r in rows) else 2


def _print_dt_orders(values, rows):
    """Observed orders fitted to the successive endpoint differences.

    A difference below sqrt(n_steps of the finer run) ulps of its endpoint
    is roundoff, not truncation error, and is left out of the fit.  So is a
    split-step difference below 2 (eps_1 + eps_2) |<x^2>|, eps being each
    run's norm drift: a moment of a state whose norm is 1 + eps is off by
    2 eps of itself.
    """
    order = sorted(range(len(values)), key=lambda i: -values[i])
    for label, key, drifts in (("classical trajectory", "q_c_final", False),
                               ("split-step <x^2>", "x2_s_final", True)):
        pairs = [(rows[i]["dt"], abs(rows[i][key] - rows[j][key]),
                  max(math.sqrt(rows[j]["n_steps"]) * math.ulp(rows[j][key]),
                      drifts * 2.0 * (rows[i]["norm_error_max"] + rows[j]["norm_error_max"])
                      * abs(rows[j][key])))
                 for i, j in zip(order, order[1:])]
        pairs = [(dt, diff) for dt, diff, roundoff in pairs if diff > roundoff]
        if len(pairs) >= 2:
            print(f"observed order ({label}): {observed_order(*zip(*pairs)):.2f}")


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as for any other; 2 means a failed verdict."""
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="picture-lab",
        description="Schrodinger vs Heisenberg picture laboratory for a driven "
                    "charged oscillator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured scenario")
    p_run.add_argument("config", help="config path or bundled name "
                                      "(free, driven, mode_sum, damped)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--quiet", action="store_true", help="suppress the summary")

    p_sweep = sub.add_parser("sweep", help="run a scenario across an axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 0,0.01,0.1")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_command(args.config, args.out, 0 if args.quiet else None)
    values = [v for v in args.values.split(",") if v.strip()]
    return sweep_command(args.config, args.axis, values, args.out, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
