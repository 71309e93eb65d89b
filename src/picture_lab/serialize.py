"""Flat-file export: the artifact table and its writers.

``ARTIFACTS`` is the one list of files a run writes: each export kind
(the ``export_<kind>`` keys of ``[run]``) maps to its file suffix and
its columns, (header, report -> array) pairs; ``write_artifact`` writes
one of them.  ``SUMMARY_COLUMNS`` gives the ``sweep_summary.csv``
columns as (header, report -> cell) pairs.  Every CSV goes through
``write_csv``, with one cell rule: floats as ``repr`` (round-trip
exact), booleans as ``true``/``false``, integers and text as they are.
JSON has sorted keys, and no file carries a timestamp, so reruns are
byte-identical.  Writes are atomic: content goes to a temporary file in
the target directory which is then renamed, so an interrupted run never
leaves a partial artifact at a final path.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

import numpy as np

from .lab import EquivalenceReport

_SERIES = (("t", lambda r: r.times), ("q_c", lambda r: r.q_c),
           ("x2_schrodinger", lambda r: r.x2_s), ("x2_heisenberg", lambda r: r.x2_h),
           ("vacuum_term", lambda r: np.full(len(r.times), r.vacuum_term)),
           ("residual_5_1", lambda r: r.residual_5_1))

# kind -> (file suffix, columns); the report is JSON (report_dict), not columns
ARTIFACTS = {
    "series": ("series.csv", _SERIES),
    "report": ("report.json", None),
    "trajectory": ("trajectory.csv", (("t", lambda r: r.times), ("q_c", lambda r: r.q_c),
                                      ("qdot_c", lambda r: r.qdot_c))),
    "fock_moments": ("fock_moments.csv", (
        ("t", lambda r: r.times), ("x_heisenberg", lambda r: r.x_h),
        ("x2_heisenberg", lambda r: r.x2_h), ("xi", lambda r: r.xi))),
    "snapshots": ("final_state.csv", (
        ("x", lambda r: r.final_state.grid.x), ("re_psi", lambda r: r.final_state.psi.real),
        ("im_psi", lambda r: r.final_state.psi.imag),
        ("density", lambda r: r.final_state.density()))),
}

# sweep_summary.csv columns after axis and value: (header, report -> cell)
SUMMARY_COLUMNS = (
    ("n_steps", lambda r: r.scenario.time_grid.n_steps),
    ("dt", lambda r: r.scenario.time_grid.dt),
    *((key, attrgetter(key)) for key in ("sup_discrepancy", "ehrenfest_sup",
                                         "decomposition_sup", "residual_min",
                                         "residual_max", "vacuum_term")),
    ("q_c_final", lambda r: r.q_c[-1]), ("x2_s_final", lambda r: r.x2_s[-1]),
    ("all_pass", attrgetter("all_pass")),
)

# report.json "results" and "verdicts": report attributes of the same names
_RESULTS = ("vacuum_term", "sup_discrepancy", "ehrenfest_sup", "decomposition_sup",
            "residual_min", "residual_max", "flawed_eq6_value", "norm_error_max",
            "decay_time", "oracle_matrix_sup", "oracle_moment_sup")
_VERDICTS = ("equivalence_pass", "eq51_falsified", "residual_matches_vacuum", "all_pass")


def atomic_write_text(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 would repr with its type
    return str(value)


def write_csv(path, header, rows):
    """Write ``rows`` (sequences of cells) under a fixed header."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def report_dict(report: EquivalenceReport) -> dict:
    """The report.json content: scenario echo, tolerances, series, results, verdicts."""
    return {
        "scenario": asdict(report.scenario),
        "tolerances": dict(report.tolerances),
        # the series columns but the constant vacuum term, which is a result
        "series": {header: column(report).tolist() for header, column in _SERIES
                   if header != "vacuum_term"},
        "results": {"n_samples": len(report.times),
                    **{key: getattr(report, key) for key in _RESULTS}},
        "verdicts": {key: getattr(report, key) for key in _VERDICTS},
    }


def write_artifact(report: EquivalenceReport, kind: str, path):
    """Write the ``kind`` artifact of ``report`` to ``path``."""
    columns = ARTIFACTS[kind][1]
    if columns is None:
        text = json.dumps(report_dict(report), indent=2, sort_keys=True)
        atomic_write_text(path, text + "\n")
        return
    header = [name for name, _ in columns]
    write_csv(path, header, zip(*(column(report).tolist() for _, column in columns)))
