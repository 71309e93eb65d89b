"""Flat-file export: the artifact table and its writers.

``ARTIFACTS`` is the one list of files a run writes: each export kind
(the ``export_<kind>`` keys of ``[run]``) maps to its file suffix and
its columns, (header, report -> array) pairs; ``write_artifact`` writes
one of them.  ``SUMMARY_COLUMNS`` gives the ``sweep_summary.csv``
columns as (header, report -> cell) pairs, written by ``write_csv``.
Every cell follows one rule, ``_cell``: floats as ``repr`` (round-trip
exact), booleans as ``true``/``false``, integers and text as they are.
JSON has sorted keys, and no file carries a timestamp, so reruns are
byte-identical.

Each chunk of CHUNK rows of a column is rendered once per report:
``write_artifact`` takes a cache that the writes of one report share,
which keeps every distinct chunk as one ``","``-joined string.  So the
times, q_c and x2_heisenberg that several files repeat, and columns
equal to another, are rendered once.  Every file is streamed CHUNK rows
at a time to ``<file>.tmp`` in the target directory, which is renamed
once complete.  So an interrupted run never leaves a partial artifact
at a final path, and a failed write leaves no ``.tmp`` behind: the
temporary file is removed and the error re-raised.
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

# kind -> (file suffix, columns); the report is JSON (_report_json), not columns
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


CHUNK = 512  # rows rendered and written at a time


def _atomic_write(path, pieces):
    """Write the strings of ``pieces`` to ``path`` as they come.

    They go to ``<path>.tmp`` in the target directory, which is renamed to
    ``path`` once all are written.  On any error, raised by the write or by
    the iterable itself, the temporary file is removed and the error
    re-raised as it is.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    handle = open(tmp, "w")  # outside the try: a failed open leaves no file
    try:
        with handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 would repr with its type
    return str(value)


def write_csv(path, header, rows):
    """Write ``rows`` (sequences of cells) under a fixed header."""
    _atomic_write(path, (",".join(map(_cell, row)) + "\n"
                         for row in [header, *rows]))


def _render(values: np.ndarray) -> str:
    """The cells of ``values`` by the ``_cell`` rule, ``","``-joined."""
    # float64 cells go straight to float.__repr__, which _cell would call
    cell = float.__repr__ if values.dtype == np.float64 else _cell
    return ",".join(map(cell, values.tolist()))


def _rendered(arrays, cache: dict):
    """Yield the rows of ``arrays`` CHUNK at a time, as one ``","``-joined
    string of cells per array.

    ``cache`` maps the dtype and bytes of a chunk to its rendered string,
    so the files of one report render each distinct chunk once: a column
    that several files hold, or that equals another, is rendered once.  A
    rendered cell holds no comma.
    """
    for start in range(0, len(arrays[0]), CHUNK):
        row = []
        for values in arrays:
            chunk = values[start:start + CHUNK]
            key = (chunk.dtype.str, chunk.tobytes())
            if key not in cache:
                cache[key] = _render(chunk)
            row.append(cache[key])
        yield row


def _csv(report, columns, cache):
    yield ",".join(header for header, _ in columns) + "\n"
    for row in _rendered([column(report) for _, column in columns], cache):
        yield "\n".join(map(",".join, zip(*(chunk.split(",") for chunk in row)))) + "\n"


def _report_json(report, cache):
    """Yield report.json: ``json.dumps(content, indent=2, sort_keys=True)``
    and a newline.  Its series lists, all series columns but the constant
    vacuum term (a result), are written from the rendered chunks."""
    content = {
        "scenario": asdict(report.scenario),
        "tolerances": dict(report.tolerances),
        "series": {},
        "results": {"n_samples": len(report.times),
                    **{key: getattr(report, key) for key in _RESULTS}},
        "verdicts": {key: getattr(report, key) for key in _VERDICTS},
    }
    # a raw newline and two spaces open only a top-level key
    head, tail = json.dumps(content, indent=2, sort_keys=True).split('\n  "series": {}')
    yield head + '\n  "series": {'
    series = sorted(c for c in _SERIES if c[0] != "vacuum_term")  # by header
    for k, (header, column) in enumerate(series):
        yield f'{"," if k else ""}\n    {json.dumps(header)}: ['
        separator = "\n      "
        for (chunk,) in _rendered([column(report)], cache):
            if "n" in chunk:  # nan, inf: json spells them NaN, Infinity
                chunk = chunk.replace("nan", "NaN").replace("inf", "Infinity")
            yield separator + chunk.replace(",", ",\n      ")
            separator = ",\n      "
        yield "\n    ]"  # a report has at least one record
    yield "\n  }" + tail + "\n"


def write_artifact(report: EquivalenceReport, kind: str, path, cache=None):
    """Write the ``kind`` artifact of ``report`` to ``path``, CHUNK rows at a time.

    ``cache``, a dict, keeps the chunks rendered so far; pass one to all
    writes of a report, so that none renders a chunk twice.
    """
    if cache is None:
        cache = {}
    columns = ARTIFACTS[kind][1]
    _atomic_write(path, _report_json(report, cache) if columns is None
                  else _csv(report, columns, cache))
