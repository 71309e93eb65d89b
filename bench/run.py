"""picture-lab benchmark: time to a verified verdict, split by engine.

Run from the root of a checkout:

    python3 bench/run.py --workload golden_driven --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics.  The program is driven only through ``cli.run_command``,
``cli.sweep_command`` and ``cli.load_config``, one operation at a time in
this process (closed loop, one worker).  Every operation is checked
against the accuracy gates below and against the artifacts of the run's
first operation.  The last line of standard output is one JSON object;
the full record (samples, quartiles, gates, artifact digests, machine
metadata) goes to ``.bench_results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, install, self_times

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
# One thread for every numeric library, set before numpy is first imported
# here and inherited by the set-up interpreters.  A threaded BLAS on a small
# shared host measures its neighbours: the oracle's 64x64 products spin a
# second thread that waits on whatever else holds the other core.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

WORKLOADS = ("golden_free", "sweep_fixed")

# Accuracy gates fixed by the benchmark itself, never read from the program,
# so that a change to the program's step counts or tolerances cannot loosen
# them.  Every workload runs in natural units (m = omega0 = hbar = 1).
GATE_SUP_DISCREPANCY = 1e-5     # sup_t |<x^2>_S - <x^2>_H|
GATE_RESIDUAL_VACUUM = 1e-6     # |residual_5_1 - vacuum_term| at every sample
FLAWED_VALUE = 1.0              # hbar / (m omega0)
GATE_FLAWED_VALUE = 1e-9
GATE_EHRENFEST = 1e-5           # sup_t |<x>_S - q_c|
FREE_MOMENT = 0.5               # hbar / (2 m omega0), golden_free only
GATE_FREE_MOMENT = 1e-8

# The golden workloads run the bundled configs with every key as shipped
# except the horizon, cut to this share (2 of 10 periods) with n_steps cut
# in proportion, so dt, record cadence, grid, Fock basis and tolerances are
# unchanged and a change to the shipped step count shows here in
# proportion.  At 2 periods the oracle's 2000-step floor equals its
# per-period rate, so the engines keep their full-horizon shares.
GOLDEN_HORIZON_SHARE = 0.2

# sweep_fixed: a step count the benchmark fixes, so a method that wins by
# taking fewer steps cannot show a gain here.
SWEEP_PERIODS = 2.0
SWEEP_STEPS = 8000
SWEEP_RECORD_EVERY = 2
SWEEP_MODES = 3
SWEEP_CHARGES = 3

MIN_OPS = 4             # traced runs alternate untraced and traced ops

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "1"}
PER_LAYER_UNITS = {
    "schrodinger.propagate_s": "s", "schrodinger.us_per_step": "us",
    "schrodinger.steps": "count", "schrodinger.records": "count",
    "schrodinger.ffts": "count", "schrodinger.fft_bytes_per_step": "B",
    "heisenberg.oracle_s": "s", "heisenberg.oracle_steps": "count",
    "heisenberg.closed_form_self_s": "s",
    "classical.solve_trajectory_s": "s", "classical.integrate_forced_s": "s",
    "classical.drive_table_s": "s", "classical.rk4_steps": "count",
    "classical.us_per_rk4_step": "us",
    "serialize.write_s": "s", "serialize.bytes": "B", "serialize.files": "count",
    "cli.load_config_s": "s",
    "lab.self_s": "s", "lab.sup_discrepancy": "1", "lab.ehrenfest_sup": "1",
    "lab.norm_drift": "1", "lab.oracle_matrix_sup": "1",
    "trace.overhead_s": "s",
}
# accuracy readouts taken from the written reports, worst over an operation
NO_READOUTS = {"lab.sup_discrepancy": 0.0, "lab.ehrenfest_sup": 0.0,
               "lab.norm_drift": 0.0, "lab.oracle_matrix_sup": 0.0}

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from picture_lab import cli
cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - start))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    charges: tuple | None = None   # sweep_fixed only: values of the "e" axis

    @property
    def expected_reports(self) -> int:
        return len(self.charges) if self.charges else 1

    def operate(self, cli, out_dir: Path) -> int:
        if self.charges is None:
            return cli.run_command(str(self.config), str(out_dir), verbosity=0)
        return cli.sweep_command(str(self.config), "e", list(self.charges),
                                 str(out_dir), jobs=1)


def golden_config(cli, name: str, share: float, work: Path) -> Path:
    """The bundled config ``name`` with its horizon and n_steps cut to ``share``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    with open(cli.BUNDLED_DIR / f"{name}.cfg") as handle:
        parser.read_file(handle)
    tsec = parser["time"]
    tsec["n_steps"] = str(max(1, round(int(float(tsec["n_steps"])) * share)))
    if "periods" in tsec:
        tsec["periods"] = repr(float(tsec["periods"]) * share)
    else:
        t0 = float(tsec.get("t0", "0"))
        tsec["t1"] = repr(t0 + (float(tsec["t1"]) - t0) * share)
    path = work / f"{name}.cfg"
    with open(path, "w") as handle:
        parser.write(handle)
    return path


def sweep_config(seed: int, scale: float, work: Path) -> tuple:
    """Seeded mode-sum config and charge list for sweep_fixed.

    Ranges keep every guard far from tripping: amplitudes <= 0.06 and
    charges <= 2 hold |F| below 0.4, and omegas <= 2.5 keep dt two orders
    of magnitude under the resolution limit; the grid and Fock basis are
    sized by the program from the trajectory.
    """
    rng = random.Random(seed)
    amplitudes = [rng.uniform(0.02, 0.06) for _ in range(SWEEP_MODES)]
    omegas = [rng.uniform(0.3, 2.5) for _ in range(SWEEP_MODES)]
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(SWEEP_MODES)]
    charges = set()
    while len(charges) < SWEEP_CHARGES:
        charges.add(round(rng.uniform(0.25, 2.0), 3))
    join = lambda values: ", ".join(repr(v) for v in values)
    text = f"""\
[oscillator]
mass = 1.0
omega0 = 1.0
charge = 1.0
hbar = 1.0

[field]
kind = mode_sum
amplitudes = {join(amplitudes)}
omegas = {join(omegas)}
phases = {join(phases)}

[time]
periods = {SWEEP_PERIODS * scale!r}
n_steps = {max(1, round(SWEEP_STEPS * scale))}

[run]
name = sweep
record_every = {SWEEP_RECORD_EVERY}
export_series = true
export_report = true
export_trajectory = true
export_snapshots = true
export_fock_moments = true
"""
    path = work / "sweep.cfg"
    path.write_text(text)
    return path, tuple(repr(c) for c in sorted(charges))


def prepare(cli, name: str, seed: int, scale: float, work: Path) -> Workload:
    if name == "sweep_fixed":
        path, charges = sweep_config(seed, scale, work)
        return Workload(name, path, charges)
    bundled = name.removeprefix("golden_")
    return Workload(name, golden_config(cli, bundled, GOLDEN_HORIZON_SHARE * scale, work))


def _read_series(path: Path) -> dict:
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in handle if line.strip()]
    return dict(zip(header, zip(*rows)))


def check_artifacts(workload: Workload, out_dir: Path):
    """Evaluate the gates on one operation's artifacts.

    Returns (gate -> passed, accuracy readouts, file -> sha256).
    """
    digests = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.rglob("*")) if p.is_file()}
    reports = sorted(out_dir.rglob("*_report.json"))
    gates = {"reports_present": len(reports) == workload.expected_reports}
    readouts = dict(NO_READOUTS)
    checks = {"sup_discrepancy": True, "residual_vacuum": True,
              "flawed_value": True, "ehrenfest": True}
    if workload.name == "golden_free":
        checks["free_moment"] = True
    for report_path in reports:
        results = json.loads(report_path.read_text())["results"]
        series_path = report_path.with_name(
            report_path.name.removesuffix("_report.json") + "_series.csv")
        series = _read_series(series_path)
        checks["sup_discrepancy"] &= results["sup_discrepancy"] < GATE_SUP_DISCREPANCY
        checks["ehrenfest"] &= results["ehrenfest_sup"] < GATE_EHRENFEST
        checks["flawed_value"] &= (abs(results["flawed_eq6_value"] - FLAWED_VALUE)
                                   <= GATE_FLAWED_VALUE)
        checks["residual_vacuum"] &= all(
            abs(r - v) <= GATE_RESIDUAL_VACUUM
            for r, v in zip(series["residual_5_1"], series["vacuum_term"]))
        if "free_moment" in checks:
            checks["free_moment"] &= max(
                abs(x2 - FREE_MOMENT) for x2 in series["x2_schrodinger"]) < GATE_FREE_MOMENT
        for key, field in (("lab.sup_discrepancy", "sup_discrepancy"),
                           ("lab.ehrenfest_sup", "ehrenfest_sup"),
                           ("lab.norm_drift", "norm_error_max"),
                           ("lab.oracle_matrix_sup", "oracle_matrix_sup")):
            readouts[key] = max(readouts[key], results[field] or 0.0)
    gates.update(checks if reports else {k: False for k in checks})
    return gates, readouts, digests


def measure_setup(config: Path) -> float:
    """Seconds from a fresh interpreter to a validated Scenario."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(spans: list, own: list, indices: list) -> dict:
    """Per-layer totals of one traced operation (span indices of that op)."""
    def pick(name):
        return [i for i in indices if spans[i].name == name]

    def total(name):
        return sum(spans[i].duration for i in pick(name))

    def own_total(name):
        return sum(own[i] for i in pick(name))

    def counted(name, key):
        return sum(spans[i].counters[key] for i in pick(name))

    prop = pick("schrodinger.propagate")
    steps = counted("schrodinger.propagate", "steps")
    records = counted("schrodinger.propagate", "records")
    # Computed from the Strang loop: one fft/ifft pair per step, one more
    # per record step before the last, one to enter the staggered form.
    ffts = [2 * spans[i].counters["steps"] + 2 * (spans[i].counters["records"] - 1)
            for i in prop]
    fft_bytes = sum(f * 16 * spans[i].counters["n_points"] for f, i in zip(ffts, prop))
    propagate_s = total("schrodinger.propagate")
    solve_s = total("classical.solve_trajectory")
    forced_s = total("classical.integrate_forced")
    rk4_steps = (counted("classical.solve_trajectory", "steps")
                 + counted("classical.integrate_forced", "steps"))
    writes = [i for i in indices if spans[i].name.startswith("serialize.")]
    return {
        "schrodinger.propagate_s": propagate_s,
        "schrodinger.us_per_step": _ratio(1e6 * propagate_s, steps),
        "schrodinger.steps": steps,
        "schrodinger.records": records,
        "schrodinger.ffts": sum(ffts),
        "schrodinger.fft_bytes_per_step": _ratio(fft_bytes, steps),
        "heisenberg.oracle_s": total("heisenberg.evolve.matrix"),
        "heisenberg.oracle_steps": counted("heisenberg.evolve.matrix", "steps"),
        "heisenberg.closed_form_self_s": own_total("heisenberg.evolve.closed_form"),
        "classical.solve_trajectory_s": solve_s,
        "classical.integrate_forced_s": forced_s,
        "classical.drive_table_s": total("classical.build_drive_table"),
        "classical.rk4_steps": rk4_steps,
        "classical.us_per_rk4_step": _ratio(1e6 * (solve_s + forced_s), rk4_steps),
        "serialize.write_s": sum(spans[i].duration for i in writes),
        "serialize.bytes": sum(spans[i].counters["bytes"] for i in writes),
        "serialize.files": len(writes),
        "cli.load_config_s": total("cli.load_config"),
        "lab.self_s": own_total("lab.run_equivalence"),
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def metadata(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload for ``seconds``; returns the full result record.

    ``scale`` shrinks the horizon of every workload (the smoke test uses it);
    the benchmark proper always runs at 1.
    """
    from picture_lab import cli, heisenberg, lab, schrodinger

    work = WORK_DIR / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = prepare(cli, name, seed, scale, work)
        if not trace:
            measure_setup(workload.config)      # warm-up: compiles bytecode
        setup, ops = [], []
        tracer = Tracer()
        start = time.perf_counter()
        # Stop before an operation that would likely end past the deadline.
        # Set-up samples sit between operations, so that both are spread
        # over the whole run rather than bunched at its start.
        while len(ops) < MIN_OPS or (time.perf_counter() - start + statistics.median(
                op["wall_s"] for op in ops) <= seconds):
            if not trace:
                setup.append(measure_setup(workload.config))
            traced = trace and len(ops) % 2 == 1
            ops.append(_operate((cli, lab, heisenberg, schrodinger), workload, len(ops),
                                work / f"op{len(ops)}", tracer if traced else None))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = ops[0]["digests"]
    for op in ops:
        op["gates"]["deterministic"] = op["digests"] == reference
        op["failed"] = not all(op["gates"].values())
    names = dict.fromkeys(g for op in ops for g in op["gates"])
    gates = {g: {"evaluated": sum(g in op["gates"] for op in ops),
                 "missed": sum(not op["gates"].get(g, True) for op in ops)}
             for g in names}
    failed = sum(op["failed"] for op in ops)
    walls = [op["wall_s"] for op in ops if not op["traced"]]
    cpus = [op["cpu_s"] for op in ops if not op["traced"]]
    stats = {"run_s": quartiles(walls), "cpu_s": quartiles(cpus)}

    if trace:
        own = self_times(tracer.spans)
        traced = [op for op in ops if op["traced"]]
        per_op = []
        for op in traced:
            indices = [i for i, s in enumerate(tracer.spans) if s.op == op["index"]]
            layers = layer_metrics(tracer.spans, own, indices)
            layers.update(op["readouts"])
            op["layer_self_s"] = sum(own[i] for i in indices
                                     if tracer.spans[i].parent is not None)
            per_op.append(layers)
        metrics = {k: statistics.median(layers[k] for layers in per_op)
                   for k in per_op[0]}
        stats["traced_run_s"] = quartiles([op["wall_s"] for op in traced])
        metrics["trace.overhead_s"] = (stats["traced_run_s"]["median"]
                                       - stats["run_s"]["median"])
        units = PER_LAYER_UNITS
    else:
        stats["setup_s"] = quartiles(setup)
        metrics = {
            "setup_s": stats["setup_s"]["median"],
            "run_s": stats["run_s"]["median"],
            "cpu_s": stats["cpu_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (len(ops) - failed) / len(ops),
        }
        units = END_TO_END_UNITS
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "metadata": metadata(seed),
        "config": workload.config.name, "charges": workload.charges,
        "attempted": len(ops), "failed": failed, "gates": gates, "stats": stats,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "digests": reference,
        "ops": [{k: v for k, v in op.items() if k != "digests"} for op in ops],
    }


def _operate(modules, workload: Workload, index: int, out_dir: Path, tracer) -> dict:
    """One timed operation, then its gates outside the timed region."""
    cli = modules[0]
    root = None
    if tracer is not None:
        tracer.op = index
        install(tracer, *modules)
        root = tracer.begin("op")
    code, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = workload.operate(cli, out_dir)
    except Exception as exc:  # a raised operation counts as failed, run goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end(root)
            tracer.restore()
    gates = {"exit_code": code == 0, "no_exception": error is None}
    try:
        checked, readouts, digests = check_artifacts(workload, out_dir)
        gates.update(checked)
    except (OSError, ValueError, KeyError) as exc:
        gates["artifacts_readable"] = False
        readouts, digests = dict(NO_READOUTS), {}
        error = error or f"unreadable artifacts: {type(exc).__name__}: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"index": index, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "exit_code": code, "error": error, "gates": gates, "readouts": readouts,
            "digests": digests}


def report(result: dict) -> None:
    """Print every metric by name and unit, save the record, print the JSON line."""
    stats = result["stats"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    if result["trace"]:
        s = stats["traced_run_s"]
        print(f"  traced run_s = {s['median']:.6g} s  (median of {s['n']}; "
              f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for name, m in result["metrics"].items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        if name in stats:
            s = stats[name]
            line += f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        elif result["trace"] and m["unit"] == "s" and name != "trace.overhead_s":
            share = m["value"] / stats["traced_run_s"]["median"]
            line += f"  ({100 * share:.1f} % of traced run_s)"
        print(line)
    for gate, counts in result["gates"].items():
        print(f"  gate {gate}: evaluated {counts['evaluated']}, missed {counts['missed']}")
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / (f"{result['workload']}_seed{result['seed']}"
                          f"_trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"  record -> {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import picture_lab
    except ImportError as exc:
        print(f"error: cannot import picture_lab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(picture_lab.__file__).resolve().is_relative_to(SRC):
        print(f"error: picture_lab resolved outside {SRC}", file=sys.stderr)
        return 2
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
