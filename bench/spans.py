"""In-memory spans recorded around the program's public functions.

The benchmark wraps module attributes from outside (the program carries
no tracing code of its own).  Each call to a wrapped function records a
span: name, start, end, parent span, operation id and a few counters
read from the call's arguments or result.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; wrap() patches a module attribute in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, counters=None):
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``counters(bound_args, result)`` returns a dict of counts, and may
        return ``{"name": ...}`` to rename the span once the result is known.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = counters(bound.arguments, result)
                span = tracer.spans[index]
                span.name = extra.pop("name", span.name)
                span.counters.update(extra)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def install(tracer: Tracer, cli, lab, heisenberg, schrodinger):
    """Wrap the layer boundaries named in bench/README.md."""
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "run_equivalence", "lab.run_equivalence")
    tracer.wrap(lab, "propagate", "schrodinger.propagate", lambda a, r: {
        "steps": a["time_grid"].n_steps,
        "records": len(r.times),
        "n_points": len(r.psi.psi)})
    tracer.wrap(lab, "evolve_heisenberg", "heisenberg.evolve", lambda a, r: {
        "name": f"heisenberg.evolve.{r.method}",
        "steps": r.grid.n_steps})
    tracer.wrap(lab, "solve_trajectory", "classical.solve_trajectory",
                lambda a, r: {"steps": r.grid.n_steps})
    tracer.wrap(heisenberg, "integrate_forced", "classical.integrate_forced",
                lambda a, r: {"steps": r.grid.n_steps})
    for module in (schrodinger, heisenberg):
        tracer.wrap(module, "build_drive_table", "classical.build_drive_table")
    for attr in sorted(n for n in vars(cli) if n.startswith("write_")):
        tracer.wrap(cli, attr, f"serialize.{attr}",
                    lambda a, r: {"bytes": os.path.getsize(a["path"])})
