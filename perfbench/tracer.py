"""Span tracing of the qvac layers from outside the program.

The tracer replaces public functions of the qvac modules with timing
wrappers, at the attributes the caller looks up at call time: module
functions where the CLI calls them through the module, names imported by
value where they were imported (``qvac.modestats.golden_section_max``),
and methods on their class (``UnitSystem.from_si``).  Nothing inside
``src/`` changes, and ``uninstall`` puts every original back.

A span has a name, a start, an end and a parent; the spans of one
operation share its id and hang below one root span named ``op``, which
belongs to the ``cli`` layer.  A span's self time is its duration minus
that of its children, so the self times of all layers add up to the op
span, less the wrapper cost the tracer calibrates and takes out.
Per-value calls (unit conversions, per-point spectral formulas)
run hundreds of thousands of times per operation, so spans live in flat
arrays and only coarse spans also read the process's peak RSS.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

LAYERS = ("cli", "constants", "modestats", "numerics", "correlation", "blackhole", "qpotential", "sampler")
STAGES = ("ingest", "kernel", "synth", "estimators")


def _ingest_bytes(args, result):
    yield "qpotential.ingest_bytes", os.path.getsize(args[0])


def _kernel_work(args, result):
    values = args[0].values
    yield "qpotential.kernel_cells", values.size
    out_bytes = result.nbytes if isinstance(result, np.ndarray) else 8
    yield "qpotential.kernel_bytes_computed", values.nbytes + out_bytes


def _samples(args, result):
    yield "sampler.samples", result.values.size


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``name`` is ``func`` or ``Class.method`` in
    ``module``.  Coarse targets also record peak-RSS growth and run
    ``probe(args, result)``, which yields (counter, amount) pairs."""

    module: str
    name: str
    layer: str
    stage: str | None = None
    coarse: bool = True
    probe: Callable | None = None


TARGETS = (
    Target("qvac.cli", "main", "cli"),
    Target("qvac.cli", "compton_wavenumber", "constants", coarse=False),
    Target("qvac.constants", "UnitSystem.to_si", "constants", coarse=False),
    Target("qvac.constants", "UnitSystem.from_si", "constants", coarse=False),
    Target("qvac.constants", "UnitSystem.parse", "constants", coarse=False),
    Target("qvac.constants", "ThermalState.__init__", "constants", coarse=False),
    Target("qvac.modestats", "spectral_density_massive", "modestats", coarse=False),
    Target("qvac.modestats", "mode_energy_massive", "modestats", coarse=False),
    Target("qvac.modestats", "photon_mean_energy", "modestats", coarse=False),
    Target("qvac.modestats", "planck_spectral_density", "modestats", coarse=False),
    Target("qvac.modestats", "wien_peak", "modestats"),
    # The numerics spans include the objective functions they evaluate.
    Target("qvac.modestats", "golden_section_max", "numerics"),
    Target("qvac.blackhole", "bisect_root", "numerics"),
    Target("qvac.blackhole", "stability_threshold", "blackhole"),
    Target("qvac.blackhole", "black_hole_report", "blackhole"),
    Target("qvac.correlation", "correlation_length", "correlation"),
    Target("qvac.correlation", "gaussian_mode_spectrum", "correlation"),
    Target("qvac.correlation", "correlation_from_spectrum", "correlation"),
    Target("qvac.correlation", "analytic_correlation", "correlation"),
    Target("qvac.sampler", "gaussian_spectrum", "correlation"),
    Target("qvac.sampler", "e_folding_lag", "correlation"),
    Target("qvac.qpotential", "read_density_csv", "qpotential", "ingest", probe=_ingest_bytes),
    Target("qvac.qpotential", "GridDensity.__init__", "qpotential"),
    Target("qvac.qpotential", "vqu_grid_nonrel", "qpotential", "kernel", probe=_kernel_work),
    Target("qvac.qpotential", "vqu_grid_dalembert", "qpotential", "kernel", probe=_kernel_work),
    Target("qvac.qpotential", "mean_qp_energy", "qpotential", "kernel", probe=_kernel_work),
    Target("qvac.qpotential", "mean_qp_energy_dalembert", "qpotential", "kernel", probe=_kernel_work),
    Target("qvac.sampler", "load_config", "sampler"),
    Target("qvac.sampler", "sample_field", "sampler", "synth", probe=_samples),
    Target("qvac.sampler", "build_sample_report", "sampler"),
    Target("qvac.sampler", "empirical_correlation", "sampler", "estimators"),
    Target("qvac.sampler", "gaussianity_check", "sampler", "estimators"),
    Target("qvac.sampler", "report_json_bytes", "sampler"),
)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class OpTrace:
    """The spans of one operation (flat arrays indexed by span id, the root
    is span 0) and what the coarse wrappers counted."""

    op_id: int
    names: tuple[str, ...]
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    rss_kb: dict[int, tuple[int, int]]
    counters: dict[str, float]


class Tracer:
    def __init__(self):
        self.names = ("op",) + tuple(f"{t.module}.{t.name}" for t in TARGETS)
        self.layer_of = np.array([0] + [LAYERS.index(t.layer) for t in TARGETS])
        self.stage_of = np.array([-1] + [STAGES.index(t.stage) if t.stage else -1 for t in TARGETS])
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._rss: dict[int, tuple[int, int]] = {}
        self._counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._op_id = -1
        #: Wrapper cost per span inside its timestamps and outside them (s),
        #: subtracted from self times; see ``calibrate``.
        self.cost_inside = 0.0
        self.cost_outside = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for nid, target in enumerate(TARGETS, start=1):
            owner = importlib.import_module(target.module)
            attr = target.name
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, nid, target))
            else:
                wrapped = self._wrap(original, nid, target)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, nid: int, target: Target):
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        if not target.coarse:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                sid = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(sid)
                starts.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[sid] = perf_counter()
                    stack.pop()

            return hot

        rss, counters, probe = self._rss, self._counters, target.probe

        @functools.wraps(fn)
        def coarse(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            rss0 = _peak_rss_kb()
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
                rss[sid] = (rss0, _peak_rss_kb())
            if probe is not None:
                for key, amount in probe(args, result):
                    counters[key] += amount
            return result

        return coarse

    def calibrate(self, calls: int = 20000, rounds: int = 5) -> None:
        """Measure the wrapper's own cost per span on a no-op function.

        Part of it falls between the span's timestamps and inflates the
        span's self time, the rest falls outside and inflates the parent's.
        ``summarize`` subtracts both, so the layer self times estimate the
        untraced run; the medians over ``rounds`` damp machine noise.
        """

        def noop(a, b, c):
            return None

        wrapped = self._wrap(noop, 0, Target("", "", "cli", coarse=False))
        inside, outside = [], []
        for _ in range(rounds):
            self.begin_op(-1)
            t0 = perf_counter()
            for _ in range(calls):
                pass
            t1 = perf_counter()
            for _ in range(calls):
                noop(1, 2, 3)
            t2 = perf_counter()
            for _ in range(calls):
                wrapped(1, 2, 3)
            t3 = perf_counter()
            op = self.end_op()
            loop, plain, traced = (t1 - t0) / calls, (t2 - t1) / calls, (t3 - t2) / calls
            span = float(np.mean(op.end[1:] - op.start[1:]))
            inside.append(span - (plain - loop))
            outside.append(traced - loop - span)
        self.cost_inside = max(0.0, float(np.median(inside)))
        self.cost_outside = max(0.0, float(np.median(outside)))

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Clear the span store and open the root span of operation ``op_id``."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._rss.clear()
        self._counters.clear()
        self._stack[:] = [0]
        self._op_id = op_id
        self._name.append(0)
        self._parent.append(-1)
        self._end.append(0.0)
        self._rss[0] = (_peak_rss_kb(), 0)
        self._start.append(perf_counter())

    def end_op(self) -> OpTrace:
        """Close the root span and hand over a copy of the operation's spans."""
        self._end[0] = perf_counter()
        self._rss[0] = (self._rss[0][0], _peak_rss_kb())
        if self._stack != [0]:
            raise RuntimeError(f"unbalanced spans: stack {self._stack}")
        return OpTrace(
            op_id=self._op_id,
            names=self.names,
            name=np.array(self._name, dtype=np.int64),
            parent=np.array(self._parent, dtype=np.int64),
            start=np.array(self._start, dtype=float),
            end=np.array(self._end, dtype=float),
            rss_kb=dict(self._rss),
            counters=dict(self._counters),
        )

    # -- aggregation -------------------------------------------------------

    def summarize(self, op: OpTrace) -> dict[str, float]:
        """Per-layer calls, self time and peak-RSS growth, per-stage time,
        and the probe counters of one operation.

        Self times have the calibrated wrapper cost taken out, so they add
        up to the op span minus ``overhead_s``, the estimated cost of all
        wrappers in the operation.
        """
        n = op.name.size
        dur = op.end - op.start
        child = np.bincount(op.parent[1:], weights=dur[1:], minlength=n)
        children = np.bincount(op.parent[1:], minlength=n)
        self_time = dur - child - children * self.cost_outside
        self_time[1:] -= self.cost_inside
        dur[1:] -= self.cost_inside
        layer = self.layer_of[op.name]
        stats: dict[str, float] = {
            "op_s": float(op.end[0] - op.start[0]),
            "spans": n,
            "overhead_s": (n - 1) * (self.cost_inside + self.cost_outside),
        }
        self_by_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        calls_by_layer = np.bincount(layer[1:], minlength=len(LAYERS))
        for i, name in enumerate(LAYERS):
            stats[f"{name}.self_s"] = float(self_by_layer[i])
            stats[f"{name}.calls"] = int(calls_by_layer[i])
        # A stage's time is the duration of its spans not directly nested in
        # a span of the same stage.
        stage = self.stage_of[op.name]
        parent_stage = np.where(op.parent >= 0, stage[np.maximum(op.parent, 0)], -1)
        outer = (stage >= 0) & (stage != parent_stage)
        stage_s = np.bincount(stage[outer], weights=dur[outer], minlength=len(STAGES))
        for i, name in enumerate(STAGES):
            stats[f"stage.{name}_s"] = float(stage_s[i])
        rss_by_layer = self._rss_self_growth(op, layer)
        for i, name in enumerate(LAYERS):
            stats[f"{name}.rss_growth_mb"] = rss_by_layer[i] / 1024.0
        stats.update(op.counters)
        return stats

    @staticmethod
    def _rss_self_growth(op: OpTrace, layer: np.ndarray) -> list[float]:
        """Peak-RSS growth per layer: each coarse span's growth minus that
        of the coarse spans nearest below it.  Growth inside per-value
        spans counts for their nearest coarse ancestor."""
        growth = {sid: after - before for sid, (before, after) in op.rss_kb.items()}
        self_growth = dict(growth)
        for sid in growth:
            if sid == 0:
                continue
            ancestor = int(op.parent[sid])
            while ancestor not in growth:
                ancestor = int(op.parent[ancestor])
            self_growth[ancestor] -= growth[sid]
        by_layer = [0.0] * len(LAYERS)
        for sid, amount in self_growth.items():
            by_layer[int(layer[sid])] += amount
        return by_layer


def save_spans(path: str, op: OpTrace) -> None:
    """Write one operation's spans as a compressed ``.npz``."""
    np.savez_compressed(
        path,
        op_id=op.op_id,
        names=np.array(op.names),
        name=op.name,
        parent=op.parent,
        start=op.start - op.start[0],
        end=op.end - op.start[0],
    )
