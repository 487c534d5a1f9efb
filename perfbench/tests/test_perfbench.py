"""Tests of the benchmark itself: generators, oracles, tracer and harness.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
The workloads run here at reduced sizes, except ``spectra``, whose
oracles assume the benchmark's point counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import qvac.cli
import run
from qvac.qpotential import read_density_csv
from tracer import LAYERS, TARGETS, Tracer
from workloads import QpotGrid, SampleReport, Spectra

BENCH = Path(run.__file__).resolve().parent


def small_workload(name: str, seed: int, input_dir: Path):
    if name == "qpot-grid":
        return QpotGrid(seed, str(input_dir), lattice_points=8, slices=8, points=16)
    if name == "sample-report":
        return SampleReport(seed, str(input_dir), grid_points=512, realizations=256)
    return Spectra(seed, str(input_dir))


def run_op(workload, out: Path, tracer: Tracer | None = None):
    """Run one operation in this process, traced when ``tracer`` is given."""
    out.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
        tracer.begin_op(0)
    try:
        for argv in workload.argv():
            assert qvac.cli.main([a.replace("{out}", str(out)) for a in argv]) == 0
    finally:
        if tracer is not None:
            op = tracer.end_op()
            tracer.uninstall()
    return op if tracer is not None else None


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untraced operation of each workload: name -> (workload, out dir)."""
    done = {}
    for name in ("spectra", "qpot-grid", "sample-report"):
        base = tmp_path_factory.mktemp(name)
        (base / "inputs").mkdir()
        workload = small_workload(name, 5, base / "inputs")
        run_op(workload, base / "out")
        done[name] = (workload, base / "out")
    return done


# ---------------------------------------------------------------------------
# generators

def test_generators_are_deterministic_per_seed():
    for seed in (0, 11):
        assert inputs.density_lattice(seed, 8).text == inputs.density_lattice(seed, 8).text
        assert inputs.density_spacetime(seed, 8, 16).text == inputs.density_spacetime(seed, 8, 16).text
        assert inputs.sampler_config(seed) == inputs.sampler_config(seed)
        assert inputs.blackhole_mass(seed) == inputs.blackhole_mass(seed)
    assert inputs.density_lattice(0, 8).text != inputs.density_lattice(1, 8).text
    assert inputs.density_spacetime(0, 8, 16).text != inputs.density_spacetime(1, 8, 16).text
    assert inputs.blackhole_mass(0) != inputs.blackhole_mass(1)
    assert inputs.sampler_config(7)["seed"] == 7


def test_generated_grids_read_back_exactly(tmp_path):
    lattice = inputs.density_lattice(3, 8)
    spacetime = inputs.density_spacetime(3, 8, 16)
    for grid, name in ((lattice, "lattice.csv"), (spacetime, "spacetime.csv")):
        path = tmp_path / name
        path.write_text(grid.text)
        parsed = read_density_csv(str(path))
        assert (parsed.density.values == grid.values).all()
        assert parsed.density.spacing == pytest.approx(grid.spacing, rel=1e-12)
        assert grid.values.min() > 0.0
    assert read_density_csv(str(tmp_path / "spacetime.csv")).dt == pytest.approx(spacetime.dt, rel=1e-12)


# ---------------------------------------------------------------------------
# oracles

def test_oracles_accept_the_program_outputs(outputs):
    for name, (workload, out) in outputs.items():
        problems, _ = workload.check(str(out))
        assert problems == [], name


def _perturb_csv(path: Path, column: int) -> None:
    lines = path.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    i = max(rows, key=lambda r: abs(float(lines[r].split(",")[column])))
    fields = lines[i].split(",")
    fields[column] = repr(float(fields[column]) * (1.0 + 1e-6))
    lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _perturb_json(path: Path, keys: tuple[str, ...]) -> None:
    doc = json.loads(path.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] *= 1.0 + 1e-6
    path.write_text(json.dumps(doc, indent=2))


def _perturb_text(path: Path, key: str) -> None:
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        label, sep, value = line.partition(":")
        if label.strip() == key:
            lines[i] = f"{label}{sep} {float(value) * (1.0 + 1e-6)!r}"
    path.write_text("\n".join(lines) + "\n")


PERTURBATIONS = [
    ("spectra", "spectrum.csv", _perturb_csv, 5),
    ("spectra", "photon.csv", _perturb_csv, 2),
    ("spectra", "correlation.csv", _perturb_csv, 1),
    ("spectra", "blackhole.json", _perturb_json, ("e_binding",)),
    ("spectra", "threshold.txt", _perturb_text, "m_p units"),
    ("qpot-grid", "lattice_vqu.csv", _perturb_csv, 3),
    ("qpot-grid", "spacetime_vqu.csv", _perturb_csv, 2),
    ("sample-report", "report.json", _perturb_json, ("correlation", "at_lambda_c")),
    ("sample-report", "report.json", _perturb_json, ("config", "lambda_c")),
]


@pytest.mark.parametrize("name, filename, perturb, where", PERTURBATIONS)
def test_oracle_rejects_a_perturbed_value(outputs, tmp_path, name, filename, perturb, where):
    workload, out = outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    perturb(copy / filename, where)
    problems, _ = workload.check(str(copy))
    assert problems, f"{filename}: perturbation at {where!r} went unnoticed"


def test_sample_oracle_reports_estimator_verdict(outputs):
    workload, out = outputs["sample-report"]
    report = json.loads((out / "report.json").read_text())
    _, notes = workload.check(str(out))
    assert notes == {"estimator_fail": int(not report["pass"])}


# ---------------------------------------------------------------------------
# tracer

def _attributes():
    found = {}
    for target in TARGETS:
        owner = sys.modules[target.module]
        attr = target.name
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        found[target] = vars(owner)[attr]
    return found


@pytest.mark.parametrize("name", ["spectra", "qpot-grid", "sample-report"])
def test_traced_outputs_are_byte_identical(outputs, tmp_path, name):
    workload, untraced = outputs[name]
    before = _attributes()
    tracer = Tracer()
    op = run_op(workload, tmp_path / "traced", tracer)
    assert _attributes() == before, "uninstall must restore every wrapped attribute"
    assert op.name.size > 1
    files = sorted(p.name for p in untraced.iterdir())
    assert files == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for filename in files:
        assert (untraced / filename).read_bytes() == (tmp_path / "traced" / filename).read_bytes(), filename


@pytest.mark.parametrize("name", ["spectra", "qpot-grid"])
@pytest.mark.parametrize("calibrated", [False, True])
def test_layer_self_times_sum_to_the_op_span(outputs, tmp_path, name, calibrated):
    workload, _ = outputs[name]
    tracer = Tracer()
    if calibrated:
        tracer.calibrate(calls=2000, rounds=3)
        assert tracer.cost_inside > 0.0 and tracer.cost_outside > 0.0
    stats = tracer.summarize(run_op(workload, tmp_path / "out", tracer))
    total = sum(stats[f"{layer}.self_s"] for layer in LAYERS)
    assert total + stats["overhead_s"] == pytest.approx(stats["op_s"], rel=1e-9)
    assert stats["overhead_s"] == (0.0 if not calibrated else pytest.approx(
        (stats["spans"] - 1) * (tracer.cost_inside + tracer.cost_outside)))


def test_qpot_trace_counts_kernel_and_ingest(outputs, tmp_path):
    workload, _ = outputs["qpot-grid"]
    tracer = Tracer()
    stats = tracer.summarize(run_op(workload, tmp_path / "out", tracer))
    cells = workload.lattice.values.size + workload.spacetime.values.size
    # The CLI evaluates V_qu, then the mean, which evaluates V_qu again.
    assert stats["qpotential.kernel_cells"] == 3 * cells
    assert stats["qpotential.ingest_bytes"] == sum(
        Path(p).stat().st_size for p in (workload.lattice_path, workload.spacetime_path)
    )
    assert stats["stage.ingest_s"] > 0.0 and stats["stage.kernel_s"] > 0.0
    assert stats["constants.calls"] > 0 and stats["cli.calls"] == 2


# ---------------------------------------------------------------------------
# harness

def test_tail_has_ten_operations_beyond_it():
    walls = [float(i) for i in range(30)]
    percentile, value = run.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
