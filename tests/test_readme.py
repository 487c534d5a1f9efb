"""README.md's examples run, and each shows what it claims.

Every ``qvac`` line of the command-line ``sh`` block runs in-process in a
scratch directory, where ``tests/golden/sampler.json`` and
``tests/golden/density_q.csv`` stand in for its ``config.json`` and
``density.csv``.  The Library's Python blocks run, and each number in the
comment of a bare expression matches the value to the digits shown.  The
correlation example's output block is the output of its command.
"""

import ast
import re
import shlex
import shutil
from pathlib import Path

import pytest

from qvac.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
README = (ROOT / "README.md").read_text(encoding="utf-8")

#: (language, body) of every fenced block of README.md, in order.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)

COMMANDS = [line for lang, body in BLOCKS if lang == "sh" for line in body.splitlines()
            if line.startswith("qvac ")]
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]

#: The command of the correlation example, whose flags the text before its block names.
CORRELATION_EXAMPLE = "qvac correlation --mass 9.1093837015e-31 --temp 300 --xi-max 1 --points 2"

#: A number as README writes one in a comment: 2.428e-9, 1.1082e14, 0.782542.
NUMBER = re.compile(r"(?<![\w.])\d+\.\d+(?:e[-+]?\d+)?")


def run(capsys, command):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(GOLDEN / "sampler.json", tmp_path / "config.json")
    shutil.copy(GOLDEN / "density_q.csv", tmp_path / "density.csv")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def csv_columns(text):
    """Column name -> float values of a CSV table, comment lines skipped."""
    header, *rows = [line for line in text.splitlines() if not line.startswith("#")]
    values = [[float(cell) for cell in row.split(",")] for row in rows]
    return {name: [row[i] for row in values] for i, name in enumerate(header.split(","))}


def test_readme_has_the_examples_these_tests_read():
    assert {command.split()[1] for command in COMMANDS} == {
        "spectrum", "photon-spectrum", "correlation", "sample", "qpot", "blackhole"}
    assert COMMANDS[0].startswith("qvac spectrum ")
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs_cleanly(workdir, capsys, command):
    code, out, err = run(capsys, command)
    assert code == 0, err
    if command.startswith("qvac sample "):
        # its one summary line
        assert err.count("\n") == 1 and err.startswith("sample: "), err
        assert (workdir / "field.csv").stat().st_size > 0 and (workdir / "report.json").stat().st_size > 0
    else:
        assert err == ""
        assert out


def test_first_spectrum_example_shows_nonzero_densities(workdir, capsys):
    code, out, _ = run(capsys, COMMANDS[0])
    columns = csv_columns(out)
    assert code == 0 and len(columns["k"]) == 64
    for name in ("mean_energy", "spectral_density"):
        assert all(value > 0.0 for value in columns[name]), name


def significant_digits(shown: str) -> int:
    return len(shown.split("e")[0].replace(".", "").lstrip("0"))


def run_python_block(source, namespace):
    """Run ``source`` statement by statement in ``namespace``, checking each
    number in the comment of a bare expression against its value; returns
    how many numbers were checked."""
    lines = source.splitlines()
    checked = 0
    for statement in ast.parse(source).body:
        code = compile(ast.Module([statement], type_ignores=[]), "README.md", "exec")
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        _, _, comment = lines[statement.end_lineno - 1].partition("#")
        shown = NUMBER.findall(comment)
        values = list(value) if isinstance(value, tuple) else [value]
        assert len(values) == len(shown) or not shown, (comment, value)
        for number, got in zip(shown, values):
            assert float(f"{got:.{significant_digits(number)}g}") == float(number), (comment, got)
        checked += len(shown)
    return checked


def test_python_examples_run_and_show_the_values_in_their_comments():
    namespace = {}
    assert run_python_block(PYTHON_BLOCKS[0], namespace) == 4
    point = namespace["point"]
    assert point.mean_energy > 0.0 and point.spectral_density > 0.0
    run_python_block(PYTHON_BLOCKS[1], namespace)


def test_correlation_example_block_is_the_command_output(capsys):
    intro = README.index("`--xi-max 1\n--points 2` it prints")
    shown = next(body for lang, body in BLOCKS if lang == "" and README.index(body) > intro).splitlines()
    code, out, _ = run(capsys, CORRELATION_EXAMPLE)
    assert code == 0
    # README leaves out the comment lines it does not show.
    assert [line for line in out.splitlines() if not line.startswith("#") or line in shown] == shown
