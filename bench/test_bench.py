"""Tests of the benchmark itself: oracle, tracing and the result contract."""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Sweep  # noqa: E402

from edho.cli import main  # noqa: E402

# one small sweep of every subcommand
TINY = [
    Sweep("shannon", (-0.5, -0.05), n_max=3),
    Sweep("fisher", (0.0, -0.2), n_max=4),
    Sweep("cramer-rao", (0.0, -0.005), nu=2, n_max=3),
    Sweep("validate", (-0.5,), n_max=3),
    Sweep("thermo", (-0.5, -0.05), beta_grid="0.1:5:12"),
    Sweep("spectrum", (-1e-5, -0.5), n_max=200),
    Sweep("density", (-0.3,), n_max=4),
    Sweep("perey", (-0.3, -0.01), x_grid="-4:4:41"),
]


def _write(sweep, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sweep.argv(out)) == 0
    return out / f"{sweep.command.replace('-', '_')}.csv"


def _replace_field(path, row, column, new):
    header, rows = oracle.read_csv(path)
    rows[row][header.index(column)] = new
    text = ",".join(header) + "\r\n"
    text += "".join(",".join(r) + "\r\n" for r in rows)
    path.write_text(text)


def test_oracle_accepts_every_subcommand(tmp_path):
    for i, sweep in enumerate(TINY):
        if sweep.command == "validate":
            continue
        _write(sweep, tmp_path / str(i))
        rows, failed, notes = oracle.check(sweep, tmp_path / str(i), seed=1)
        assert rows > 0 and failed == 0, (sweep, notes)


@pytest.mark.parametrize("command, row, column", [
    ("spectrum", 7, "energy"),
    ("fisher", 2, "fisher_numeric"),
    ("perey", 30, "perey"),
    ("thermo", 5, "N_used"),
])
def test_one_changed_value_is_a_failure(tmp_path, command, row, column):
    sweep = next(s for s in TINY if s.command == command)
    path = _write(sweep, tmp_path)
    header, rows = oracle.read_csv(path)
    old = rows[row][header.index(column)]
    new = str(int(old) + 1) if column == "N_used" else repr(float(old) * (1 + 1e-9))
    _replace_field(path, row, column, new)
    _, failed, notes = oracle.check(sweep, tmp_path, seed=1)
    assert failed >= 1, notes


@pytest.mark.parametrize("command, columns, gamma_nonzero", [
    ("shannon", ("shannon",), True),
    ("fisher", ("fisher", "fisher_numeric"), True),
])
def test_one_changed_quadrature_value_is_a_failure(tmp_path, command, columns,
                                                   gamma_nonzero):
    # a row that only the quadrature sample can catch: gamma != 0, and every
    # column that repeats the value changed alike
    sweep = next(s for s in TINY if s.command == command)
    path = _write(sweep, tmp_path)
    header, rows = oracle.read_csv(path)
    seed, row = next((seed, i) for seed in range(100)
                     for i in oracle.quad_rows(sweep, seed, len(rows))
                     if float(rows[i][header.index("gamma")]) != 0)
    for column in columns:
        old = float(rows[row][header.index(column)])
        _replace_field(path, row, column, repr(old * (1 + 1e-7)))
    _, failed, notes = oracle.check(sweep, tmp_path, seed=seed)
    assert failed == 1, notes


def test_quadrature_that_warns_is_a_failure(tmp_path, monkeypatch):
    from scipy.integrate import IntegrationWarning

    def warns(level, integrand):
        raise IntegrationWarning("roundoff error is detected")

    sweep = next(s for s in TINY if s.command == "shannon")
    _write(sweep, tmp_path)
    monkeypatch.setattr(oracle.Level, "quad", warns)
    _, failed, _ = oracle.check(sweep, tmp_path, seed=1)
    assert failed == len(oracle.quad_rows(sweep, 1, 8)) > 0


def test_oracle_counts_error_rows_and_missing_rows(tmp_path):
    sweep = next(s for s in TINY if s.command == "shannon")
    path = _write(sweep, tmp_path)
    _replace_field(path, 0, "error", "NonConvergence: injected")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    rows, failed, _ = oracle.check(sweep, tmp_path, seed=1)
    assert rows == 8 and failed == 2


def test_traced_and_untraced_passes_write_identical_csvs(tmp_path):
    plain = run.Pass(TINY, tmp_path, main)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.Pass(TINY, tmp_path, main, tracer)
        finally:
            tracer.uninstall()
        runs.append(tracer.metrics())
        assert traced.codes == plain.codes == [0] * len(TINY)
        assert traced.digests == plain.digests
    assert main.__module__ == "edho.cli"  # uninstall restored the originals
    counts = [k for k, v in runs[0].items() if isinstance(v, int)]
    assert counts and all(runs[0][k] == runs[1][k] for k in counts)
    m = runs[0]
    assert m["wavefunction.hermite_steps"] > m["wavefunction.hermite_points"] > 0
    assert m["quadrature.points"] > m["quadrature.refinements"] > 0
    assert m["thermo.calls"] == 2 and m["thermo.level_betas"] > 0
    # fisher rows, cramer-rao rows and the Cramer-Rao gate of validate
    assert m["information.fisher_calls"] == 10 + 8 + 4


def test_spans_nest_and_self_times_add_up(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        run.Pass(TINY[:2], tmp_path, main, tracer)
    finally:
        tracer.uninstall()
    names, dur, self_t = tracer.self_times()
    roots = [i for i, s in enumerate(tracer.spans) if s[3] == -1]
    assert [names[i] for i in roots] == ["cli.main", "cli.main"]
    assert self_t.min() >= -1e-9
    assert self_t.sum() == pytest.approx(sum(dur[i] for i in roots))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_are_declared(tmp_path, monkeypatch, capsys, trace,
                                      section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda rng: TINY)
    monkeypatch.setattr(run, "SETUP_PER_PASS", 1)
    monkeypatch.setenv("PYTHONPATH", str(run.SRC))
    monkeypatch.chdir(tmp_path)
    result = run.run(argparse.Namespace(workload="tiny", seed=3, seconds=0.0,
                                        trace=trace))
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(printed[-1])
    assert record["seed"] == 3 and len(record["sweeps"]) == len(TINY)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_or_garbled_csv_is_a_failure(tmp_path):
    sweep = next(s for s in TINY if s.command == "fisher")
    assert oracle.check(sweep, tmp_path, seed=1)[1] == 1
    path = _write(sweep, tmp_path)
    _replace_field(path, 3, "n", "three")
    assert oracle.check(sweep, tmp_path, seed=1)[1] == 1
