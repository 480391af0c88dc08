"""Command-line harness tests."""
import argparse
import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from floqmet import cli, metrology, sambe, spectral
from floqmet.cli import (ScanSpec, fit_scaling, fmt17, main, parse_grid,
                         parse_probe, run_scan, scan_columns)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    # the pytest `pythonpath` option does not reach a child process
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def run_cli(*args):
    return run_python("-m", "floqmet.cli", *args)


def count_eigh(monkeypatch) -> list:
    """The size of every np.linalg.eigh call from here on."""
    sizes = []
    eigh = np.linalg.eigh

    def counting(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes


def test_parse_grid():
    np.testing.assert_allclose(parse_grid("0:1:5"), [0, 0.25, 0.5, 0.75, 1])
    with pytest.raises(ValueError):
        parse_grid("0:1:1")
    for spec in ("1:2", "1:2:3:4", "1:x:3"):
        with pytest.raises(ValueError,
                           match=f"^'{spec}' is not of the form start:stop:points$"):
            parse_grid(spec)


def test_parse_probe():
    np.testing.assert_allclose(parse_probe("gs-h0"),
                               np.array([1, -1]) / math.sqrt(2))
    psi = parse_probe("1,1j")
    np.testing.assert_allclose(psi, np.array([1, 1j]) / math.sqrt(2))
    with pytest.raises(ValueError):
        parse_probe("0,0")
    for spec in ("1,nan", "inf,0"):
        with pytest.raises(ValueError,
                           match=f"^probe '{spec}' has a non-finite amplitude$"):
            parse_probe(spec)
    with pytest.raises(ValueError, match=r"^probe .* has a non-finite amplitude$"):
        cli._as_probe(np.array([1.0, math.nan]), 2)


def test_non_finite_probe_is_a_row_error(tmp_path, capsys):
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--probe", "1,nan", "--ncut", "10", "--out", str(out)]) == 3
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "ValueError: probe '1,nan' has a non-finite amplitude"
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("probe", ["1e200,1e200", "1e-200,1e-200"])
def test_probe_scale_leaves_the_estimates(probe, tmp_path, capsys):
    # the norm of the amplitudes neither overflows nor underflows
    rows = {}
    for spec in (probe, "1,1"):
        out = tmp_path / "qfi.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["qfi", "--probe", spec, "--ncut", "10", "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            (rows[spec],) = csv.DictReader(fh)
        assert rows[spec].pop("probe") == spec
    assert rows[probe] == rows["1,1"]
    assert capsys.readouterr() == ("", "")


def test_fmt17_roundtrips():
    for x in (1 / 3, 82.6732675800525, 1e-300, -0.0):
        assert float(fmt17(x)) == x
    assert fmt17("text") == "text"


def test_fit_scaling_recovers_power_law():
    times = np.linspace(1.0, 30.0, 40)
    fit = fit_scaling(times, 2.5 * times ** 3.2)
    assert fit.exponent == pytest.approx(3.2, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("values, kept", [([0.0] * 8, 0), ([0.0] * 7 + [3.0], 1)])
def test_fit_scaling_needs_two_positive_values(values, kept):
    with pytest.raises(ValueError, match="^a scaling fit needs at least 2 positive "
                                         f"values, got {kept} of 8$"):
        fit_scaling(np.arange(1.0, 9.0), values)


def test_units_command(tmp_path):
    out = tmp_path / "units.csv"
    code = main(["units", "--f-ghz", "10", "--g-factor", "4",
                 "--out", str(out)])
    assert code == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("f_ghz,g_factor,b_ac_tesla")
    assert float(row.split(",")[2]) == pytest.approx(0.1786, abs=1e-3)


def test_winding_command(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["winding", "--b0", "2", "--b1", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert int(row[2]) == -1
    # undefined on the boundary -> invariant exit code
    assert main(["winding", "--b0", "1", "--b1", "1"]) == 2


def test_qfi_command_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["qfi", "--model", "rotating", "--b", "0.5", "--omega", "1",
                 "--t", str(2 * math.pi), "--ncut", "30",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    (row,) = json.loads(out.read_text())
    assert float(row["bound_b"]) == pytest.approx(82.673, abs=1e-2)
    assert float(row["omega_b_omega"]) == pytest.approx(1.3266, abs=1e-3)
    assert row["error"] == ""


def test_qfi_exit_code_reads_every_row(tmp_path):
    # an invariant violation on a later --t-grid row still exits with 2: at
    # t = 1e300 the generators overflow
    out = tmp_path / "qfi.csv"
    code = main(["qfi", "--model", "rotating", "--ncut", "10",
                 f"--t-grid={math.pi}:1e300:2", "--out", str(out)])
    assert code == 2
    with out.open(newline="") as fh:
        first, second = csv.DictReader(fh)
    assert first["error"] == "" and float(first["qfi_b"]) > 0
    assert second["error"].startswith("InvariantViolation: non-finite QFI")
    assert second["qfi_b"] == ""


def test_scan_point_evaluates_its_times_once(monkeypatch):
    # one session and one time-grid evaluation per point, not one per time
    calls = []
    real_modes_at = spectral.FloquetSpectrum.modes_at

    def modes_at(self, times):
        calls.append(len(times))
        return real_modes_at(self, times)

    monkeypatch.setattr(spectral.FloquetSpectrum, "modes_at", modes_at)
    spec = ScanSpec(model="rashba", sweeps=[("b0", 0.4, 2.6, 3)],
                    fixed={"b1": 0.5, "omega": 1.0},
                    times=[1.0, 2.0, 3.0, 4.0, 5.0], n_cut=12)
    rows, failures = run_scan(spec)
    assert failures == 0 and len(rows) == 15
    assert calls == [5, 5, 5]


@pytest.mark.parametrize("argv, n_cuts", [
    (["qfi", "--t-grid", "1:3:3", "--ncut", "10"], [10]),
    (["scan", "--sweep", "b0=0.4:0.6:3", "--t-grid", "1:3:3", "--ncut", "10"],
     [10, 10, 10]),
    (["converge", "--ncuts", "8,10,12"], [8, 10, 12]),
    (["scaling", "--param", "b0", "--t-grid", "1:8:8", "--ncut", "10"], [10]),
], ids=["qfi", "scan", "converge", "scaling"])
def test_estimation_subcommands_share_one_row_path(argv, n_cuts, monkeypatch,
                                                   tmp_path):
    # one time-grid evaluation per point and n_cut, never a report or evaluate
    calls = []
    real_grid = metrology.EstimationSession._grid

    def grid(self, psi, times):
        calls.append(self.n_cut)
        return real_grid(self, psi, times)

    def refuse(*_args, **_kwargs):
        raise AssertionError("left the row path")

    monkeypatch.setattr(metrology.EstimationSession, "_grid", grid)
    monkeypatch.setattr(metrology.EstimationSession, "evaluate", refuse)
    monkeypatch.setattr(metrology, "estimation_report", refuse)
    assert not hasattr(cli, "estimation_report")
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert calls == n_cuts


def test_converge_rows_are_qfi_rows(tmp_path):
    # the default converge table reads each n_cut's value off the qfi row
    out = tmp_path / "conv.csv"
    assert main(["converge", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["n_cut"] for row in rows] == ["10", "20", "30", "40", "50", "51"]
    for row in rows:
        assert main(["qfi", "--ncut", row["n_cut"], "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            (point,) = csv.DictReader(fh)
        for p in cli.MODEL_PARAMS["rashba"]:
            assert row[f"qfi_{p}"] == point[f"qfi_{p}"]


def test_scan_failures_cross_the_process_pool(tmp_path):
    # (12, 12) is under-truncated and (1, 12) has a bad time: each row's error
    # is an exception until run_scan writes it, from workers as serially
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"scan{jobs}.csv"
        assert main(["scan", "--sweep", "b0=1:12:2", "--b1", "12", "--ncut", "16",
                     "--t-grid=-1:6:3", "--jobs", jobs, "--out", str(out)]) == 3
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    with (tmp_path / "scan1.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"].split(":")[0] for row in rows] == [
        "ValueError", "", "", "TruncationError", "TruncationError", "TruncationError"]


def test_bad_times_and_failed_invariants_are_their_own_rows(tmp_path):
    # per point: a negative time, t = 0 and an overflowing time
    out = tmp_path / "scan.csv"
    assert main(["scan", "--sweep", "b0=0.4:2.6:2", "--t-grid=-1e300:1e300:3",
                 "--ncut", "12", "--out", str(out)]) == 3
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"].split(":")[0] for row in rows] == [
        "ValueError", "", "InvariantViolation"] * 2
    assert rows[0]["error"] == "ValueError: t=-1e+300 must be finite and non-negative"
    assert rows[2]["error"].startswith("InvariantViolation: non-finite QFI ")
    assert all(row["qfi_b0"] == "" for row in rows[::3] + rows[2::3])
    assert [float(row["qfi_b0"]) for row in rows[1::3]] == [0.0, 0.0]


def test_failing_point_builds_its_session_once(monkeypatch):
    # an under-truncated point fails at build time: one build, one error per row
    built = []

    class CountingSession(cli.EstimationSession):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "EstimationSession", CountingSession)
    spec = ScanSpec(model="rashba", sweeps=[],
                    fixed={"b0": 12.0, "b1": 12.0, "omega": 1.0},
                    times=[0.5 * k for k in range(1, 9)], n_cut=16)
    rows, failures = run_scan(spec)
    assert len(built) == 1
    assert failures == len(rows) == 8
    assert len({row["error"] for row in rows}) == 1
    assert rows[0]["error"].startswith("TruncationError: ")
    assert [row["time"] for row in rows] == spec.times


def test_csv_rows_are_as_wide_as_the_header(tmp_path):
    # a custom probe "1,0" and an error message both hold commas
    out = tmp_path / "qfi.csv"
    code = main(["qfi", "--b0", "0.5", "--b1", "0.5", "--t", "1", "--ncut", "10",
                 "--probe", "1,0", "--out", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        header, row = csv.reader(fh)
    assert len(row) == len(header) == len(scan_columns(
        ScanSpec(model="rashba", sweeps=[], fixed={}, times=[])))
    assert row[header.index("probe")] == "1,0"
    assert row[header.index("error")] == ""
    assert out.read_text().splitlines()[0] == ",".join(header)

    bad = tmp_path / "bad.csv"
    code = main(["qfi", "--t", "1", "--ncut", "10", "--probe", "1,0,0",
                 "--out", str(bad)])
    assert code == 3
    with bad.open(newline="") as fh:
        header, row = csv.reader(fh)
    assert len(row) == len(header)
    assert row[header.index("probe")] == "1,0,0"
    error = row[header.index("error")]
    assert error.startswith("ValueError: probe ") and "levels=2" in error
    assert row[header.index("qfi_b0")] == ""


def test_scan_spec_grid_is_row_major():
    spec = ScanSpec(model="rashba",
                    sweeps=[("b0", 0.0, 1.0, 2), ("b1", 0.0, 2.0, 3)],
                    fixed={"b0": 9, "b1": 9, "omega": 1.0}, times=[1.0])
    points = spec.grid_points()
    assert [p["b0"] for p in points] == [0, 0, 0, 1, 1, 1]
    assert [p["b1"] for p in points] == [0, 1, 2, 0, 1, 2]


def test_scan_records_per_point_failures():
    spec = ScanSpec(model="rashba", sweeps=[("b0", -0.5, 0.5, 2)],
                    fixed={"b0": 0.5, "b1": 0.5, "omega": 1.0},
                    times=[2 * math.pi], n_cut=20)
    rows, failures = run_scan(spec)
    assert failures == 1
    assert "ValueError" in rows[0]["error"]  # negative field strength
    assert rows[1]["error"] == ""
    assert rows[1]["qfi_b0"] > 0


def test_scan_cli_failure_exit_code(tmp_path):
    out = tmp_path / "scan.csv"
    result = run_cli("scan", "--sweep", "b0=-0.5:0.5:2", "--b1", "0.5",
                     "--ncut", "20", "--t", str(2 * math.pi),
                     "--out", str(out))
    assert result.returncode == 3
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",") == scan_columns(
        ScanSpec(model="rashba", sweeps=[], fixed={}, times=[]))


@pytest.mark.parametrize("jobs, points, workers", [
    (64, 2, [2]), (2, 3, [2]), (8, 1, []), (1, 3, [])])
def test_scan_starts_at_most_one_worker_per_point(jobs, points, workers,
                                                  monkeypatch):
    # a recording stand-in: no process is started
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    spec = ScanSpec(model="rashba", sweeps=[("b0", 0.4, 0.6, points)],
                    fixed={"b1": 0.5, "omega": 1.0}, times=[1.0], n_cut=8, jobs=jobs)
    rows, failures = run_scan(spec)
    assert started == workers
    assert failures == 0 and len(rows) == points


@pytest.mark.parametrize("constant, value, message", [
    ("PRESYM_TOL", 0.0, r"generator Hermiticity defect \S+ for 'b0' exceeds 0\.0"),
    ("CFI_PROB_FLOOR", 0.6, r"CFI for 'b0' is undefined: an outcome with "
                            r"probability below 0\.6 has a derivative above 1e-6"),
], ids=["hermiticity", "undefined-cfi"])
def test_verdicts_are_raised_and_written_to_their_rows(constant, value, message,
                                                       monkeypatch):
    # a verdict is raised by evaluate and estimation_report, and a scan writes
    # each time's own on its row, serially and from worker processes (forked,
    # so they see the patched constant)
    monkeypatch.setattr(metrology, constant, value)
    spec = ScanSpec(model="rashba", sweeps=[("b0", 0.4, 0.6, 2)],
                    fixed={"b1": 0.5, "omega": 1.0}, times=[1.0, 2 * math.pi],
                    n_cut=10)
    session = metrology.EstimationSession(
        cli.make_model("rashba", spec.grid_points()[0]), ["b0", "b1", "omega"], spec.n_cut)
    with pytest.raises(metrology.InvariantViolation, match=f"^{message} at t=1.0$"):
        session.evaluate(parse_probe("gs-h0"), spec.times)
    with pytest.raises(metrology.InvariantViolation,
                       match=f"^{message} at t={2 * math.pi!r}$"):
        metrology.estimation_report(session.model, session.params, parse_probe("gs-h0"),
                                    2 * math.pi, session=session)
    for jobs in (1, 2):
        spec.jobs = jobs
        rows, failures = run_scan(spec)
        assert failures == len(rows) == 4
        for row in rows:
            assert re.fullmatch(f"InvariantViolation: {message} at t={row['time']!r}",
                                row["error"])


def test_import_leaves_the_process_pool_out():
    # multiprocessing costs start-up time; only `scan --jobs N` (N > 1) needs it
    result = run_python("-c", "import sys, floqmet.cli; "
                        "assert 'concurrent.futures.process' not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_scan_determinism_and_parallel_order(tmp_path):
    args = ["scan", "--sweep", "b0=0.4:0.6:3", "--b1", "0.5", "--ncut", "25",
            "--t", str(2 * math.pi)]
    outs = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        result = run_cli(*args, "--jobs", jobs, "--out", str(out))
        assert result.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("ncut = 8\nb0 = 2\n# comment\n")
    out = tmp_path / "build.csv"
    assert main(["--config", str(cfg), "build", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[1] == "8"
    assert main(["--config", str(cfg), "build", "--ncut", "6",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[1] == "6"


def test_oracle_check_command(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--b0", "1", "--b1", "2", "--ncut", "40",
                 "--t", str(2 * math.pi), "--steps", "4000",
                 "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) < 1e-4


def test_oracle_check_refuses_under_truncation(monkeypatch, capsys):
    def integrate(*_args):
        raise AssertionError("integrated an under-truncated point")

    monkeypatch.setattr(cli, "propagate_direct", integrate)
    assert exit_code(["oracle-check", "--steps", "64", "--b0", "12",
                      "--b1", "12", "--ncut", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_cut=16 is too small" in captured.err


@pytest.mark.parametrize("argv", [
    ["evolve", "--t-grid", "1:3:3", "--ncut", "10"],
    ["oracle-check", "--t-grid", "1:3:3", "--ncut", "10", "--steps", "64"],
], ids=["evolve", "oracle-check"])
def test_propagator_subcommands_diagonalize_once(argv, monkeypatch, tmp_path):
    calls = []

    def diagonalize(matrix):
        calls.append(matrix.n_cut)
        return spectral.diagonalize(matrix)

    monkeypatch.setattr(cli, "diagonalize", diagonalize)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert calls == [10]
    assert len(out.read_text().splitlines()) == 4


def test_evolve_flags_under_truncation(tmp_path, capsys):
    out = tmp_path / "evolve.csv"
    assert exit_code(["evolve", "--b0", "12", "--b1", "12", "--ncut", "16",
                      "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_cut=16 is too small" in captured.err
    assert not out.exists()


def test_stepsize_span_guard():
    result = run_cli("stepsize", "--param", "b0", "--deltas", "1e-6,2e-6",
                     "--ncut", "10")
    assert result.returncode != 0


def test_converge_command(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["converge", "--b0", "1", "--b1", "1", "--ncuts", "10,20",
                 "--param", "b0", "--t", str(2 * math.pi),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_cut,qfi_b0,rel_change_b0"
    assert float(lines[2].split(",")[2]) < 1e-4


def test_json_is_strict(tmp_path):
    # the first row's relative change is NaN: strict JSON has no NaN literal
    out = tmp_path / "conv.json"
    assert main(["converge", "--ncuts", "10,12", "--param", "b0",
                 "--format", "json", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    first, second = json.loads(out.read_text(), parse_constant=reject)
    assert first["rel_change_b0"] is None
    assert 0 <= second["rel_change_b0"] < 1e-10


class ReadRecorder(argparse.Namespace):
    """Namespace that records every attribute a command reads."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reads = set()

    def __getattribute__(self, name):
        if name != "reads" and not name.startswith("__"):
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


# One representative invocation per subcommand, small enough to run quickly.
INVOCATIONS = {
    "build": ["--ncut", "4"],
    "evolve": ["--ncut", "6"],
    "qfi": ["--ncut", "6"],
    "scan": ["--sweep", "b0=0.4:0.6:2", "--ncut", "6"],
    "scaling": ["--param", "b0", "--ncut", "6", "--t-grid", "0.5:2:8"],
    "converge": ["--ncuts", "8,10", "--param", "b0"],
    "stepsize": ["--param", "b0", "--ncut", "6", "--deltas", "1e-6,1e-3"],
    "winding": ["--b0", "2", "--b1", "1"],
    "phase": ["--b0", "2", "--b1", "1", "--quad-points", "64"],
    "oracle-check": ["--ncut", "6", "--steps", "64"],
    "units": ["--f-ghz", "10", "--g-factor", "4"],
}


def test_invocations_cover_every_subcommand():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(INVOCATIONS) == set(subparsers)


@pytest.mark.parametrize("command", sorted(INVOCATIONS))
def test_every_accepted_flag_is_read(command, tmp_path):
    parser = cli.build_parser()
    subparser = parser._subparsers._group_actions[0].choices[command]
    flags = {a.dest for a in subparser._actions if a.dest != "help"}
    args = parser.parse_args([command, *INVOCATIONS[command],
                              "--out", str(tmp_path / "out.csv")])
    recorder = ReadRecorder(**vars(args))
    assert args.func(recorder) == 0
    assert recorder.reads == flags


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["winding", "--model", "rotating", "--b0", "2", "--b1", "1"],
    ["converge", "--t-grid", "1:2:3", "--ncuts", "4,6"],
    ["stepsize", "--param", "b0", "--delta", "1e-5"],
    ["scan", "--sweep", "b0=0.4:0.6:2", "--smooth-window", "5"],
    ["scaling", "--param", "b0", "--ncut", "6"],
    ["scaling", "--param", "b0", "--t", "6.28"],
])
def test_flags_a_subcommand_does_not_use_are_rejected(argv, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["--sweep", "x=0:1:3", "--ncut", "10"],
     "sweep axes ['x'] must be distinct parameters of model 'rashba' "
     "('b0', 'b1', 'omega')"),
    (["--model", "rotating", "--sweep", "b0=0:1:2"],
     "sweep axes ['b0'] must be distinct parameters of model 'rotating' ('b', 'omega')"),
    (["--sweep", "b0=0:1:2", "--sweep", "b0=2:3:2"],
     "sweep axes ['b0', 'b0'] must be distinct parameters of model 'rashba' "
     "('b0', 'b1', 'omega')"),
], ids=["unknown-axis", "axis-of-another-model", "repeated-axis"])
def test_sweep_axes_must_be_distinct_model_parameters(argv, message, capsys):
    assert exit_code(["scan", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_config_key_naming_no_flag_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_cut = 8\n")
    assert exit_code(["--config", str(cfg), "build", "--ncut", "4"]) == 2
    assert "n_cut" in capsys.readouterr().err
    # a key another subcommand reads stays allowed: configs share defaults
    cfg.write_text("ncut = 4\nquad_points = 64\n")
    out = tmp_path / "build.csv"
    assert main(["--config", str(cfg), "build", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[1] == "4"


def test_scaling_takes_t_grid_from_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("t_grid = 0.5:2:8\n")
    out = tmp_path / "scaling.csv"
    assert main(["--config", str(cfg), "scaling", "--param", "b0",
                 "--ncut", "6", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[4] == "8"


def test_config_sweep_is_a_list_the_command_line_replaces(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("sweep = b0=0.4:0.6:2\nncut = 6\n")
    out = tmp_path / "scan.csv"
    assert main(["--config", str(cfg), "scan", "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert rows == [["0.40000000000000002", "0.5"],
                    ["0.59999999999999998", "0.5"]]
    assert main(["--config", str(cfg), "scan", "--sweep", "b1=0.3:0.5:3",
                 "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert [b0 for b0, _ in rows] == ["0.5"] * 3
    assert [float(b1) for _, b1 in rows] == [0.3, 0.4, 0.5]


@pytest.mark.parametrize("argv", [
    ["scan", "--sweep", "b0=0:1:1"],
    ["stepsize", "--param", "b0", "--deltas", "1e-6,2e-6"],
    ["scaling", "--param", "b0", "--t-grid", "0.5:2:4"],
    ["evolve", "--t", "nan"],
    ["evolve", "--t", "inf"],
    ["oracle-check", "--steps", "100", "--t", "nan"],
    # every QFI of omega is 0 at b0 = 0: no power law to fit
    ["scaling", "--param", "omega", "--b0", "0", "--b1", "1", "--t-grid", "1:8:8",
     "--ncut", "10"],
])
def test_input_guards_exit_with_code_2(argv, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, code, error", [
    (["qfi", "--t", "nan"], 3, "ValueError: t=nan must be finite and non-negative"),
    (["qfi", "--t", "inf"], 3, "ValueError: t=inf must be finite and non-negative"),
    (["qfi", "--t", "-1"], 3, "ValueError: t=-1.0 must be finite and non-negative"),
    (["qfi", "--t", "1e300"], 2, "InvariantViolation: non-finite QFI"),
    (["scan", "--t", "nan", "--sweep", "b0=0.4:0.6:2"], 3,
     "ValueError: t=nan must be finite and non-negative"),
])
def test_bad_times_are_row_errors(argv, code, error, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(argv + ["--ncut", "10", "--out", str(out)]) == code
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["error"].startswith(error) for row in rows)


@pytest.mark.parametrize("argv, message", [
    (["converge", "--ncuts", "20,10"], "n_cuts must be strictly increasing, got [20, 10]"),
    (["converge", "--ncuts", "10,8"], "n_cuts must be strictly increasing, got [10, 8]"),
    (["converge", "--ncuts", "8,8"], "n_cuts must be strictly increasing, got [8, 8]"),
    (["converge", "--ncuts", "0,8"], "n_cut=0 would drop couplings up to harmonic 1"),
    (["stepsize", "--param", "b9"], "parameter 'b9' not in model params"),
    (["stepsize", "--param", "b0", "--probe", "1,0,0"],
     "probe array([1.+0.j, 0.+0.j, 0.+0.j]) is not a state vector for levels=2"),
    (["converge", "--param", "b9", "--ncuts", "200,201"],
     "parameter 'b9' not in model params"),
    (["scaling", "--param", "b9", "--ncut", "200", "--t-grid", "0.5:2:8"],
     "parameter 'b9' not in model params"),
    (["evolve", "--t", "nan", "--b0", "12", "--b1", "12", "--ncut", "16"],
     "t=nan must be finite and non-negative"),
    (["oracle-check", "--t", "nan", "--b0", "12", "--b1", "12", "--ncut", "16"],
     "t=nan must be finite and non-negative"),
    (["scan", "--sweep", "b0"], "'b0' is not of the form PARAM=lo:hi:points"),
    (["scan", "--sweep", "b0=1:2"], "'b0=1:2' is not of the form PARAM=lo:hi:points"),
    (["qfi", "--t-grid", "1:2"], "'1:2' is not of the form start:stop:points"),
    (["scan", "--sweep", "b0=0.4:0.6:2", "--jobs", "0"], "jobs=0 must be at least 1"),
    (["scan", "--sweep", "b0=0.4:0.6:2", "--jobs", "-1"], "jobs=-1 must be at least 1"),
    (["converge", "--param", "b0", "--param", "b0"], "params ['b0', 'b0'] repeat ['b0']"),
], ids=["converge-20,10", "converge-10,8", "converge-8,8", "converge-0,8",
        "stepsize-b9", "stepsize-3-amplitudes", "converge-b9", "scaling-b9",
        "evolve-nan", "oracle-check-nan", "sweep-without-grid", "sweep-two-fields",
        "t-grid-two-fields", "jobs-0", "jobs-minus-1", "converge-repeated-param"])
def test_bad_inputs_are_named(argv, message, capsys, monkeypatch):
    def eigh(*_args, **_kwargs):
        raise AssertionError("diagonalized before the input was checked")

    monkeypatch.setattr(cli, "diagonalize", None)  # stepsize builds no spectrum first
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert exit_code(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_stepsize_study_rejects_unnormalized_probe():
    model = cli.make_model("rashba", {"b0": 0.5, "b1": 0.5, "omega": 1.0})
    with pytest.raises(ValueError, match="probe state is not normalized"):
        cli.stepsize_study(model, "b0", np.array([1.0, 1.0]), 2 * math.pi,
                           [1e-6, 1e-3], 10)


def test_scaling_names_a_bad_time_before_a_failed_invariant(capsys):
    # t = 1e300 fails an invariant and t = -1 is a bad input, which is named
    # first, as evaluate checks its times before it evaluates
    assert exit_code(["scaling", "--param", "b0", "--t-grid=1e300:-1:8",
                      "--ncut", "10"]) == 2
    assert capsys.readouterr() == ("", "error: t=-1.0 must be finite and non-negative\n")


def test_converge_reports_under_truncation(capsys):
    assert exit_code(["converge", "--b0", "5", "--b1", "5", "--ncuts", "8,10",
                      "--param", "b0"]) == 2
    assert "n_cut=8" in capsys.readouterr().err


def test_strong_drive_resolves_by_default(tmp_path):
    # at n_cut 50 (20, 20) fails its certificate; "auto" grows past it
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--b0", "20", "--b1", "20", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "" and int(row["n_cut"]) >= 60
    assert float(row["edge_weight"]) < spectral.EDGE_TOL
    assert main(["qfi", "--b0", "20", "--b1", "20", "--ncut", "50",
                 "--out", str(out)]) == 3


@pytest.mark.parametrize("b1", [1.0, 3.0, 5.0])
def test_default_scan_searches_near_one_extra_eigh(b1, monkeypatch):
    # across b1 in [1, 5], b0 in [0.5 b1, 1.5 b1] every point resolves at the
    # "auto" floor in one eigh, so a scan's rows and its cost follow no drive
    sizes = count_eigh(monkeypatch)
    spec = ScanSpec(model="rashba", sweeps=[("b0", 0.5 * b1, 1.5 * b1, 8)],
                    fixed={"b1": b1, "omega": 1.0}, times=[2 * math.pi, 4 * math.pi])
    rows, failures = run_scan(spec)
    assert failures == 0 and len(rows) == 16
    assert sizes == [4 * sambe.AUTO_MIN_N_CUT + 2] * 8
    assert {int(row["n_cut"]) for row in rows} == {sambe.AUTO_MIN_N_CUT}


def test_ncut_takes_auto_or_an_integer(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["qfi", "--ncut", "auto"]).ncut == "auto"
    assert parser.parse_args(["qfi", "--ncut", "12"]).ncut == 12
    assert parser.parse_args(["qfi"]).ncut == metrology.DEFAULT_N_CUT == "auto"
    assert exit_code(["qfi", "--ncut", "foo"]) == 2
    assert ("argument --ncut: 'foo' is not an integer or 'auto'"
            in capsys.readouterr().err)


def test_explicit_ncut_row_is_the_session_at_that_ncut(tmp_path):
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--b0", "2.3", "--b1", "2.1", "--t", "3.7", "--ncut", "50",
                 "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    params = ["b0", "b1", "omega"]
    session = metrology.EstimationSession(
        cli.make_model("rashba", {"b0": 2.3, "b1": 2.1, "omega": 1.0}), params, 50)
    grid = session.evaluate(parse_probe("gs-h0"), [3.7])
    assert row["n_cut"] == "50" and row["edge_weight"] == fmt17(session.center.edge_weight)
    for i, p in enumerate(params):
        assert row[f"qfi_{p}"] == fmt17(float(grid.qfi[0, i, 0]))
        assert row[f"bound_{p}"] == fmt17(float(grid.bound[0, i]))
        assert row[f"cfi_{p}"] == fmt17(float(grid.cfi[0, i]))
        for k, q in enumerate(params[i + 1:], i + 1):
            assert row[f"omega_{p}_{q}"] == fmt17(float(grid.omega[0, i, k]))
            assert row[f"qfim_{p}_{q}"] == fmt17(float(grid.qfim[0, i, k]))


def test_point_without_a_valid_time_builds_no_session(monkeypatch, tmp_path):
    def eigh(*_args, **_kwargs):
        raise AssertionError("diagonalized a point with no valid time")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--t", "nan", "--ncut", "10", "--out", str(out)]) == 3
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "ValueError: t=nan must be finite and non-negative"
    assert row["n_cut"] == "10" and row["edge_weight"] == ""


def test_stepsize_study_builds_at_one_n_cut(monkeypatch):
    calls = []
    build = cli.build_floquet_matrix

    def recording(model, n_cut):
        calls.append(n_cut)
        return build(model, n_cut)

    monkeypatch.setattr(cli, "build_floquet_matrix", recording)
    model = cli.make_model("rashba", {"b0": 3.0, "b1": 3.0, "omega": 1.0})
    cli.stepsize_study(model, "b0", parse_probe("gs-h0"), 2 * math.pi,
                       [1e-6, 1e-4, 1e-3], "auto")
    resolved = metrology.EstimationSession(model, []).center.n_cut
    assert calls == ["auto"] + [resolved] * 6


def record_assembly(monkeypatch) -> list:
    """The dim of every dense Floquet matrix assembled from here on."""
    dims = []
    assemble = sambe.FloquetMatrix.assemble

    def recording(matrix, n_cut):
        dims.append(matrix.levels * (2 * n_cut + 1))
        return assemble(matrix, n_cut)

    monkeypatch.setattr(sambe.FloquetMatrix, "assemble", recording)
    return dims


def test_deep_explicit_ncut_solves_one_small_window(monkeypatch, tmp_path):
    # (9, 9) at n_cut 200 is solved on the 79 central sectors of "auto"'s
    # first n_cut, 39: one eigh of dim 158, none of dim 802, and M_200 is
    # never assembled
    sizes = count_eigh(monkeypatch)
    dims = record_assembly(monkeypatch)
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--b0", "9", "--b1", "9", "--ncut", "200",
                 "--out", str(out)]) == 0
    assert sizes == [2 * (2 * 39 + 1)] and dims == [2 * (2 * 39 + 1)]
    with out.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "" and row["n_cut"] == "200"
    assert float(row["edge_weight"]) < spectral.EDGE_TOL


@pytest.mark.parametrize("argv, row, dims", [
    (["--b0", "9", "--b1", "9", "--ncut", "200"], "802,200,2,1,0", [802]),
    (["--b0", "9", "--b1", "9"], "158,39,2,1,0", [158, 158]),
    (["--model", "rotating", "--ncut", "30"], "122,30,2,1,0", [122]),
    (["--model", "rotating"], "146,36,2,1,0", [146, 146]),
])
def test_build_assembles_the_matrix_it_writes(argv, row, dims, monkeypatch, tmp_path):
    # `build` is where M_n is assembled: its row reads the dense matrix at
    # the n_cut used ("auto" solves it once first), with the values the
    # dense build always wrote
    assembled = record_assembly(monkeypatch)
    out = tmp_path / "build.csv"
    assert main(["build", *argv, "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "dim,n_cut,levels,omega,hermiticity_defect", row]
    assert assembled == dims


def test_stepsize_study_solves_every_spectrum_on_one_block(monkeypatch):
    # explicit n_cut 50 at (0.5, 0.5): x0, its session and every x0 +/- delta
    # are solved on the window of 36, so no difference mixes two solves
    model = cli.make_model("rashba", {"b0": 0.5, "b1": 0.5, "omega": 1.0})
    probe, deltas = parse_probe("gs-h0"), [1e-6, 3e-6, 1e-4, 1e-3]
    exact = metrology.EstimationSession(model, ["b0"], 50).evaluate(
        probe, [2 * math.pi]).qfi[0, 0, 0]
    sizes = count_eigh(monkeypatch)
    rows = cli.stepsize_study(model, "b0", probe, 2 * math.pi, deltas, 50)
    assert sizes == [4 * sambe.AUTO_MIN_N_CUT + 2] * (2 + 2 * len(deltas))
    # abs_error is the distance to the session's exact QFI: about 1e-10
    # relative at delta 3e-6, the central difference's best step
    assert [row["abs_error"] for row in rows] == [abs(row["qfi"] - exact) for row in rows]
    assert min(row["abs_error"] for row in rows) <= 1e-9 * exact


def test_scaling_refuses_a_roundoff_fit(capsys):
    # at b0 = 0 the QFI of b1 is roundoff of zero, 1e-16 of its bound
    assert exit_code(["scaling", "--param", "b1", "--b0", "0", "--b1", "1",
                      "--t-grid", "1:8:8", "--ncut", "10"]) == 2
    assert capsys.readouterr().err == (
        "error: every fitted qfi_b1 is below 1e-12 of its bound_b1: roundoff, "
        "not a power law\n")
