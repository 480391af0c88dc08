"""Command-line harness tests."""
import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from floqmet import cli
from floqmet.cli import (ScanSpec, fit_scaling, fmt17, main, parse_grid,
                         parse_probe, run_scan, scan_columns)
from floqmet.metrology import InvariantViolation


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    # the pytest `pythonpath` option does not reach a child process
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def run_cli(*args):
    return run_python("-m", "floqmet.cli", *args)


def test_parse_grid():
    np.testing.assert_allclose(parse_grid("0:1:5"), [0, 0.25, 0.5, 0.75, 1])
    with pytest.raises(ValueError):
        parse_grid("0:1:1")


def test_parse_probe():
    np.testing.assert_allclose(parse_probe("gs-h0"),
                               np.array([1, -1]) / math.sqrt(2))
    psi = parse_probe("1,1j")
    np.testing.assert_allclose(psi, np.array([1, 1j]) / math.sqrt(2))
    with pytest.raises(ValueError):
        parse_probe("0,0")


def test_fmt17_roundtrips():
    for x in (1 / 3, 82.6732675800525, 1e-300, -0.0):
        assert float(fmt17(x)) == x
    assert fmt17("text") == "text"


def test_fit_scaling_recovers_power_law():
    times = np.linspace(1.0, 30.0, 40)
    fit = fit_scaling(times, 2.5 * times ** 3.2)
    assert fit.exponent == pytest.approx(3.2, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


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


def test_qfi_exit_code_reads_every_row(tmp_path, monkeypatch):
    # an invariant violation on a later --t-grid row still exits with 2
    real_report = cli.estimation_report

    def report(model, params, probe, t, **kwargs):
        if t > 1.5 * math.pi:
            raise InvariantViolation("forced failure on a later row")
        return real_report(model, params, probe, t, **kwargs)

    monkeypatch.setattr(cli, "estimation_report", report)
    out = tmp_path / "qfi.csv"
    code = main(["qfi", "--model", "rotating", "--ncut", "10",
                 "--t-grid", f"{math.pi}:{2 * math.pi}:2", "--out", str(out)])
    assert code == 2
    header, first, second = out.read_text().splitlines()
    error = header.split(",").index("error")
    assert first.split(",")[error] == ""
    assert "InvariantViolation" in second.split(",")[error]


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
], ids=["converge-20,10", "converge-10,8", "converge-8,8", "converge-0,8",
        "stepsize-b9", "stepsize-3-amplitudes", "converge-b9", "scaling-b9",
        "evolve-nan", "oracle-check-nan"])
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


def test_converge_reports_under_truncation(capsys):
    assert exit_code(["converge", "--b0", "5", "--b1", "5", "--ncuts", "8,10",
                      "--param", "b0"]) == 2
    assert "n_cut=8" in capsys.readouterr().err
