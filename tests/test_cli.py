"""Command-line harness tests."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from floqmet import cli
from floqmet.cli import (ScanSpec, fit_scaling, fmt17, main, parse_grid,
                         parse_probe, run_scan, scan_columns)
from floqmet.metrology import InvariantViolation


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "floqmet.cli", *args],
                          capture_output=True, text=True)


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
