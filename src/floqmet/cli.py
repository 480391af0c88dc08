"""Command-line harness: scans, scaling fits, convergence and step-size
studies, topology diagnostics, and oracle cross-checks.

Output files are deterministic: identical inputs produce byte-identical CSV
(17 significant digits, fixed column order, row-major sweep order).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models as mdl
from .metrology import (DEFAULT_FD_STEP, DEFAULT_N_CUT, DEFAULT_SMOOTH_WINDOW,
                        EstimationSession, InvariantViolation, estimation_report,
                        local_mean)
from .models import RashbaModel, RotatingFieldModel
from .propagator import evolve
from .reference import OracleConfig, propagate_direct, unitarity_defect
from .sambe import build_floquet_matrix, truncation_ladder
from .spectral import diagonalize

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_POINT_FAILURES = 3

MODEL_PARAMS = {"rashba": ("b0", "b1", "omega"), "rotating": ("b", "omega")}


def make_model(name: str, values: dict):
    if name == "rashba":
        return RashbaModel(values["b0"], values["b1"], values["omega"]).hamiltonian()
    if name == "rotating":
        return RotatingFieldModel(values["b"], values["omega"]).hamiltonian()
    raise ValueError(f"unknown model {name!r} (known: rashba, rotating)")


def parse_probe(spec: str) -> np.ndarray:
    """Probe spec: 'gs-h0' or comma-separated complex amplitudes."""
    if spec == "gs-h0":
        return mdl.GROUND_PROBE.copy()
    amps = np.array([complex(tok) for tok in spec.split(",")])
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("probe amplitudes are all zero")
    return amps / norm


def parse_grid(spec: str) -> np.ndarray:
    """'start:stop:points' -> inclusive linear grid."""
    start, stop, points = spec.split(":")
    points = int(points)
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(float(start), float(stop), points)


def fmt17(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    return str(x)


def write_table(rows: list[dict], columns: list[str], out, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(
            [{c: row.get(c, "") for c in columns} for row in rows],
            indent=2, default=fmt17) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(fmt17(row.get(c, "")) for c in columns))
        text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@dataclass
class ScanSpec:
    """One scan job: swept axes, fixed parameters, times, numerics, output."""

    model: str
    sweeps: list[tuple[str, float, float, int]]
    fixed: dict
    times: list[float]
    n_cut: int = DEFAULT_N_CUT
    fd_step: float = DEFAULT_FD_STEP
    probe: str = "gs-h0"
    clock_omega: float = 1.0
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    smooth_window: int = DEFAULT_SMOOTH_WINDOW

    def grid_points(self) -> list[dict]:
        """Row-major cartesian product over the swept axes."""
        axes = [(name, np.linspace(lo, hi, n)) for name, lo, hi, n in self.sweeps]
        points: list[dict] = [dict(self.fixed)]
        for name, values in axes:
            points = [dict(p, **{name: float(v)}) for p in points for v in values]
        return points


def _scan_row(args) -> dict:
    spec, values, t = args
    names = MODEL_PARAMS[spec.model]
    row = {name: values[name] for name in names}
    row.update(time=t, n_cut=spec.n_cut, fd_step=spec.fd_step,
               probe=spec.probe, error="")
    try:
        model = make_model(spec.model, values)
        probe = parse_probe(spec.probe)
        report = estimation_report(
            model, list(names), probe, t, n_cut=spec.n_cut, delta=spec.fd_step,
            clock_omega=spec.clock_omega)
        for p, est in report.estimates.items():
            row[f"qfi_{p}"] = est.qfi_total
            row[f"qfi_{p}_eigenmode"] = est.qfi_eigenmode
            row[f"qfi_{p}_quasienergy"] = est.qfi_quasienergy
            row[f"qfi_{p}_multiphoton"] = est.qfi_multiphoton
            row[f"qfi_{p}_coherence"] = est.qfi_coherence
            row[f"bound_{p}"] = est.qfi_upper_bound
            row[f"cfi_{p}"] = est.cfi
            row[f"gauge_reliable_{p}"] = int(est.gauge_reliable)
        for (l, lp), om in report.incompatibility.items():
            row[f"omega_{l}_{lp}"] = om
    except Exception as exc:  # per-point failure: record, keep scanning
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def scan_columns(spec: ScanSpec) -> list[str]:
    names = MODEL_PARAMS[spec.model]
    cols = list(names) + ["time"]
    for p in names:
        cols += [f"qfi_{p}", f"qfi_{p}_eigenmode", f"qfi_{p}_quasienergy",
                 f"qfi_{p}_multiphoton", f"qfi_{p}_coherence", f"bound_{p}",
                 f"cfi_{p}", f"gauge_reliable_{p}"]
    for i, l in enumerate(names):
        for lp in names[i + 1:]:
            cols.append(f"omega_{l}_{lp}")
    cols += ["n_cut", "fd_step", "probe", "error"]
    return cols


def run_scan(spec: ScanSpec) -> tuple[list[dict], int]:
    tasks = [(spec, values, t) for values in spec.grid_points()
             for t in spec.times]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(_scan_row, tasks, chunksize=1))
    else:
        rows = [_scan_row(task) for task in tasks]
    failures = sum(1 for row in rows if row["error"])
    return rows, failures


@dataclass
class ScalingFit:
    """Power-law fit of values vs time on log-log axes."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    exponent: float = 0.0
    r_squared: float = 0.0
    window: str = "raw"


def fit_scaling(times, values, window: str = "raw",
                smooth_window: int = DEFAULT_SMOOTH_WINDOW) -> ScalingFit:
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window == "local-mean":
        values = local_mean(values, smooth_window)
    keep = values > 0
    if not np.all(keep):
        print(f"warning: dropping {np.sum(~keep)} nonpositive values from the "
              "scaling fit", file=sys.stderr)
    x = np.log(times[keep])
    y = np.log(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(times=times[keep], values=values[keep],
                      exponent=float(slope), r_squared=r2, window=window)


def qfi_over_times(model, params, probe, times, n_cut, delta, clock_omega=1.0):
    """QFI curves over a time grid, reusing one set of diagonalizations."""
    session = EstimationSession(model, params, n_cut, delta)
    curves = {p: [] for p in params}
    for t in times:
        report = estimation_report(model, params, probe, t, n_cut=n_cut,
                                   delta=delta, clock_omega=clock_omega,
                                   session=session)
        for p in params:
            curves[p].append(report.estimates[p].qfi_total)
    return {p: np.asarray(v) for p, v in curves.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _model_values(args) -> dict:
    return {"b0": args.b0, "b1": args.b1, "b": args.b, "omega": args.omega}


def cmd_build(args) -> int:
    model = make_model(args.model, _model_values(args))
    matrix = build_floquet_matrix(model, args.ncut)
    rows = [{"dim": matrix.dim, "n_cut": matrix.n_cut, "levels": matrix.levels,
             "omega": matrix.omega,
             "hermiticity_defect": matrix.hermiticity_defect()}]
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def cmd_evolve(args) -> int:
    model = make_model(args.model, _model_values(args))
    spectrum = diagonalize(build_floquet_matrix(model, args.ncut))
    rows = []
    for t in _times(args):
        sample = evolve(spectrum, t)
        row = {"time": t, "truncation_defect": sample.truncation_defect,
               "flagged": int(sample.flagged)}
        for g in range(model.levels):
            for b in range(model.levels):
                row[f"re_u_{g}{b}"] = float(sample.u_matrix[g, b].real)
                row[f"im_u_{g}{b}"] = float(sample.u_matrix[g, b].imag)
        rows.append(row)
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def cmd_qfi(args) -> int:
    spec = _scan_spec(args, sweeps=[])
    rows, failures = run_scan(spec)
    write_table(rows, scan_columns(spec), args.out, args.format)
    if failures:
        return (EXIT_INVARIANT
                if any("InvariantViolation" in row["error"] for row in rows)
                else EXIT_POINT_FAILURES)
    return EXIT_OK


def cmd_scan(args) -> int:
    sweeps = [_parse_sweep(s) for s in args.sweep]
    spec = _scan_spec(args, sweeps=sweeps)
    rows, failures = run_scan(spec)
    write_table(rows, scan_columns(spec), args.out, args.format)
    return EXIT_POINT_FAILURES if failures else EXIT_OK


def cmd_scaling(args) -> int:
    model = make_model(args.model, _model_values(args))
    times = _times(args)
    if len(times) < 8:
        raise SystemExit("scaling needs at least 8 time points")
    probe = parse_probe(args.probe)
    curves = qfi_over_times(model, [args.param], probe, times, args.ncut,
                            args.delta, args.clock_omega)
    fit = fit_scaling(times, curves[args.param], window=args.window,
                      smooth_window=args.smooth_window)
    rows = [{"param": args.param, "exponent": fit.exponent,
             "r_squared": fit.r_squared, "window": fit.window,
             "points": len(fit.times), "n_cut": args.ncut,
             "fd_step": args.delta}]
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def cmd_converge(args) -> int:
    model = make_model(args.model, _model_values(args))
    probe = parse_probe(args.probe)
    params = args.param or list(MODEL_PARAMS[args.model])
    n_cuts = [int(n) for n in args.ncuts.split(",")]
    truncation_ladder(model, n_cuts)  # validates ordering/cutoffs
    rows = []
    previous: dict[str, float] = {}
    for n in n_cuts:
        report = estimation_report(model, params, probe, args.t, n_cut=n,
                                   delta=args.delta,
                                   clock_omega=args.clock_omega)
        row = {"n_cut": n}
        for p in params:
            value = report.estimates[p].qfi_total
            row[f"qfi_{p}"] = value
            row[f"rel_change_{p}"] = (abs(value - previous[p]) / abs(previous[p])
                                      if p in previous and previous[p] != 0
                                      else float("nan"))
            previous[p] = value
        rows.append(row)
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def stepsize_study(model, param, probe, t, deltas, n_cut,
                   clock_omega=1.0) -> list[dict]:
    """QFI(delta) plus a 5-point local standard deviation per delta."""
    values = []
    for d in deltas:
        report = estimation_report(model, [param], probe, t, n_cut=n_cut,
                                   delta=d, clock_omega=clock_omega)
        values.append(report.estimates[param].qfi_total)
    values = np.asarray(values)
    rows = []
    for i, d in enumerate(deltas):
        lo, hi = max(0, i - 2), min(len(deltas), i + 3)
        rows.append({"delta": float(d), "qfi": float(values[i]),
                     "local_std": float(np.std(values[lo:hi]))})
    return rows


def cmd_stepsize(args) -> int:
    model = make_model(args.model, _model_values(args))
    probe = parse_probe(args.probe)
    deltas = np.asarray([float(d) for d in args.deltas.split(",")])
    span = math.log10(deltas.max() / deltas.min())
    if span < 3:
        raise SystemExit(f"step-size study should span >= 3 decades, got {span:.1f}")
    rows = stepsize_study(model, args.param, probe, args.t, deltas, args.ncut,
                          args.clock_omega)
    write_table(rows, ["delta", "qfi", "local_std"], args.out, args.format)
    return EXIT_OK


def cmd_winding(args) -> int:
    model = RashbaModel(args.b0, args.b1, args.omega)
    rows = [{
        "b0": args.b0, "b1": args.b1,
        "winding": mdl.winding_number(model),
        "closed_form": mdl.winding_number_exact(model),
        "quadrature": mdl.winding_number_quadrature(model),
    }]
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def cmd_phase(args) -> int:
    model = RashbaModel(args.b0, args.b1, args.omega)
    report = mdl.total_phase(model, hbar=args.hbar, quad_points=args.quad_points)
    rows = [{"b0": args.b0, "b1": args.b1, "gamma_a": report.gamma_a,
             "dynamical": report.dynamical, "total": report.total,
             "quad_points": report.quadrature_points}]
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    values = _model_values(args)
    model = make_model(args.model, values)
    if args.model == "rashba":
        h_of_t = RashbaModel(values["b0"], values["b1"], values["omega"]).h_at
    else:
        h_of_t = RotatingFieldModel(values["b"], values["omega"]).h_at
    spectrum = diagonalize(build_floquet_matrix(model, args.ncut))
    cfg = OracleConfig(step_count=args.steps, scheme=args.scheme)
    rows = []
    for t in _times(args):
        u_f = evolve(spectrum, t).u_matrix
        u_d = propagate_direct(h_of_t, t, cfg)
        rows.append({"time": t,
                     "max_diff": float(np.max(np.abs(u_f - u_d))),
                     "floquet_defect": float(np.max(np.abs(
                         u_f.conj().T @ u_f - np.eye(model.levels)))),
                     "oracle_defect": unitarity_defect(u_d)})
    write_table(rows, ["time", "max_diff", "floquet_defect", "oracle_defect"],
                args.out, args.format)
    return EXIT_OK


def cmd_units(args) -> int:
    b_ac, b_dc = mdl.unit_mapping(args.f_ghz, args.g_factor)
    rows = [{"f_ghz": args.f_ghz, "g_factor": args.g_factor,
             "b_ac_tesla": b_ac, "b_dc_tesla": b_dc}]
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_sweep(spec: str) -> tuple[str, float, float, int]:
    name, grid = spec.split("=")
    lo, hi, points = grid.split(":")
    points = int(points)
    if points < 2:
        raise SystemExit(f"sweep {name!r} needs at least 2 points")
    return name, float(lo), float(hi), points


def _times(args) -> list[float]:
    if getattr(args, "t_grid", None):
        return [float(t) for t in parse_grid(args.t_grid)]
    return [args.t]


def _scan_spec(args, sweeps) -> ScanSpec:
    names = MODEL_PARAMS[args.model]
    values = _model_values(args)
    fixed = {n: values[n] for n in names}
    return ScanSpec(
        model=args.model, sweeps=sweeps, fixed=fixed, times=_times(args),
        n_cut=args.ncut, fd_step=args.delta, probe=args.probe,
        clock_omega=args.clock_omega, out=args.out, fmt=args.format,
        jobs=args.jobs, smooth_window=args.smooth_window)


def _read_config(path: str) -> dict:
    """Flat `key = value` config file; CLI flags override these values."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqmet",
        description="Floquet multiparameter-estimation toolbox")
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, time_flags=True):
        p.add_argument("--model", default="rashba", choices=sorted(MODEL_PARAMS))
        p.add_argument("--b0", type=float, default=0.5)
        p.add_argument("--b1", type=float, default=0.5)
        p.add_argument("--b", type=float, default=0.5)
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--ncut", type=int, default=DEFAULT_N_CUT)
        p.add_argument("--delta", type=float, default=DEFAULT_FD_STEP)
        p.add_argument("--probe", default="gs-h0")
        p.add_argument("--clock-omega", type=float, default=1.0)
        p.add_argument("--smooth-window", type=int, default=DEFAULT_SMOOTH_WINDOW)
        p.add_argument("--out", default=None)
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--jobs", type=int, default=1)
        if time_flags:
            p.add_argument("--t", type=float, default=2 * math.pi)
            p.add_argument("--t-grid", default=None,
                           help="start:stop:points time grid")
        return p

    common(sub.add_parser("build", help="assemble the Floquet matrix"),
           time_flags=False).set_defaults(func=cmd_build)
    common(sub.add_parser("evolve", help="propagator samples")).set_defaults(
        func=cmd_evolve)
    common(sub.add_parser("qfi", help="single-point estimation report")
           ).set_defaults(func=cmd_qfi)

    p = common(sub.add_parser("scan", help="parameter scan"))
    p.add_argument("--sweep", action="append", default=[],
                   metavar="PARAM=lo:hi:points", required=True)
    p.set_defaults(func=cmd_scan)

    p = common(sub.add_parser("scaling", help="QFI-vs-time power-law fit"))
    p.add_argument("--param", required=True)
    p.add_argument("--window", default="raw", choices=("raw", "local-mean"))
    p.set_defaults(func=cmd_scaling)

    p = common(sub.add_parser("converge", help="truncation convergence table"))
    p.add_argument("--param", action="append", default=None)
    p.add_argument("--ncuts", default="10,20,30,40,50,51")
    p.set_defaults(func=cmd_converge)

    p = common(sub.add_parser("stepsize", help="finite-difference step study"))
    p.add_argument("--param", required=True)
    p.add_argument("--deltas",
                   default="1e-9,3e-9,1e-8,3e-8,1e-7,3e-7,1e-6,3e-6,"
                           "1e-5,3e-5,1e-4,3e-4,1e-3")
    p.set_defaults(func=cmd_stepsize)

    p = common(sub.add_parser("winding", help="Rashba winding number"),
               time_flags=False)
    p.set_defaults(func=cmd_winding)

    p = common(sub.add_parser("phase", help="geometric/dynamical phase report"),
               time_flags=False)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--quad-points", type=int, default=1024)
    p.set_defaults(func=cmd_phase)

    p = common(sub.add_parser("oracle-check",
                              help="Floquet vs direct-propagation comparison"))
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--scheme", default="midpoint-exponential",
                   choices=("midpoint-exponential", "rk4"))
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("units", help="dimensionless-to-physical field mapping")
    p.add_argument("--f-ghz", type=float, required=True)
    p.add_argument("--g-factor", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=cmd_units)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    pre, _ = parser.parse_known_args(argv)
    if getattr(pre, "config", None):
        config = _read_config(pre.config)
        for action in parser._subparsers._group_actions[0].choices.values():
            defaults = {k: v for k, v in config.items()
                        if any(a.dest == k for a in action._actions)}
            action.set_defaults(**defaults)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
