"""Command-line harness: scans, scaling fits, convergence and step-size
studies, topology diagnostics, and oracle cross-checks.

Output files are deterministic: identical inputs produce byte-identical CSV
(17 significant digits, fixed column order, row-major sweep order).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import models as mdl
from .metrology import (DEFAULT_N_CUT, DEFAULT_SMOOTH_WINDOW, EstimationSession,
                        InvariantViolation, _as_probe, _gram, local_mean)
from .models import RashbaModel, RotatingFieldModel
from .propagator import evolve
from .reference import OracleConfig, propagate_direct, unitarity_defect
from .sambe import _check_times, _param_value, _time_errors, build_floquet_matrix
from .spectral import _solve, diagonalize

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_POINT_FAILURES = 3
ROUNDOFF_QFI = 1e-12  # a QFI below this fraction of its bound is roundoff

MODEL_PARAMS = {"rashba": ("b0", "b1", "omega"), "rotating": ("b", "omega")}
# per-parameter scan columns, read from GridEvaluation qfi[j, i], bound and cfi
ESTIMATE_COLUMNS = ("qfi_{}", "qfi_{}_eigenmode", "qfi_{}_quasienergy",
                    "qfi_{}_multiphoton", "qfi_{}_coherence", "bound_{}", "cfi_{}")


def _physical_model(name: str, values: dict):
    if name == "rashba":
        return RashbaModel(values["b0"], values["b1"], values["omega"])
    if name == "rotating":
        return RotatingFieldModel(values["b"], values["omega"])
    raise ValueError(f"unknown model {name!r} (known: rashba, rotating)")


def make_model(name: str, values: dict):
    return _physical_model(name, values).hamiltonian()


def parse_probe(spec: str) -> np.ndarray:
    """Probe spec: 'gs-h0' or comma-separated complex amplitudes, scaled by the
    largest |amplitude| before normalizing, so the norm neither overflows nor
    underflows."""
    if spec == "gs-h0":
        return mdl.GROUND_PROBE.copy()
    amps = np.array([complex(tok) for tok in spec.split(",")])
    if not np.isfinite(amps).all():
        raise ValueError(f"probe {spec!r} has a non-finite amplitude")
    scale = np.abs(amps).max()
    if scale == 0:
        raise ValueError("probe amplitudes are all zero")
    amps = amps / scale
    return amps / np.linalg.norm(amps)


def _grid_spec(spec: str, grid: str, form: str) -> tuple[float, float, int]:
    """(lo, hi, points) of `grid`, 'lo:hi:points', a ValueError naming `spec`
    and its `form` if it has another form."""
    try:
        lo, hi, points = grid.split(":")
        return float(lo), float(hi), int(points)
    except ValueError:
        raise ValueError(f"{spec!r} is not of the form {form}") from None


def parse_grid(spec: str) -> np.ndarray:
    """'start:stop:points' -> inclusive linear grid."""
    start, stop, points = _grid_spec(spec, spec, "start:stop:points")
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(start, stop, points)


def fmt17(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)  # nan, inf as is


def write_table(rows: list[dict], columns: list[str], out, fmt: str) -> None:
    if fmt == "json":  # strict: a non-finite float is written as null
        def strict(x):
            return None if isinstance(x, float) and not math.isfinite(x) else x

        text = json.dumps(
            [{c: strict(row.get(c, "")) for c in columns} for row in rows],
            indent=2, default=fmt17, allow_nan=False) + "\n"
    else:  # minimal quoting: only fields holding a comma, quote or newline
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [columns] + [[fmt17(row.get(c, "")) for c in columns] for row in rows])
        text = buf.getvalue()
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@dataclass
class ScanSpec:
    """One scan job: swept axes, fixed parameters, times and numerics."""

    model: str
    sweeps: list[tuple[str, float, float, int]]
    fixed: dict
    times: list[float]
    n_cut: int | str = DEFAULT_N_CUT
    probe: str = "gs-h0"
    jobs: int = 1

    def grid_points(self) -> list[dict]:
        """Row-major cartesian product over the swept axes, distinct model parameters."""
        names = [name for name, *_ in self.sweeps]
        if len(set(names)) < len(names) or set(names) - set(MODEL_PARAMS[self.model]):
            raise ValueError(f"sweep axes {names} must be distinct parameters of "
                             f"model {self.model!r} {MODEL_PARAMS[self.model]}")
        axes = [(name, np.linspace(lo, hi, n)) for name, lo, hi, n in self.sweeps]
        points: list[dict] = [dict(self.fixed)]
        for name, values in axes:
            points = [dict(p, **{name: float(v)}) for p in points for v in values]
        return points


def _scan_point(task) -> list[dict]:
    """One row per time of a grid point, estimating `params` from one session and
    one evaluation of the valid times; no session when no time is valid.  Each
    row's error is None or an exception, its own time's or invariant's, or the
    failed session's, probe's or evaluation's.  A built session writes the n_cut
    it used and its modes' edge weight on every row."""
    spec, values, params = task
    rows = [dict({name: values[name] for name in MODEL_PARAMS[spec.model]}, time=t,
                 n_cut=spec.n_cut, probe=spec.probe, error=error)
            for t, error in zip(spec.times, _time_errors(spec.times))]
    valid = [row for row in rows if row["error"] is None]
    if not valid:
        return rows
    try:
        session = EstimationSession(make_model(spec.model, values), params, spec.n_cut)
        psi = _as_probe(parse_probe(spec.probe), session.model.levels)
    except Exception as exc:  # per-point failure: record, keep scanning
        return [dict(row, error=exc) for row in rows]
    for row in rows:
        row.update(n_cut=session.center.n_cut, edge_weight=session.center.edge_weight)
    try:
        grid, verdicts = session._grid(psi, np.array([row["time"] for row in valid]))
    except Exception as exc:  # on every row the evaluation would fill
        grid, verdicts = None, [exc] * len(valid)
    for j, (row, verdict) in enumerate(zip(valid, verdicts)):
        row["error"] = verdict
        for i, p in enumerate(params if verdict is None else ()):
            row.update(zip((col.format(p) for col in ESTIMATE_COLUMNS),
                           [*grid.qfi[j, i], grid.bound[j, i], grid.cfi[j, i]]))
            for k, q in enumerate(params[i + 1:], i + 1):
                row[f"omega_{p}_{q}"] = grid.omega[j, i, k]
                row[f"qfim_{p}_{q}"] = grid.qfim[j, i, k]
    return rows


def _point_rows(spec: ScanSpec, params) -> list[dict]:
    """The rows of the point `spec.fixed`, estimating `params`; raises the first
    row error, a bad input before a failed invariant, as `evaluate` would."""
    rows = _scan_point((spec, spec.fixed, params))
    errors = [row["error"] for row in rows if row["error"] is not None]
    if errors:
        raise min(errors, key=lambda e: isinstance(e, InvariantViolation))
    return rows


def scan_columns(spec: ScanSpec) -> list[str]:
    names = MODEL_PARAMS[spec.model]
    cols = list(names) + ["time"]
    cols += [col.format(p) for p in names for col in ESTIMATE_COLUMNS]
    pairs = [f"{l}_{lp}" for i, l in enumerate(names) for lp in names[i + 1:]]
    cols += [f"omega_{pair}" for pair in pairs] + [f"qfim_{pair}" for pair in pairs]
    cols += ["n_cut", "edge_weight", "probe", "error"]
    return cols


def run_scan(spec: ScanSpec) -> tuple[list[dict], int]:
    """Every row of the scan, in order, and the number of failed rows; at most
    one worker process per grid point."""
    if spec.jobs < 1:
        raise ValueError(f"jobs={spec.jobs} must be at least 1")
    tasks = [(spec, values, MODEL_PARAMS[spec.model]) for values in spec.grid_points()]
    workers = min(spec.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_scan_point, tasks, chunksize=1))
    else:
        per_point = [_scan_point(task) for task in tasks]
    rows = [row for point_rows in per_point for row in point_rows]
    for row in rows:
        error = row["error"]
        row["error"] = "" if error is None else f"{type(error).__name__}: {error}"
    failures = sum(1 for row in rows if row["error"])
    return rows, failures


@dataclass
class ScalingFit:
    """Power-law fit of values vs time on log-log axes."""

    times: np.ndarray = field(repr=False)
    exponent: float = 0.0
    r_squared: float = 0.0


def fit_scaling(times, values, window: str = "raw",
                smooth_window: int = DEFAULT_SMOOTH_WINDOW) -> ScalingFit:
    """Fit of the positive values, at least 2; the fit's `times` are the times kept."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window == "local-mean":
        values = local_mean(values, smooth_window)
    keep = values > 0
    if keep.sum() < 2:
        raise ValueError(f"a scaling fit needs at least 2 positive values, "
                         f"got {keep.sum()} of {values.size}")
    x = np.log(times[keep])
    y = np.log(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(times=times[keep], exponent=float(slope), r_squared=r2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _model_values(args) -> dict:
    return {"b0": args.b0, "b1": args.b1, "b": args.b, "omega": args.omega}


def cmd_build(args) -> int:
    model = make_model(args.model, _model_values(args))
    matrix = build_floquet_matrix(model, args.ncut)
    if matrix.auto:  # the matrix at the n_cut it resolves to
        matrix = build_floquet_matrix(model, diagonalize(matrix).n_cut)
    rows = [{"dim": matrix.dim, "n_cut": matrix.n_cut, "levels": matrix.levels,
             "omega": matrix.omega,
             "hermiticity_defect": matrix.hermiticity_defect()}]
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def _propagators(args):
    """The physical model of `args` and (t, `evolve` sample) at each of its times,
    from one certified spectrum: a bad time or an under-truncated spectrum raises
    before any sample is taken."""
    model = _physical_model(args.model, _model_values(args))
    times = _times(args)
    _check_times(times)
    spectrum = diagonalize(build_floquet_matrix(model.hamiltonian(), args.ncut))
    return model, [(t, evolve(spectrum, t)) for t in times]


def cmd_evolve(args) -> int:
    rows = []
    for t, sample in _propagators(args)[1]:
        row = {"time": t, "truncation_defect": sample.truncation_defect}
        for (g, b), u in np.ndenumerate(sample.u_matrix):
            row[f"re_u_{g}{b}"], row[f"im_u_{g}{b}"] = float(u.real), float(u.imag)
        rows.append(row)
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def cmd_qfi(args) -> int:
    spec = _scan_spec(args, _times(args), args.ncut)
    rows, failures = run_scan(spec)
    write_table(rows, scan_columns(spec), args.out, args.format)
    if any("InvariantViolation" in row["error"] for row in rows):
        return EXIT_INVARIANT
    return EXIT_POINT_FAILURES if failures else EXIT_OK


def cmd_scan(args) -> int:
    sweeps = [_parse_sweep(s) for s in args.sweep]
    spec = _scan_spec(args, _times(args), args.ncut, sweeps, args.jobs)
    rows, failures = run_scan(spec)
    write_table(rows, scan_columns(spec), args.out, args.format)
    return EXIT_POINT_FAILURES if failures else EXIT_OK


def cmd_scaling(args) -> int:
    if not args.t_grid:
        raise ValueError("scaling needs --t-grid")
    spec = _scan_spec(args, _times(args), args.ncut)
    if len(spec.times) < 8:
        raise ValueError("scaling needs at least 8 time points")
    p, point = args.param, _point_rows(spec, [args.param])
    fit = fit_scaling(spec.times, [row[f"qfi_{p}"] for row in point],
                      window=args.window, smooth_window=args.smooth_window)
    kept = [row for row in point if row["time"] in fit.times]
    if all(row[f"qfi_{p}"] < ROUNDOFF_QFI * row[f"bound_{p}"] for row in kept):
        raise ValueError(f"every fitted qfi_{p} is below {ROUNDOFF_QFI:g} of its "
                         f"bound_{p}: roundoff, not a power law")
    rows = [{"param": p, "exponent": fit.exponent,
             "r_squared": fit.r_squared, "window": args.window,
             "points": len(fit.times), "n_cut": point[0]["n_cut"]}]
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def cmd_converge(args) -> int:
    params = args.param or list(MODEL_PARAMS[args.model])
    n_cuts = [int(n) for n in args.ncuts.split(",")]
    if any(b <= a for a, b in zip(n_cuts, n_cuts[1:])):
        raise ValueError(f"n_cuts must be strictly increasing, got {n_cuts}")
    points = [_point_rows(_scan_spec(args, [args.t], n), params)[0] for n in n_cuts]
    rows = []
    for point, previous in zip(points, [{}] + points):
        row = {"n_cut": point["n_cut"]}
        for p in params:
            value, last = point[f"qfi_{p}"], previous.get(f"qfi_{p}")
            row[f"qfi_{p}"] = value
            row[f"rel_change_{p}"] = abs(value - last) / abs(last) if last else float("nan")
        rows.append(row)
    write_table(rows, list(rows[0]), args.out, args.format)
    return EXIT_OK


def stepsize_study(model, param, probe, t, deltas, n_cut) -> list[dict]:
    """QFI(delta) from a central difference of the Floquet propagator
    `evolve`, a 5-point local standard deviation per delta, and its error
    against the exact QFI of an `EstimationSession` at the same point and
    n_cut.  Every shifted spectrum is built at the n_cut that x0's resolves
    to and solved on x0's block (its window, or the whole matrix), so no
    difference straddles two truncations or two solves."""
    x0, psi = _param_value(model, param), _as_probe(probe, model.levels)
    center = diagonalize(build_floquet_matrix(model, n_cut))

    def u_at(x):
        spectrum = _solve(build_floquet_matrix(
            model.with_params(**{param: x}), center.n_cut), center.window)
        return evolve(spectrum, t).u_matrix

    u0_dag = evolve(center, t).u_matrix.conj().T
    h = np.array([1j * u0_dag @ (u_at(x0 + d) - u_at(x0 - d)) / (2 * d)
                  for d in deltas])
    values = _gram(0.5 * (h + h.conj().swapaxes(1, 2))[:, None], psi)[1][:, 0, 0]
    exact = EstimationSession(model, [param], n_cut).evaluate(psi, [t]).qfi[0, 0, 0]
    rows = []
    for i, d in enumerate(deltas):
        lo, hi = max(0, i - 2), min(len(deltas), i + 3)
        rows.append({"delta": float(d), "qfi": float(values[i]),
                     "local_std": float(np.std(values[lo:hi])),
                     "abs_error": float(abs(values[i] - exact))})
    return rows


def cmd_stepsize(args) -> int:
    model = make_model(args.model, _model_values(args))
    probe = parse_probe(args.probe)
    deltas = np.asarray([float(d) for d in args.deltas.split(",")])
    span = math.log10(deltas.max() / deltas.min())
    if span < 3:
        raise ValueError(f"step-size study should span >= 3 decades, got {span:.1f}")
    rows = stepsize_study(model, args.param, probe, args.t, deltas, args.ncut)
    write_table(rows, ["delta", "qfi", "local_std", "abs_error"], args.out, args.format)
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
    model, samples = _propagators(args)
    cfg = OracleConfig(step_count=args.steps, scheme=args.scheme)
    rows = []
    for t, sample in samples:
        u_d = propagate_direct(model.h_at, t, cfg)
        rows.append({"time": t,
                     "max_diff": float(np.max(np.abs(sample.u_matrix - u_d))),
                     "floquet_defect": sample.truncation_defect,
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
    name, _, grid = spec.partition("=")
    lo, hi, points = _grid_spec(spec, grid, "PARAM=lo:hi:points")
    if points < 2:
        raise ValueError(f"sweep {name!r} needs at least 2 points")
    return name, lo, hi, points


def parse_n_cut(text: str) -> int | str:
    """--ncut value: 'auto' or an integer."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer or 'auto'") from None


def _times(args) -> list[float]:
    if args.t_grid:
        return [float(t) for t in parse_grid(args.t_grid)]
    return [args.t]


def _scan_spec(args, times, n_cut, sweeps=(), jobs: int = 1) -> ScanSpec:
    values = _model_values(args)
    fixed = {n: values[n] for n in MODEL_PARAMS[args.model]}
    return ScanSpec(
        model=args.model, sweeps=list(sweeps), fixed=fixed, times=times,
        n_cut=n_cut, probe=args.probe, jobs=jobs)


class _AppendOverDefault(argparse._AppendAction):
    """`append` whose first command-line value replaces the default list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is self.default:
            setattr(namespace, self.dest, [])
        super().__call__(parser, namespace, values, option_string)


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


# Each subcommand names the shared flags it reads and matches flags exactly,
# so one it lacks is rejected, not read as a longer one (--delta as --deltas).
SHARED_FLAGS = {
    "--model": dict(default="rashba", choices=sorted(MODEL_PARAMS)),
    "--b0": dict(type=float, default=0.5),
    "--b1": dict(type=float, default=0.5),
    "--b": dict(type=float, default=0.5),
    "--omega": dict(type=float, default=1.0),
    "--ncut": dict(type=parse_n_cut, default=DEFAULT_N_CUT),
    "--probe": dict(default="gs-h0"),
    "--t": dict(type=float, default=2 * math.pi),
    "--t-grid": dict(default=None, help="start:stop:points time grid"),
    "--jobs": dict(type=int, default=1),
    "--out": dict(default=None),
    "--format": dict(default="csv", choices=("csv", "json")),
}
MODEL_FLAGS = "--model --b0 --b1 --b --omega"
RASHBA_FLAGS = "--b0 --b1 --omega"
OUTPUT_FLAGS = "--out --format"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqmet",
        description="Floquet multiparameter-estimation toolbox")
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flag_groups):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in " ".join(flag_groups).split():
            p.add_argument(flag, **SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("build", cmd_build, "assemble the Floquet matrix",
            MODEL_FLAGS, "--ncut", OUTPUT_FLAGS)
    command("evolve", cmd_evolve, "propagator samples",
            MODEL_FLAGS, "--ncut --t --t-grid", OUTPUT_FLAGS)
    command("qfi", cmd_qfi, "single-point estimation report",
            MODEL_FLAGS, "--ncut --probe --t --t-grid", OUTPUT_FLAGS)

    p = command("scan", cmd_scan, "parameter scan", MODEL_FLAGS, "--ncut",
                "--probe --t --t-grid --jobs", OUTPUT_FLAGS)
    p.add_argument("--sweep", action=_AppendOverDefault, default=[],
                   metavar="PARAM=lo:hi:points", required=True)

    p = command("scaling", cmd_scaling,
                "QFI-vs-time power-law fit (needs --t-grid)",
                MODEL_FLAGS, "--ncut --probe --t-grid", OUTPUT_FLAGS)
    p.add_argument("--param", required=True)
    p.add_argument("--window", default="raw", choices=("raw", "local-mean"))
    p.add_argument("--smooth-window", type=int, default=DEFAULT_SMOOTH_WINDOW)

    p = command("converge", cmd_converge, "truncation convergence table",
                MODEL_FLAGS, "--probe --t", OUTPUT_FLAGS)
    p.add_argument("--param", action=_AppendOverDefault, default=None)
    p.add_argument("--ncuts", default="10,20,30,40,50,51")

    p = command("stepsize", cmd_stepsize, "finite-difference step study",
                MODEL_FLAGS, "--ncut --probe --t", OUTPUT_FLAGS)
    p.add_argument("--param", required=True)
    p.add_argument("--deltas",
                   default="1e-9,3e-9,1e-8,3e-8,1e-7,3e-7,1e-6,3e-6,"
                           "1e-5,3e-5,1e-4,3e-4,1e-3")

    command("winding", cmd_winding, "Rashba winding number",
            RASHBA_FLAGS, OUTPUT_FLAGS)

    p = command("phase", cmd_phase, "geometric/dynamical phase report",
                RASHBA_FLAGS, OUTPUT_FLAGS)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--quad-points", type=int, default=1024)

    p = command("oracle-check", cmd_oracle_check,
                "Floquet vs direct-propagation comparison",
                MODEL_FLAGS, "--ncut --t --t-grid", OUTPUT_FLAGS)
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--scheme", default="midpoint-exponential",
                   choices=("midpoint-exponential", "rk4"))

    p = command("units", cmd_units, "dimensionless-to-physical field mapping",
                OUTPUT_FLAGS)
    p.add_argument("--f-ghz", type=float, required=True)
    p.add_argument("--g-factor", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # read --config alone first: a flag it supplies may be a required one
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    if config_path:
        config = _read_config(config_path)
        unused = set(config)
        for sub in parser._subparsers._group_actions[0].choices.values():
            for action in sub._actions:
                if action.dest in config and action.dest != "help":
                    action.default, action.required = config[action.dest], False
                    if isinstance(action, _AppendOverDefault):  # "a b" -> 2
                        action.default = action.default.split()
                    unused.discard(action.dest)
        if unused:
            parser.error(f"config key(s) {', '.join(sorted(unused))} name no "
                         "flag of any subcommand")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
