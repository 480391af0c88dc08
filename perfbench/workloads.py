"""The benchmark's workloads: inputs drawn from the seed, one timed op each,
and the correctness checks that run outside the timed region.

Each workload makes one layer dominant:

* ``scan-tpt``: ``run_scan`` across the transition line; every row rebuilds
  its 7 diagonalizations, so Sambe build, ``eigh`` and scan task grouping
  dominate.
* ``time-series``: per-time reports on reused sessions; no
  diagonalization after set-up, so per-time metrology dominates.
* ``deep-truncation``: fresh reports at ``n_cut`` 200 (dim 802), where the
  O(dim^3) ``eigh`` and the 20 MB amplitude tables dominate.
* ``oracle-check``: ``evolve`` against the RK4 oracle, the only workload
  that runs ``reference``.

Functions are called through their modules (``metrology.estimation_report``)
so that the traced run sees every call.
"""
from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from floqmet import cli, metrology, models, propagator, reference, sambe, spectral

PARAMS = list(cli.MODEL_PARAMS["rashba"])  # b0, b1, omega
PROBE = "gs-h0"
OMEGA = 1.0
PERIOD = 2.0 * math.pi / OMEGA
ORACLE = reference.OracleConfig(step_count=20000, scheme="rk4")  # criterion 02
EVOLVE_TOL = 1e-6      # criterion 02: max |U_floquet - U_direct|
GENERATOR_ATOL = 1e-5  # tests/test_metrology.py: Floquet vs direct generator


class Workload:
    """Base: seeded inputs, one-time set-up, a timed op and its checks."""

    name = ""
    n_cut = metrology.DEFAULT_N_CUT
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build the first model and its session or spectrum; timed as setup_s."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Set up the state the ops use, in the measuring process."""

    def op(self, index: int):
        """One timed op; returns what ``verify`` checks."""
        raise NotImplementedError

    def verify(self, index: int, output) -> str | None:
        """Check one op's output, outside its timed interval; None when correct."""
        return None

    def checks(self) -> list[tuple[str, str | None]]:
        """Oracle checks on a seeded sample point: (name, failure or None)."""
        return []

    def inputs(self) -> dict:
        """The inputs drawn from the seed, for the result file."""
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------------

    def _oracle_checks(self, rashba: models.RashbaModel, session, t: float,
                       param: str) -> list[tuple[str, str | None]]:
        u_f = propagator.evolve(session.center, t).u_matrix
        u_d = reference.propagate_direct(rashba.h_at, t, ORACLE)
        evolve_err = float(np.max(np.abs(u_f - u_d)))
        h_f = session.generator_set(param, t).total
        h_d = reference.generator_direct(session.model, param, t, cfg=ORACLE)
        gen_err = float(np.max(np.abs(h_f - h_d)))
        where = f"b0={rashba.b0:.6g} b1={rashba.b1:.6g} t={t:.6g}"
        return [
            (f"evolve vs propagate_direct at {where}",
             None if evolve_err < EVOLVE_TOL else f"max diff {evolve_err:.3e} >= {EVOLVE_TOL}"),
            (f"generator {param} vs generator_direct at {where}",
             None if gen_err <= GENERATOR_ATOL else f"max diff {gen_err:.3e} > {GENERATOR_ATOL}"),
        ]


class ScanTpt(Workload):
    """One op: ``run_scan`` of 8 b0 points across b0 = b1 at t in {T, 2T},
    16 rows, then ``write_table`` to CSV."""

    name = "scan-tpt"
    points = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.b1 = self.rng.uniform(1.0, 5.0)
        self.spec = cli.ScanSpec(
            model="rashba", sweeps=[("b0", 0.5 * self.b1, 1.5 * self.b1, self.points)],
            fixed={"b1": self.b1, "omega": OMEGA}, times=[PERIOD, 2 * PERIOD],
            n_cut=self.n_cut, probe=PROBE, jobs=1)
        self.columns = cli.scan_columns(self.spec)
        self.out = workdir / f"scan-tpt-seed{seed}.csv"
        self.first_csv: bytes | None = None
        self.sample = (self.rng.choice(self.spec.grid_points()),
                       self.rng.choice(self.spec.times), self.rng.choice(PARAMS))

    def inputs(self):
        return {"b1": self.b1, "b0_range": list(self.spec.sweeps[0][1:3]),
                "points": self.points, "times": self.spec.times, "n_cut": self.n_cut,
                "sample": {"point": self.sample[0], "t": self.sample[1],
                           "param": self.sample[2]}}

    def setup(self):
        model = cli.make_model("rashba", self.spec.grid_points()[0])
        return metrology.EstimationSession(model, PARAMS, self.n_cut)

    def op(self, index):
        rows, _failures = cli.run_scan(self.spec)
        cli.write_table(rows, self.columns, str(self.out), "csv")
        return rows

    def verify(self, index, rows):
        errors = [row["error"] for row in rows if row["error"]]
        if len(rows) != self.points * len(self.spec.times):
            return f"expected {self.points * len(self.spec.times)} rows, got {len(rows)}"
        if errors:
            return f"{len(errors)} error rows, first: {errors[0]}"
        csv = self.out.read_bytes()
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            return "CSV differs from the first op's output for the same scan"
        return None

    def checks(self):
        point, t, param = self.sample
        rashba = models.RashbaModel(point["b0"], point["b1"], point["omega"])
        session = metrology.EstimationSession(rashba.hamiltonian(), [param], self.n_cut)
        return self._oracle_checks(rashba, session, t, param)


class TimeSeries(Workload):
    """Set-up: sessions on the transition line B0 = B1.  One op: one
    ``estimation_report(session=...)`` at the next time of a fixed grid over
    (0, 2T].

    The cost of a report depends on B (about 10 % between B = 1 and B = 3),
    so each run draws one B from each quarter of [0.5, 3] and cycles its ops
    over the four sessions: every seed then sees the whole range.
    """

    name = "time-series"
    grid = 64
    sessions = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.bs = [0.5 + 2.5 * (j + self.rng.random()) / self.sessions
                   for j in range(self.sessions)]
        self.times = [2 * PERIOD * (j + 1) / self.grid for j in range(self.grid)]
        self.start = self.rng.randrange(self.grid)
        self.sample = (self.rng.randrange(self.sessions), self.rng.choice(self.times),
                       self.rng.choice(PARAMS))
        self.models = [models.RashbaModel(b, b, OMEGA) for b in self.bs]

    def inputs(self):
        return {"b0=b1": self.bs, "grid": self.grid, "t_max": 2 * PERIOD,
                "start": self.start, "n_cut": self.n_cut,
                "sample": {"b": self.bs[self.sample[0]], "t": self.sample[1],
                           "param": self.sample[2]}}

    def setup(self):
        return metrology.EstimationSession(self.models[0].hamiltonian(), PARAMS, self.n_cut)

    def prepare(self):
        self.built = [metrology.EstimationSession(m.hamiltonian(), PARAMS, self.n_cut)
                      for m in self.models]
        self.probe = cli.parse_probe(PROBE)

    def op(self, index):
        session = self.built[index % self.sessions]
        t = self.times[(self.start + index // self.sessions) % self.grid]
        return metrology.estimation_report(session.model, PARAMS, self.probe, t,
                                           n_cut=self.n_cut, session=session)

    def checks(self):
        j, t, param = self.sample
        return self._oracle_checks(self.models[j], self.built[j], t, param)


class DeepTruncation(Workload):
    """One op: a fresh ``estimation_report`` at a strong-drive point
    B0 = B1 in [8, 10], ``n_cut`` 200 (dim 802), t = T."""

    name = "deep-truncation"
    n_cut = 200
    setup_repeats = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.b = self.rng.uniform(8.0, 10.0)
        self.param = self.rng.choice(PARAMS)
        self.rashba = models.RashbaModel(self.b, self.b, OMEGA)

    def inputs(self):
        return {"b0": self.b, "b1": self.b, "t": PERIOD, "n_cut": self.n_cut,
                "sample": {"t": PERIOD, "param": self.param}}

    def setup(self):
        return metrology.EstimationSession(self.rashba.hamiltonian(), PARAMS, self.n_cut)

    def prepare(self):
        self.probe = cli.parse_probe(PROBE)

    def op(self, index):
        return metrology.estimation_report(self.rashba.hamiltonian(), PARAMS, self.probe,
                                           PERIOD, n_cut=self.n_cut)

    def checks(self):
        session = metrology.EstimationSession(self.rashba.hamiltonian(), [self.param],
                                              self.n_cut)
        return self._oracle_checks(self.rashba, session, PERIOD, self.param)


class OracleCheck(Workload):
    """One op: one time point of the oracle-check path, ``evolve`` against
    RK4 ``propagate_direct`` with 20000 steps, t cycling over
    {T/4, T/2, T, 2T}."""

    name = "oracle-check"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rashba = models.RashbaModel(self.rng.uniform(0.5, 3.0),
                                         self.rng.uniform(0.5, 3.0), OMEGA)
        self.times = [PERIOD / 4, PERIOD / 2, PERIOD, 2 * PERIOD]
        self.start = self.rng.randrange(len(self.times))

    def inputs(self):
        return {"b0": self.rashba.b0, "b1": self.rashba.b1, "times": self.times,
                "start": self.start, "n_cut": self.n_cut, "steps": ORACLE.step_count,
                "scheme": ORACLE.scheme}

    def setup(self):
        matrix = sambe.build_floquet_matrix(self.rashba.hamiltonian(), self.n_cut)
        return spectral.diagonalize(matrix)

    def prepare(self):
        self.spectrum = self.setup()

    def op(self, index):
        t = self.times[(self.start + index) % len(self.times)]
        u_f = propagator.evolve(self.spectrum, t).u_matrix
        u_d = reference.propagate_direct(self.rashba.h_at, t, ORACLE)
        return t, float(np.max(np.abs(u_f - u_d)))

    def verify(self, index, output):
        t, diff = output
        return None if diff < EVOLVE_TOL else f"t={t:.6g}: max diff {diff:.3e} >= {EVOLVE_TOL}"


WORKLOADS = {cls.name: cls for cls in (ScanTpt, TimeSeries, DeepTruncation, OracleCheck)}
