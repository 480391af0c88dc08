"""Finite-difference estimation pipeline: generators, their Floquet-resolved
components, QFI, QFI upper bounds, stroboscopic CFI, and incompatibility.

Derivatives of the propagator are taken by central differences of the full
Sambe-space pipeline at shifted parameter values.  The generator convention
is the initial-frame one, h = i U^dag (dU/dx): probe-state variances of this
operator are the true quantum Fisher information of the evolved-state
family, and it reproduces the rotating-field closed forms directly.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sambe import PeriodicHamiltonian, build_floquet_matrix
from .spectral import FloquetSpectrum, diagonalize
from .propagator import evolve

DEFAULT_N_CUT = 50
DEFAULT_FD_STEP = 1e-6
DEFAULT_SMOOTH_WINDOW = 21
DECOMPOSITION_TOL = 1e-6
PAIRING_ABORT_OVERLAP = 0.5
PAIRING_RELIABLE_OVERLAP = 0.95
PRESYM_WARN = 1e-4
CFI_PROB_FLOOR = 1e-12


class PairingError(RuntimeError):
    """Eigenmode pairing across the finite-difference stencil failed."""


class InvariantViolation(RuntimeError):
    """An estimation report failed its internal consistency checks."""


@dataclass
class GeneratorSet:
    """Generator for one parameter, split into its three Floquet components.

    The split is exact by construction: eigenmode + quasienergy + multiphoton
    telescopes to the central difference of the full propagator, so the total
    equals the component sum to roundoff.  `gauge_reliable` is False when
    near-degenerate modes made the individual components untrustworthy (the
    total stays valid either way).
    """

    param: str
    time: float
    fd_step: float
    total: np.ndarray = field(repr=False)
    eigenmode: np.ndarray = field(repr=False)
    quasienergy: np.ndarray = field(repr=False)
    multiphoton: np.ndarray = field(repr=False)
    presym_defect: float = 0.0
    min_pair_overlap: float = 1.0
    gauge_reliable: bool = True

    def component_sum_defect(self) -> float:
        s = self.eigenmode + self.quasienergy + self.multiphoton
        return float(np.max(np.abs(s - self.total)))


def _hermitize(h: np.ndarray) -> tuple[np.ndarray, float]:
    defect = float(np.max(np.abs(h - h.conj().T)))
    return 0.5 * (h + h.conj().T), defect


def _as_probe(probe, levels: int) -> np.ndarray:
    if np.isscalar(probe):
        psi = np.zeros(levels, dtype=complex)
        psi[int(probe)] = 1.0
        return psi
    psi = np.asarray(probe, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError(f"probe state is not normalized: |psi| = {np.linalg.norm(psi)}")
    return psi


def expectation(op: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(psi.conj() @ op @ psi))


def variance(op: np.ndarray, psi: np.ndarray) -> float:
    return expectation(op @ op, psi) - expectation(op, psi) ** 2


def covariance(a: np.ndarray, b: np.ndarray, psi: np.ndarray) -> float:
    sym = 0.5 * (a @ b + b @ a)
    return expectation(sym, psi) - expectation(a, psi) * expectation(b, psi)


def local_mean(values, window: int = DEFAULT_SMOOTH_WINDOW) -> np.ndarray:
    """Centered moving average with truncated edges (odd window)."""
    values = np.asarray(values, dtype=float)
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    if window > values.size:
        window = values.size if values.size % 2 else values.size - 1
        window = max(window, 1)
    kernel = np.ones(window)
    norm = np.convolve(np.ones_like(values), kernel, mode="same")
    return np.convolve(values, kernel, mode="same") / norm


class _ParameterShift:
    """Paired spectra at x +/- delta for one parameter.

    Only the spectra are kept; the dU/dx contraction reads their eigenvector
    tables directly, so no amplitude table is ever built.
    """

    def __init__(self, model: PeriodicHamiltonian, param: str, n_cut: int,
                 delta: float):
        if delta <= 0:
            raise ValueError("fd step must be positive")
        if param not in model.params:
            raise KeyError(f"parameter {param!r} not in model params")
        self.param = param
        self.delta = delta
        x0 = model.params[param]
        self.model_minus = model.with_params(**{param: x0 - delta})
        self.model_plus = model.with_params(**{param: x0 + delta})
        self.spec_minus = diagonalize(build_floquet_matrix(self.model_minus, n_cut))
        self.spec_plus = diagonalize(build_floquet_matrix(self.model_plus, n_cut))
        self._check_pairing()

    def _check_pairing(self) -> None:
        # sorted-order pairing, verified by eigenvector overlap
        overlaps = np.abs(np.einsum(
            "ia,ia->a", self.spec_minus.eigenvectors.conj(),
            self.spec_plus.eigenvectors))
        interior = self.spec_minus.interior_modes()
        if interior.size:
            self.min_pair_overlap = float(np.min(overlaps[interior]))
        else:
            self.min_pair_overlap = float(np.min(overlaps))
        if interior.size and np.min(overlaps[interior]) < PAIRING_ABORT_OVERLAP:
            worst = interior[np.argmin(overlaps[interior])]
            raise PairingError(
                f"eigenmode pairing failed for param {self.param!r}: interior "
                f"mode {worst} has overlap {overlaps[worst]:.3f} < "
                f"{PAIRING_ABORT_OVERLAP} (near-degenerate subspace; "
                "reduce delta or accept total-only generators)")
        self.gauge_reliable = self.min_pair_overlap >= PAIRING_RELIABLE_OVERLAP


class EstimationSession:
    """Shared diagonalizations for one model point, reusable across times.

    Spectra do not depend on the evaluation time, so scans over t reuse the
    center and shifted spectra computed here.
    """

    def __init__(self, model: PeriodicHamiltonian, params,
                 n_cut: int = DEFAULT_N_CUT, delta: float = DEFAULT_FD_STEP):
        self.model = model
        self.params = list(params)
        self.n_cut = n_cut
        self.delta = delta
        self.center = diagonalize(build_floquet_matrix(model, n_cut))
        self.shifts = {p: _ParameterShift(model, p, n_cut, delta)
                       for p in self.params}

    def propagator(self, t: float) -> np.ndarray:
        return evolve(self.center, t).u_matrix

    def _du_components(self, param: str, t: float):
        """Central-difference dU/dx split exactly into the three components.

        For factors f = B_{alpha k}, g = e^{-i lam t}, h = e^{i k w t}, the
        identity  f+g+h+ - f-g-h- = Df (gh)bar + fbar (Dg hbar + gbar Dh)
        attributes the difference to eigenmodes, quasienergies, and the
        multi-photon ladder without any telescoping error.

        Every weight is rank one in (alpha, k), so each sum over B factors
        through the eigenvector table D[k, gamma, alpha]:
        sum_{alpha,k} B g_alpha h_k = ((sum_k h_k D_k) * g) @ D_0^dagger.
        The tables B are never formed; only the h vectors that differ
        between the two shifted spectra need their own sector sum.
        """
        shift = self.shifts[param]
        sm, sp = shift.spec_minus, shift.spec_plus
        k = np.arange(-self.n_cut, self.n_cut + 1)
        g_m = np.exp(-1j * sm.eigenvalues * t)
        g_p = np.exp(-1j * sp.eigenvalues * t)
        h_m = np.exp(1j * k * sm.omega * t)
        h_p = np.exp(1j * k * sp.omega * t)
        g_bar, dg = 0.5 * (g_p + g_m), g_p - g_m
        ladder_moves = sp.omega != sm.omega  # Dh is identically zero otherwise
        inv = 1.0 / (2.0 * shift.delta)

        # distinct h vectors: h+, h-, hbar, Dh, or the single shared h
        hs = (np.stack([h_p, h_m, 0.5 * (h_p + h_m), h_p - h_m])
              if ladder_moves else h_p[None])
        parts = []
        for spec in (sp, sm):
            view = spec.sector_view()                 # [k, gamma, alpha]
            out = view[self.n_cut].conj().T           # [alpha, beta]
            y = (hs @ view.reshape(view.shape[0], -1)).reshape(
                len(hs), *view.shape[1:])             # [h, gamma, alpha]
            if ladder_moves:
                weights = [0.5 * (y[0] * g_p + y[1] * g_m), y[2] * dg,
                           y[3] * g_bar]
            else:
                weights = [0.5 * (y[0] * g_p + y[0] * g_m), y[0] * dg]
            parts.append(np.stack(weights) @ out)
        plus, minus = parts

        du_eig = (plus[0] - minus[0]) * inv
        du_quasi = 0.5 * (plus[1] + minus[1]) * inv
        if ladder_moves:
            du_mp = 0.5 * (plus[2] + minus[2]) * inv
        else:
            du_mp = np.zeros_like(du_eig)
        return du_eig, du_quasi, du_mp

    def _generator_from(self, param: str, t: float, u0: np.ndarray,
                        parts) -> GeneratorSet:
        """Generator set from U(t) and the three dU/dx components at t."""
        du_eig, du_quasi, du_mp = parts
        u0_dag = u0.conj().T
        total_raw = 1j * u0_dag @ (du_eig + du_quasi + du_mp)
        total, defect = _hermitize(total_raw)
        if defect > PRESYM_WARN:
            warnings.warn(
                f"generator Hermiticity defect {defect:.2e} for {param!r} at "
                f"t={t:.4g}; finite-difference step {self.delta:.1e} may be "
                "pathological", stacklevel=3)
        shift = self.shifts[param]
        return GeneratorSet(
            param=param,
            time=t,
            fd_step=self.delta,
            total=total,
            eigenmode=_hermitize(1j * u0_dag @ du_eig)[0],
            quasienergy=_hermitize(1j * u0_dag @ du_quasi)[0],
            multiphoton=_hermitize(1j * u0_dag @ du_mp)[0],
            presym_defect=defect,
            min_pair_overlap=shift.min_pair_overlap,
            gauge_reliable=shift.gauge_reliable,
        )

    def generator_set(self, param: str, t: float) -> GeneratorSet:
        return self._generator_from(param, t, self.propagator(t),
                                    self._du_components(param, t))

    def cfi(self, param: str, t: float, probe,
            clock_omega: float = 1.0, stroboscopic: bool = True) -> float:
        """CFI of the projective measurement in the bare level basis.

        For a two-level system this equals the two-outcome measurement
        {|1><1|, 1 - |1><1|}.  With `stroboscopic=True`, t must be an
        integer multiple of the clock period 2 pi / clock_omega; the general-t
        value is available by passing stroboscopic=False.
        """
        if stroboscopic:
            t0 = 2.0 * math.pi / clock_omega
            cycles = t / t0
            if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
                raise ValueError(
                    f"t={t:.6g} is not a positive multiple of the clock period "
                    f"{t0:.6g}; use stroboscopic=False for general-t CFI")
        psi = _as_probe(probe, self.model.levels)
        return _level_basis_cfi(self.propagator(t),
                                sum(self._du_components(param, t)), psi)


def _level_basis_cfi(u0: np.ndarray, du: np.ndarray, psi: np.ndarray) -> float:
    """Fisher information of the level populations of U psi, given dU/dx."""
    amps = u0 @ psi
    damps = du @ psi
    probs = np.abs(amps) ** 2
    dprobs = 2.0 * np.real(amps.conj() * damps)
    fisher = 0.0
    for p, dp in zip(probs, dprobs):
        if p < CFI_PROB_FLOOR:
            if abs(dp) > 1e-6:
                warnings.warn(
                    f"outcome with P={p:.1e} but dP={dp:.1e} dropped from "
                    "the CFI sum (sign change through zero probability?)",
                    stacklevel=3)
            continue
        fisher += dp * dp / p
    return float(fisher)


@dataclass
class ParameterEstimate:
    """QFI breakdown, bound, and CFI for a single parameter."""

    qfi_total: float
    qfi_eigenmode: float
    qfi_quasienergy: float
    qfi_multiphoton: float
    qfi_coherence: float
    qfi_upper_bound: float
    cfi: float
    presym_defect: float
    gauge_reliable: bool

    def decomposition_defect(self) -> float:
        parts = (self.qfi_eigenmode + self.qfi_quasienergy
                 + self.qfi_multiphoton + self.qfi_coherence)
        return abs(self.qfi_total - parts)


@dataclass
class EstimationReport:
    """Everything the estimation pipeline knows about one (model, t) point."""

    estimates: dict[str, ParameterEstimate]
    incompatibility: dict[tuple[str, str], float]
    probe: np.ndarray = field(repr=False)
    time: float = 0.0
    n_cut: int = DEFAULT_N_CUT
    fd_step: float = DEFAULT_FD_STEP
    cross_covariances: dict[tuple[str, str], float] | None = None

    def omega_matrix_entry(self, l: str, lp: str) -> float:
        if l == lp:
            return 0.0
        if (l, lp) in self.incompatibility:
            return self.incompatibility[(l, lp)]
        return -self.incompatibility[(lp, l)]


def qfi(gen: GeneratorSet, probe) -> ParameterEstimate:
    """QFI with its component breakdown from one generator set.

    Component QFIs use the same variance formula; the coherence share is
    8 * (sum of pairwise symmetrized covariances), so the four parts sum to
    the total exactly.
    """
    psi = _as_probe(probe, gen.total.shape[0])
    total = 4.0 * variance(gen.total, psi)
    comp = {
        "eigenmode": 4.0 * variance(gen.eigenmode, psi),
        "quasienergy": 4.0 * variance(gen.quasienergy, psi),
        "multiphoton": 4.0 * variance(gen.multiphoton, psi),
    }
    coherence = 8.0 * (
        covariance(gen.eigenmode, gen.quasienergy, psi)
        + covariance(gen.eigenmode, gen.multiphoton, psi)
        + covariance(gen.quasienergy, gen.multiphoton, psi))
    return ParameterEstimate(
        qfi_total=total,
        qfi_eigenmode=comp["eigenmode"],
        qfi_quasienergy=comp["quasienergy"],
        qfi_multiphoton=comp["multiphoton"],
        qfi_coherence=coherence,
        qfi_upper_bound=qfi_upper_bound(gen),
        cfi=float("nan"),
        presym_defect=gen.presym_defect,
        gauge_reliable=gen.gauge_reliable,
    )


def qfi_upper_bound(gen: GeneratorSet) -> float:
    """Maximal-spread bound (lam_max - lam_min)^2 of the total generator."""
    lam = np.linalg.eigvalsh(gen.total)
    return float((lam[-1] - lam[0]) ** 2)


def incompatibility(gen_l: GeneratorSet, gen_lp: GeneratorSet, probe) -> float:
    """Weak-commutation value Im <psi|[h_l, h_lp]|psi>; antisymmetric."""
    if gen_l.time != gen_lp.time:
        raise ValueError("generators must be evaluated at the same time")
    psi = _as_probe(probe, gen_l.total.shape[0])
    comm = gen_l.total @ gen_lp.total - gen_lp.total @ gen_l.total
    return float(np.imag(psi.conj() @ comm @ psi))


def generator(model: PeriodicHamiltonian, param: str, t: float,
              n_cut: int = DEFAULT_N_CUT,
              delta: float = DEFAULT_FD_STEP) -> GeneratorSet:
    """One-shot generator computation (builds a throwaway session)."""
    return EstimationSession(model, [param], n_cut, delta).generator_set(param, t)


def estimation_report(model: PeriodicHamiltonian, params, probe, t: float,
                      n_cut: int = DEFAULT_N_CUT,
                      delta: float = DEFAULT_FD_STEP,
                      clock_omega: float = 1.0,
                      include_cross_covariances: bool = False,
                      session: EstimationSession | None = None) -> EstimationReport:
    """Fully populated estimation record for one (model, time) point.

    Invariants (decomposition identity, QFI within [0, bound], CFI below QFI)
    are asserted before the report is returned; a report is never emitted in
    a violated state.  Pass an existing `session` to reuse diagonalizations
    across times.

    U(t) is evaluated once and each parameter's dU/dx split once; the
    generator and the CFI both read those values.  The CFI is the general-t
    value, so `clock_omega` does not change the report.
    """
    if session is None:
        session = EstimationSession(model, params, n_cut, delta)
    psi = _as_probe(probe, model.levels)
    u0 = session.propagator(t)

    gens: dict[str, GeneratorSet] = {}
    estimates: dict[str, ParameterEstimate] = {}
    for p in session.params:
        parts = session._du_components(p, t)
        gens[p] = session._generator_from(p, t, u0, parts)
        est = qfi(gens[p], psi)
        est.cfi = _level_basis_cfi(u0, sum(parts), psi)
        estimates[p] = est

    incomp = {}
    cross = {} if include_cross_covariances else None
    names = session.params
    for i, l in enumerate(names):
        for lp in names[i + 1:]:
            incomp[(l, lp)] = incompatibility(gens[l], gens[lp], psi)
            if cross is not None:
                cross[(l, lp)] = 4.0 * covariance(gens[l].total,
                                                  gens[lp].total, psi)

    report = EstimationReport(
        estimates=estimates,
        incompatibility=incomp,
        probe=psi,
        time=t,
        n_cut=session.n_cut,
        fd_step=session.delta,
        cross_covariances=cross,
    )
    _check_report(report)
    return report


def _check_report(report: EstimationReport) -> None:
    for p, est in report.estimates.items():
        defect = est.decomposition_defect()
        if defect > DECOMPOSITION_TOL:
            raise InvariantViolation(
                f"QFI decomposition defect {defect:.2e} for {p!r} exceeds "
                f"{DECOMPOSITION_TOL}")
        if est.qfi_total < -1e-9:
            raise InvariantViolation(f"negative QFI {est.qfi_total} for {p!r}")
        if est.qfi_total > est.qfi_upper_bound + DECOMPOSITION_TOL:
            raise InvariantViolation(
                f"QFI {est.qfi_total} exceeds its upper bound "
                f"{est.qfi_upper_bound} for {p!r}")
        if not math.isnan(est.cfi) and est.cfi > est.qfi_total + DECOMPOSITION_TOL:
            raise InvariantViolation(
                f"CFI {est.cfi} exceeds QFI {est.qfi_total} for {p!r}")
