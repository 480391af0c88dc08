"""Estimation pipeline: generators split into their Floquet components, QFI,
QFI upper bounds, stroboscopic CFI and incompatibility, from one
diagonalization of the Sambe matrix M.  Generators are initial-frame,
h = i U^dag dU/dx, whose probe variances are the QFI of the evolved states.

The N physical modes (phi_a, eps_a) of M (`FloquetSpectrum.physical_modes`)
give U(t) = sum_a u_a(t) e^{-i eps_a t} u_a(0)^dag, u_a(t) = sum_k phi_{a,k}
e^{ikwt}; every other eigenvector is a replica s_m phi_a, shifted by m
sectors, at eps_a + m w (Sambe, PRA 7, 2203 (1973)).  U = R_t e^{-iMt} I_0,
with I_0 injecting into sector 0 and R_t = sum_k e^{ikwt} <k| reading out.
The Daleckii-Krein form of d e^{-iMt}/dx in the replica basis folds back to
the N modes, as dM/dx is block-Toeplitz up to the ladder:

    dU/dx = sum_{a,b,j} u_a(t) W^(j)_ab F^(j)_ab u_b(0)^dag + L
    W^(j)_ab = <phi_a| dM/dx |s_j phi_b>,  dM/dx = Sambe matrix of dH^(n)/dx
    F^(j)_ab = -i t e^{-i(A+B)t/2} sinc((A-B)t/2pi),  A = eps_a, B = eps_b + j w

F, the divided difference of e^{-i lam t}, is finite at exact degeneracies.
For x = w, dM/dx gains diag(k) (x) 1 and dR_t/dw adds L = i t sum_a
e^{-i eps_a t} (sum_k k phi_{a,k} e^{ikwt}) u_a(0)^dag; otherwise L = 0.
The components keep the split of U = sum_{lam,k} |k><k|lam><lam|0>
e^{-i lam t} e^{ikwt} over all of M: eigenmode = d(amplitudes), quasienergy
= d lam, multiphoton = d e^{ikwt}.  For x = w, replica (a, m) has d lam =
d eps_a + m, and dR_t/dw gives it the same m; summed over m, these add -X
to the quasienergy and +X to the multiphoton part (X = 0 for x != w), with
X = i t sum_a u_a(t) e^{-i eps_a t} (sum_k (-k) phi_{a,k})^dag.  As W^(0)_aa
= d eps_a/dx (Hellmann-Feynman) and F^(0)_aa = -i t e^{-i eps_a t}, the
quasienergy part is sum_a u_a(t) W^(0)_aa F^(0)_aa u_a(0)^dag - X, the
multiphoton part L + X, the eigenmode part the rest of the W F sum; at
t = l T and x != w, h_quasienergy = l T sum_a (d eps_a/dx) |u_a(0)><u_a(0)|.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sambe import PeriodicHamiltonian, build_floquet_matrix
from .spectral import diagonalize

DEFAULT_N_CUT = 50
DEFAULT_SMOOTH_WINDOW = 21
DECOMPOSITION_TOL = 1e-6
PRESYM_WARN = 1e-4
CFI_PROB_FLOOR = 1e-12


class InvariantViolation(RuntimeError):
    """An estimation report failed its internal consistency checks."""


@dataclass
class GeneratorSet:
    """Generator for one parameter, split into its three Floquet components.

    The split is exact by construction: eigenmode + quasienergy + multiphoton
    sums to the derivative of the propagator, so the total equals the
    component sum to roundoff.
    """

    param: str
    time: float
    total: np.ndarray = field(repr=False)
    eigenmode: np.ndarray = field(repr=False)
    quasienergy: np.ndarray = field(repr=False)
    multiphoton: np.ndarray = field(repr=False)
    presym_defect: float = 0.0

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


def _replica_couplings(model: PeriodicHamiltonian, phi: np.ndarray, params,
                       shifts: np.ndarray) -> np.ndarray:
    """W[p, j, a, b] = <phi_a| dM/dx_p |s_j phi_b> for every j in `shifts`.

    dM/dx convolves the Fourier index with dH^(n)/dx (plus diag(k) for x =
    omega), so W is a correlation over k: zero-padded to L = len(shifts),
    shift j sits at index -j mod L of the inverse FFT.  dH^(n)/dx is a central
    difference with step |x| / 2 (1/2 at x = 0), which keeps omega positive
    and is exact up to roundoff for components at most quadratic in x.
    """
    size, levels = len(shifts), phi.shape[1]
    k = np.arange(len(phi))[:, None, None] - (len(phi) - 1) // 2
    phi_hat = np.fft.fft(phi, size, axis=0)              # [f, level, mode]
    harmonics = np.arange(-model.max_harmonic, model.max_harmonic + 1)
    out = []
    for p in params:
        if p not in model.params:
            raise KeyError(f"parameter {p!r} not in model params")
        x = model.params[p]
        step = 0.5 * (abs(x) or 1.0)
        lo, hi = (model.with_params(**{p: x + s * step}) for s in (-1, 1))
        dm = np.zeros((size, levels, levels), dtype=complex)
        dm[harmonics % size] = [(hi.component(n) - lo.component(n)) / (2 * step)
                                for n in harmonics]
        coupling = np.einsum("fga,fgd,fdb->fab", phi_hat.conj(),
                             np.fft.fft(dm, axis=0), phi_hat)
        if p == "omega":
            coupling += np.einsum("fga,fgb->fab",
                                  np.fft.fft(k * phi, size, axis=0).conj(), phi_hat)
        out.append(np.fft.ifft(coupling, axis=0)[-shifts % size])
    return np.array(out).reshape(len(params), size, phi.shape[2], phi.shape[2])


class EstimationSession:
    """One diagonalization per model point, reused across times: the N
    physical Floquet modes and each parameter's replica couplings."""

    def __init__(self, model: PeriodicHamiltonian, params,
                 n_cut: int = DEFAULT_N_CUT):
        self.model = model
        self.params = list(params)
        self.n_cut = n_cut
        self.center = diagonalize(build_floquet_matrix(model, n_cut))
        modes = self.center.physical_modes()
        self.quasienergies = self.center.eigenvalues[modes]
        self._k = np.arange(-n_cut, n_cut + 1)
        self._phi = self.center.sector_view()[:, :, modes]    # [k, level, mode]
        self._u0_dag = self._phi.sum(axis=0).conj().T
        self._ku0_dag = np.tensordot(self._k, self._phi, axes=(0, 0)).conj().T
        reach = 2 * n_cut + model.max_harmonic
        self._shifts = np.arange(-reach, reach + 1)
        self._couplings = _replica_couplings(model, self._phi, self.params,
                                             self._shifts)
        self._d_eps = np.diagonal(self._couplings[:, reach], axis1=1, axis2=2)

    def _modes_at(self, t: float):  # e^{ikwt}, columns u_a(t), e^{-i eps_a t}
        phase = np.exp(1j * self._k * self.model.omega * t)
        return (phase, np.tensordot(phase, self._phi, axes=(0, 0)),
                np.exp(-1j * self.quasienergies * t))

    def propagator(self, t: float) -> np.ndarray:
        _, u_t, g = self._modes_at(t)
        return (u_t * g) @ self._u0_dag

    def _derivatives(self, t: float):
        """U(t) and, per parameter, dU/dx as its (eigenmode, quasienergy,
        multiphoton) parts, as derived in the module docstring."""
        phase, u_t, g = self._modes_at(t)
        a = self.quasienergies[:, None]
        b = self.quasienergies + self._shifts[:, None, None] * self.model.omega
        f = (-1j * t * np.exp(-0.5j * (a + b) * t)
             * np.sinc((a - b) * t / (2.0 * np.pi)))           # [j, a, b]
        quasi = self._d_eps * (-1j * t * g)                    # [p, a]
        c = np.einsum("pjab,jab->pab", self._couplings, f)
        u = (u_t * g) @ self._u0_dag
        parts = {}
        for i, p in enumerate(self.params):
            du_eig = u_t @ (c[i] - np.diag(quasi[i])) @ self._u0_dag
            du_quasi = (u_t * quasi[i]) @ self._u0_dag
            du_mp = np.zeros_like(u)
            if p == "omega":
                ku_t = np.tensordot(self._k * phase, self._phi, axes=(0, 0))
                x = -1j * t * (u_t * g) @ self._ku0_dag
                du_quasi = du_quasi - x
                du_mp = 1j * t * (ku_t * g) @ self._u0_dag + x
            parts[p] = (du_eig, du_quasi, du_mp)
        return u, parts

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
                f"t={t:.4g}; n_cut={self.n_cut} may be too small",
                stacklevel=3)
        return GeneratorSet(
            param=param,
            time=t,
            total=total,
            eigenmode=_hermitize(1j * u0_dag @ du_eig)[0],
            quasienergy=_hermitize(1j * u0_dag @ du_quasi)[0],
            multiphoton=_hermitize(1j * u0_dag @ du_mp)[0],
            presym_defect=defect,
        )

    def generator_set(self, param: str, t: float) -> GeneratorSet:
        u, parts = self._derivatives(t)
        return self._generator_from(param, t, u, parts[param])

    def cfi(self, param: str, t: float, probe,
            stroboscopic: bool = True) -> float:
        """CFI of the projective measurement in the bare level basis.

        For a two-level system this equals the two-outcome measurement
        {|1><1|, 1 - |1><1|}.  With `stroboscopic=True`, t must be an
        integer multiple of the drive period 2 pi / omega; the general-t
        value is available by passing stroboscopic=False.
        """
        if stroboscopic:
            t0 = self.model.period
            cycles = t / t0
            if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
                raise ValueError(
                    f"t={t:.6g} is not a positive multiple of the drive period "
                    f"{t0:.6g}; use stroboscopic=False for general-t CFI")
        psi = _as_probe(probe, self.model.levels)
        u, parts = self._derivatives(t)
        return _level_basis_cfi(u, sum(parts[param]), psi)


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
              n_cut: int = DEFAULT_N_CUT) -> GeneratorSet:
    """One-shot generator computation (builds a throwaway session)."""
    return EstimationSession(model, [param], n_cut).generator_set(param, t)


def estimation_report(model: PeriodicHamiltonian, params, probe, t: float,
                      n_cut: int | None = None,
                      session: EstimationSession | None = None) -> EstimationReport:
    """Fully populated estimation record for one (model, time) point.

    Invariants (decomposition identity, QFI within [0, bound], CFI below QFI)
    are asserted before the report is returned; a report is never emitted in
    a violated state.  Pass an existing `session` to reuse diagonalizations
    across times; the arguments given (not None) must then match it.

    U(t) and every parameter's dU/dx split are evaluated once; the
    generators and the CFI all read those values.  The CFI is the general-t
    value.
    """
    if session is None:
        session = EstimationSession(
            model, params, DEFAULT_N_CUT if n_cut is None else n_cut)
    else:
        for name, value in (("model", model), ("params", list(params)),
                            ("n_cut", n_cut)):
            if value is not None and value != getattr(session, name):
                raise ValueError(f"{name}={value!r} differs from the session's "
                                 f"{getattr(session, name)!r}")
    psi = _as_probe(probe, model.levels)
    u0, parts = session._derivatives(t)

    gens: dict[str, GeneratorSet] = {}
    estimates: dict[str, ParameterEstimate] = {}
    for p in session.params:
        gens[p] = session._generator_from(p, t, u0, parts[p])
        est = qfi(gens[p], psi)
        est.cfi = _level_basis_cfi(u0, sum(parts[p]), psi)
        estimates[p] = est

    incomp = {}
    names = session.params
    for i, l in enumerate(names):
        for lp in names[i + 1:]:
            incomp[(l, lp)] = incompatibility(gens[l], gens[lp], psi)

    report = EstimationReport(
        estimates=estimates,
        incompatibility=incomp,
        probe=psi,
        time=t,
        n_cut=session.n_cut,
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
