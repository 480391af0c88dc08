"""Estimation pipeline: generators split into their Floquet components, QFI
matrix, QFI upper bounds, CFI and incompatibility, from one diagonalization
of the Sambe matrix M.  Generators are initial-frame, h = i U^dag dU/dx,
whose probe variances are the QFI of the evolved states.

The certified spectrum's N physical modes (`phi`, `quasienergies`, `u0`, read
by its `modes_at`) give U(t) = sum_a u_a(t) e^{-i eps_a t} u_a(0)^dag, u_a(t) =
sum_k phi_{a,k} e^{ikwt}; every other eigenvector of M is a replica s_m phi_a,
shifted by m sectors, at eps_a + m w (Sambe, PRA 7, 2203 (1973)).
U = R_t e^{-iMt} I_0, with I_0 injecting into sector 0 and R_t = sum_k e^{ikwt}
<k| reading out.  The Daleckii-Krein form of d e^{-iMt}/dx in the replica
basis folds back to the N modes, as dM/dx is block-Toeplitz up to the ladder:

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

Every estimate reads the Gram matrix Q_ij = <h_i h_j> - <h_i><h_j> of the 4P
generators (each parameter's total and three parts) on the probe: the QFI
matrix is 4 Re Q, the incompatibility Im <[h_l, h_m]> = 2 Im Q_lm (Liu et al.,
J. Phys. A 53, 023001 (2020)), a part's QFI 4 Re Q_cc and the coherence share
8 Re of its block's off-diagonal entries.  One pass computes them for a grid
of times; `_check` gives each time one verdict, None or the InvariantViolation
naming its failure, parameter and time, the only report of numerical doubt.
`EstimationSession.evaluate` raises the first, a scan writes each on its own
row, and `estimation_report` is the one-time case.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sambe import PeriodicHamiltonian, _check_times, _param_value, build_floquet_matrix
from .spectral import diagonalize

DEFAULT_N_CUT = "auto"  # grown until resolved: see spectral.diagonalize
DEFAULT_SMOOTH_WINDOW = 21
DECOMPOSITION_TOL = 1e-6
PRESYM_TOL = 1e-4
CFI_PROB_FLOOR = 1e-12
TIME_BLOCK = 32  # times per pass: its temporaries grow as TIME_BLOCK n_cut N^2


class InvariantViolation(RuntimeError):
    """An estimation report failed its internal consistency checks."""


@dataclass
class GeneratorSet:
    """Generator for one parameter and its eigenmode, quasienergy and
    multiphoton components, which sum to the total to roundoff."""

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


def _as_probe(probe, levels: int) -> np.ndarray:
    """A level index in [0, levels) or a unit state vector of length levels."""
    if np.isscalar(probe):
        if not isinstance(probe, (int, np.integer)) or not 0 <= probe < levels:
            raise ValueError(f"probe {probe!r} is not a level index for levels={levels}")
        return np.eye(levels, dtype=complex)[probe]
    psi = np.asarray(probe, dtype=complex)
    if psi.shape != (levels,):
        raise ValueError(f"probe {probe!r} is not a state vector for levels={levels}")
    if not np.isfinite(psi).all():
        raise ValueError(f"probe {probe!r} has a non-finite amplitude")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError(f"probe state is not normalized: |psi| = {np.linalg.norm(psi)}")
    return psi


def _gram(h: np.ndarray, psi: np.ndarray):
    """Gram matrix Q_ij = <h_i h_j> - <h_i><h_j> of stacked Hermitian
    h[..., i, :, :] on psi, with the QFI matrix 4 Re Q and the incompatibility
    2 Im Q.  Each entry reads only h_i, h_j and psi, not the other generators
    or times in the stack."""
    v = h @ psi                                                  # h_i |psi>
    mean = (v @ psi.conj()).real
    q = (np.einsum("...in,...jn->...ij", v.conj(), v)
         - mean[..., :, None] * mean[..., None, :])
    return q, 4.0 * q.real, 2.0 * q.imag


def _qfi_parts(fisher: np.ndarray, params: int) -> np.ndarray:
    """(..., P, 5) total, eigenmode, quasienergy, multiphoton and coherence
    QFI from the QFI matrix of the 4P generators, four per parameter."""
    idx = np.arange(4 * params).reshape(params, 4)
    coherence = fisher[..., idx[:, [1, 1, 2]], idx[:, [2, 3, 3]]].sum(axis=-1)
    return np.concatenate((fisher[..., idx, idx], 2.0 * coherence[..., None]), axis=-1)


def _bounds(totals: np.ndarray) -> np.ndarray:
    """Maximal-spread bound (lam_max - lam_min)^2 of stacked total generators."""
    lam = np.linalg.eigvalsh(totals)
    return (lam[..., -1] - lam[..., 0]) ** 2


def _cfi(u: np.ndarray, du: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Fisher information (T, P) of the level populations of U psi, from U
    (T, N, N) and dU/dx (T, P, N, N).  An outcome below CFI_PROB_FLOOR drops
    out if its |dP| is at most 1e-6; otherwise dP^2 / P has no estimate and
    the CFI is NaN, which `_check` names as undefined."""
    amps = (u @ psi)[:, None]
    probs = np.abs(amps) ** 2
    dprobs = 2.0 * np.real(amps.conj() * (du @ psi))
    keep = probs >= CFI_PROB_FLOOR
    lost = np.where(np.abs(dprobs) > 1e-6, np.nan, 0.0)
    return np.where(keep, dprobs * dprobs / np.where(keep, probs, 1.0), lost).sum(axis=-1)


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


def _drive_derivatives(model: PeriodicHamiltonian, params) -> np.ndarray:
    """dH^(n)/dx_p as (P, 2 max_harmonic + 1, N, N), n ascending from
    -max_harmonic: a central difference with step |x| / 2 (1/2 at x = 0),
    which keeps omega positive and is exact up to roundoff for components at
    most quadratic in x.  A ValueError names a parameter whose difference
    with step |x| / 4 disagrees beyond roundoff; a KeyError an unknown one.
    """
    harmonics = range(-model.max_harmonic, model.max_harmonic + 1)
    out = []
    for p in params:
        x = _param_value(model, p)
        diffs = []
        for step in (0.5 * (abs(x) or 1.0), 0.25 * (abs(x) or 1.0)):
            lo, hi = (model.with_params(**{p: x + s * step}) for s in (-1, 1))
            pairs = np.array([(hi.component(n), lo.component(n)) for n in harmonics])
            diffs.append((pairs[:, 0] - pairs[:, 1]) / (2 * step))
        gap = np.abs(diffs[0] - diffs[1]).max()
        if gap > 1e-12 * np.abs(pairs).max() / step:  # roundoff: eps max|H| / step
            raise ValueError(
                f"dH/d{p} is not exact: central differences with steps "
                f"{2 * step:.6g} and {step:.6g} differ by {gap:.2e}; the Fourier "
                f"components must be at most quadratic in {p!r}")
        out.append(diffs[0])
    return np.array(out).reshape((len(out), len(harmonics)) + (model.levels,) * 2)


def _replica_couplings(phi: np.ndarray, k: np.ndarray, d_h: np.ndarray,
                       params, shifts: np.ndarray) -> np.ndarray:
    """W[p, j, a, b] = <phi_a| dM/dx_p |s_j phi_b> for every j in `shifts`,
    from the modes phi [k, level, mode] on Fourier axis k and d_h from
    `_drive_derivatives`.

    dM/dx convolves the Fourier index with dH^(n)/dx (plus diag(k) for x =
    omega), so W is a correlation over k: zero-padded to L = len(shifts),
    shift j sits at index -j mod L of the inverse FFT.
    """
    size, levels = len(shifts), phi.shape[1]
    phi_hat = np.fft.fft(phi, size, axis=0)              # [f, level, mode]
    reach = d_h.shape[1] // 2
    out = []
    for p, d in zip(params, d_h):
        dm = np.zeros((size, levels, levels), dtype=complex)
        dm[np.arange(-reach, reach + 1) % size] = d
        coupling = np.einsum("fga,fgd,fdb->fab", phi_hat.conj(),
                             np.fft.fft(dm, axis=0), phi_hat)
        if p == "omega":
            coupling += np.einsum("fga,fgb->fab", np.fft.fft(
                k[:, None, None] * phi, size, axis=0).conj(), phi_hat)
        out.append(np.fft.ifft(coupling, axis=0)[-shifts % size])
    return np.array(out).reshape(len(params), size, phi.shape[2], phi.shape[2])


@dataclass
class GridEvaluation:
    """`EstimationSession.evaluate` output: axis 0 time, axis 1 parameter."""

    times: np.ndarray
    probe: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)           # (T, N, N)
    qfi: np.ndarray = field(repr=False)         # (T, P, 5): total, 3 parts, coherence
    qfim: np.ndarray = field(repr=False)        # (T, P, P)
    omega: np.ndarray = field(repr=False)       # (T, P, P)
    bound: np.ndarray = field(repr=False)       # (T, P)
    cfi: np.ndarray = field(repr=False)         # (T, P)
    defects: np.ndarray = field(repr=False)     # (T, P) Hermiticity defects


class EstimationSession:
    """One diagonalization per model point, reused across times: the N
    physical Floquet modes and each parameter's replica couplings.  `n_cut`
    is kept as given ("auto" or an integer); `center.n_cut` is the one used."""

    def __init__(self, model: PeriodicHamiltonian, params,
                 n_cut: int | str = DEFAULT_N_CUT):
        self.model = model
        self.params = list(params)
        if len(set(self.params)) < len(self.params):
            repeats = sorted({p for p in self.params if self.params.count(p) > 1})
            raise ValueError(f"params {self.params} repeat {repeats}")
        self.n_cut = n_cut
        d_h = _drive_derivatives(model, self.params)    # before any Sambe work
        self.center = diagonalize(build_floquet_matrix(model, n_cut))
        phi, k, eps = self.center.phi, self.center.k, self.center.quasienergies
        self._u0_dag = self.center.u0.conj().T
        self._ku0_dag = np.tensordot(k, phi, axes=(0, 0)).conj().T
        reach = 2 * self.center.window + model.max_harmonic
        shifts = np.arange(-reach, reach + 1)
        couplings = _replica_couplings(phi, k, d_h, self.params, shifts)
        self._d_eps = np.diagonal(couplings[:, reach], axis1=1, axis2=2)
        # F^(j)_ab factors in [a, b, j] layout and W^(j)_ab as [ab, j, p], for
        # the replicas j whose couplings rise above the FFT roundoff eps max|W|
        size = np.abs(couplings).max(axis=(0, 2, 3), initial=0.0)
        shifts = shifts[size > np.finfo(float).eps * size.max()]
        self._half_shift = -0.5j * shifts * model.omega
        self._half_gap = 0.5 * (eps[:, None, None] - eps[:, None] - shifts * model.omega)
        self._w = np.ascontiguousarray(couplings[:, shifts + reach].transpose(
            2, 3, 1, 0).reshape(len(eps) ** 2, len(shifts), len(self.params)))

    def _derivatives(self, times: np.ndarray):
        """U(t) (T, N, N) and dU/dx (T, P, 4, N, N): the total, then its eigenmode,
        quasienergy and multiphoton parts as in the module docstring."""
        t, (levels, m) = times[:, None, None], self.center.phi.shape[1:]
        tf = t[..., None]
        u_t, ku_t, g = self.center.modes_at(times)
        ug = u_t * g[:, None]
        half = np.exp(-0.5j * self.center.quasienergies * t[:, 0])
        y = self._half_gap * tf
        y = np.where(y, y, 1e-300)                             # sinc(0) = 1
        f = ((-1j * t * half[:, :, None] * half[:, None, :])[..., None]
             * np.exp(self._half_shift * tf) * (np.sin(y) / y))  # [t, a, b, j]
        c = (f.reshape(len(times), m * m, 1, -1) @ self._w).reshape(
            len(times), m, m, -1).transpose(0, 3, 1, 2)        # [t, p, a, b]
        quasi = self._d_eps * (-1j * t * g[:, None])           # [t, p, a]
        diag = np.arange(m)
        c[..., diag, diag] -= quasi
        du = np.zeros(c.shape[:2] + (4, levels, levels), dtype=complex)
        du[:, :, 1] = u_t[:, None] @ c @ self._u0_dag
        du[:, :, 2] = (u_t[:, None] * quasi[:, :, None]) @ self._u0_dag
        if "omega" in self.params:
            i = self.params.index("omega")
            x = -1j * t * ug @ self._ku0_dag
            du[:, i, 2] -= x
            du[:, i, 3] = 1j * t * (ku_t * g[:, None]) @ self._u0_dag + x
        du[:, :, 0] = du[:, :, 1] + du[:, :, 2] + du[:, :, 3]
        return ug @ self._u0_dag, du

    def _generators(self, times: np.ndarray):
        """U, dU/dx, the Hermitian generators i U^dag dU/dx (T, P, 4, N, N)
        and the Hermiticity defect (T, P) of each total before symmetrizing."""
        u, du = self._derivatives(times)
        raw = (1j * u.conj().swapaxes(1, 2))[:, None, None] @ du
        raw_dag = raw.conj().swapaxes(-1, -2)
        defects = np.abs(raw - raw_dag)[:, :, 0].max(axis=(-2, -1))
        return u, du, 0.5 * (raw + raw_dag), defects

    def evaluate(self, probe, times) -> GridEvaluation:
        """Every estimate at each of `times`, in one vectorised pass per block
        of TIME_BLOCK times; a time's values do not depend on the other times.
        The probe and times are checked before any work and the invariants (see
        `_check`) before anything is returned, naming the first failing time."""
        psi = _as_probe(probe, self.model.levels)
        times = np.asarray(times, dtype=float).reshape(-1)
        if not times.size:
            raise ValueError("evaluate needs at least one time")
        _check_times(times)
        grid, verdicts = self._grid(psi, times)
        for verdict in filter(None, verdicts):
            raise verdict
        return grid

    def _grid(self, psi: np.ndarray, times: np.ndarray):
        """`evaluate` of a checked probe and times, returning each time's verdict
        (None or its InvariantViolation)."""
        out = []
        for start in range(0, len(times), TIME_BLOCK):
            block = times[start:start + TIME_BLOCK]
            with np.errstate(over="ignore", invalid="ignore"):  # _check names it
                u, du, h, defects = self._generators(block)
                _, fisher, omega = _gram(h.reshape((len(block), -1) + u.shape[1:]), psi)
                out.append((u, _qfi_parts(fisher, len(self.params)),
                            fisher[:, ::4, ::4], omega[:, ::4, ::4],
                            _bounds(h[:, :, 0]), _cfi(u, du[:, :, 0], psi), defects))
        grid = GridEvaluation(times, psi, *(out[0] if len(out) == 1 else
                                            map(np.concatenate, zip(*out))))
        return grid, _check(grid, self.params)

    def _index(self, param: str) -> int:
        if param not in self.params:
            raise KeyError(f"parameter {param!r} not in session params {self.params}")
        return self.params.index(param)

    def generator_set(self, param: str, t: float) -> GeneratorSet:
        """The generators of `param` at t, unchecked: their Hermiticity defect
        is `presym_defect`, which `evaluate` bounds by PRESYM_TOL."""
        i = self._index(param)
        _check_times(t)
        _, _, h, defects = self._generators(np.array([t]))
        return GeneratorSet(param, t, *h[0, i], presym_defect=float(defects[0, i]))

    def cfi(self, param: str, t: float, probe) -> float:
        """CFI of the projective measurement in the bare level basis (for two
        levels, the two outcomes {|1><1|, 1 - |1><1|}) at t a positive multiple
        of the drive period 2 pi / omega; for general t see `evaluate`."""
        _check_times(t)
        i = self._index(param)
        cycles = t / self.model.period
        if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
            raise ValueError(
                f"t={t:.6g} is not a positive multiple of the drive period "
                f"{self.model.period:.6g}; use evaluate(probe, [t]).cfi for general t")
        return float(self.evaluate(probe, [t]).cfi[0, i])


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
    qfim: np.ndarray = field(repr=False)  # QFI matrix over the params, in order
    probe: np.ndarray = field(repr=False)
    time: float = 0.0
    n_cut: int = 0  # the truncation used

    def omega_matrix_entry(self, l: str, lp: str) -> float:
        if l == lp:
            return 0.0
        if (l, lp) in self.incompatibility:
            return self.incompatibility[(l, lp)]
        return -self.incompatibility[(lp, l)]


def qfi(gen: GeneratorSet, probe) -> ParameterEstimate:
    """QFI with its component breakdown from one generator set: the
    one-parameter case of the report's Gram matrix."""
    h = np.array([gen.total, gen.eigenmode, gen.quasienergy, gen.multiphoton])
    parts = _qfi_parts(_gram(h, _as_probe(probe, len(h[0])))[1], 1)[0]
    return ParameterEstimate(*map(float, parts), float(_bounds(gen.total)),
                             float("nan"), gen.presym_defect)


def incompatibility(gen_l: GeneratorSet, gen_lp: GeneratorSet, probe) -> float:
    """Weak-commutation value Im <psi|[h_l, h_lp]|psi>; antisymmetric."""
    if gen_l.time != gen_lp.time:
        raise ValueError("generators must be evaluated at the same time")
    h = np.array([gen_l.total, gen_lp.total])
    return float(_gram(h, _as_probe(probe, len(h[0])))[2][0, 1])


def estimation_report(model: PeriodicHamiltonian, params, probe, t: float,
                      n_cut: int | str | None = None,
                      session: EstimationSession | None = None) -> EstimationReport:
    """Estimation record for one (model, time) point: the one-time case of
    `EstimationSession.evaluate`, checked the same way.  A `session` given is
    reused; the other arguments given (not None) must then match it."""
    if session is None:
        session = EstimationSession(
            model, params, DEFAULT_N_CUT if n_cut is None else n_cut)
    else:
        for name, value in (("model", model), ("params", list(params)),
                            ("n_cut", n_cut)):
            if value is not None and value != getattr(session, name):
                raise ValueError(f"{name}={value!r} differs from the session's "
                                 f"{getattr(session, name)!r}")
    grid = session.evaluate(probe, [t])
    names, omega = session.params, grid.omega[0].tolist()
    estimates = {p: ParameterEstimate(*parts, bound, cfi, defect)
                 for p, parts, bound, cfi, defect in zip(
                     names, grid.qfi[0].tolist(), grid.bound[0].tolist(),
                     grid.cfi[0].tolist(), grid.defects[0].tolist())}
    incomp = {(l, names[j]): omega[i][j]
              for i, l in enumerate(names) for j in range(i + 1, len(names))}
    return EstimationReport(estimates=estimates, incompatibility=incomp,
                            qfim=grid.qfim[0], probe=grid.probe, time=t,
                            n_cut=session.center.n_cut)


def _check(grid: GridEvaluation, params) -> list:
    """Per time: None, or the InvariantViolation of its first failing (param,
    check): CFI defined (see `_cfi`), finite, decomposition identity, QFI in
    [0, bound], CFI below QFI, generator Hermiticity defect within PRESYM_TOL."""
    total = grid.qfi[..., 0]
    defect = np.abs(total - grid.qfi[..., 1:].sum(axis=-1))
    finite = np.isfinite(total) & np.isfinite(grid.bound)
    bad = np.array((finite & np.isnan(grid.cfi), ~(finite & np.isfinite(grid.cfi)),
                    defect > DECOMPOSITION_TOL, total < -1e-9,
                    total > grid.bound + DECOMPOSITION_TOL,
                    grid.cfi > total + DECOMPOSITION_TOL,
                    grid.defects > PRESYM_TOL)).transpose(1, 2, 0)
    verdicts = [None] * len(grid.times)
    for j, i, kind in list(zip(*bad.nonzero()))[::-1]:  # each time's first failure last
        p, value, bound, cfi = params[i], total[j, i], grid.bound[j, i], grid.cfi[j, i]
        message = (f"CFI for {p!r} is undefined: an outcome with probability below "
                   f"{CFI_PROB_FLOOR} has a derivative above 1e-6",
                   f"non-finite QFI {value}, bound {bound} or CFI {cfi} for {p!r}",
                   f"QFI decomposition defect {defect[j, i]:.2e} for {p!r} exceeds "
                   f"{DECOMPOSITION_TOL}", f"negative QFI {value} for {p!r}",
                   f"QFI {value} exceeds its upper bound {bound} for {p!r}",
                   f"CFI {cfi} exceeds QFI {value} for {p!r}",
                   f"generator Hermiticity defect {grid.defects[j, i]:.2e} for {p!r} "
                   f"exceeds {PRESYM_TOL}")[kind]
        verdicts[j] = InvariantViolation(f"{message} at t={float(grid.times[j])!r}")
    return verdicts
