"""Truncated Floquet Hamiltonian construction in the extended (Sambe) space.

A time-periodic Hamiltonian H(t) = sum_n H^(n) exp(i n w t) is lifted to a
time-independent block matrix whose entry at (level gamma, Fourier index k;
level beta, Fourier index m) is H^(k-m)_{gamma beta} + k w delta_km delta_gb.
The Fourier axis is truncated to |k| <= n_cut.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

HERMITICITY_TOL = 1e-12
AUTO_MARGIN = 12  # sectors added to sum_n |H^(n)| / omega for an "auto" first n_cut
# The smallest "auto" first n_cut.  Rashba drives up to (b0, b1) = (7.5, 5)
# need at most 34, so they all resolve at this one n_cut in one eigh: a sweep's
# rows share one truncation, and its cost does not follow the drive.  At two
# levels (dim 146) a scan row costs about two thirds of one at n_cut 50.
AUTO_MIN_N_CUT = 36
AUTO_MAX_N_CUT = 400  # the largest "auto" n_cut (dim 1602 at two levels)


class FloquetBuildError(ValueError):
    """Raised when a Floquet matrix cannot be assembled as requested."""


def _time_errors(times) -> list:
    """Per time: None, or the ValueError naming it if it is negative or not finite."""
    return [None if 0 <= t < np.inf else
            ValueError(f"t={t!r} must be finite and non-negative")
            for t in np.asarray(times, dtype=float).reshape(-1).tolist()]


def _check_times(times) -> None:
    """Raise the ValueError naming the first of `times` that is negative or not finite."""
    for error in filter(None, _time_errors(times)):
        raise error


@dataclass(frozen=True)
class PeriodicHamiltonian:
    """An N-level time-periodic Hamiltonian specified by Fourier components.

    `fourier_component(n, params)` must return the N x N matrix multiplying
    exp(i n omega t); it must vanish for |n| > max_harmonic and satisfy
    H^(-n) = H^(n)^dagger so that H(t) is Hermitian.  The to-be-estimated
    parameters live in `params`; if the drive frequency itself is estimated
    it must appear there under the key "omega".
    """

    levels: int
    omega: float
    params: dict
    fourier_component: Callable[[int, Mapping[str, float]], np.ndarray]
    max_harmonic: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"need at least 2 levels, got {self.levels}")
        if self.omega <= 0:
            raise ValueError(f"drive frequency must be positive, got {self.omega}")
        if self.max_harmonic < 0:
            raise ValueError("max_harmonic must be non-negative")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def component(self, n: int) -> np.ndarray:
        """H^(n) as a complex array for the current parameter values."""
        h = np.asarray(self.fourier_component(n, self.params), dtype=complex)
        if h.shape != (self.levels, self.levels):
            raise ValueError(f"fourier_component({n}) has shape {h.shape}, "
                             f"expected {(self.levels, self.levels)}")
        return h

    def h_at(self, t) -> np.ndarray:
        """Reassemble H(t) from the Fourier components; an array of times
        gives shape t.shape + (levels, levels)."""
        t = np.asarray(t, dtype=float)[..., None, None]
        h = np.zeros(t.shape[:-2] + (self.levels, self.levels), dtype=complex)
        for n in range(-self.max_harmonic, self.max_harmonic + 1):
            h += self.component(n) * np.exp(1j * n * self.omega * t)
        return h

    def with_params(self, **overrides: float) -> "PeriodicHamiltonian":
        """Copy of the model with some parameters shifted.

        Shifting "omega" also moves the drive frequency, so the k*omega
        ladder of a rebuilt Floquet matrix follows the shift.
        """
        for name in overrides:
            _param_value(self, name)  # a KeyError names an unknown one
        params = dict(self.params)
        params.update(overrides)
        return PeriodicHamiltonian(
            levels=self.levels,
            omega=params.get("omega", self.omega),
            params=params,
            fourier_component=self.fourier_component,
            max_harmonic=self.max_harmonic,
        )

    def check_hermiticity(self) -> None:
        for n in range(self.max_harmonic + 1):
            defect = np.max(np.abs(self.component(-n) - self.component(n).conj().T))
            if defect > HERMITICITY_TOL:
                raise FloquetBuildError(
                    f"Fourier set is not Hermitian: |H(-{n}) - H({n})^dag| = {defect:.3e}")


def _param_value(model: PeriodicHamiltonian, name: str) -> float:
    """model.params[name], with a KeyError naming an unknown parameter."""
    if name not in model.params:
        raise KeyError(f"parameter {name!r} not in model params")
    return model.params[name]


@dataclass
class FloquetMatrix:
    """Dense truncated Floquet Hamiltonian, index (k + n_cut) * levels + gamma.

    `model` is set only when n_cut was "auto": `diagonalize` then rebuilds
    the matrix from it, larger, until its physical modes are resolved.
    """

    n_cut: int
    levels: int
    omega: float
    data: np.ndarray = field(repr=False)
    model: PeriodicHamiltonian | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.levels * (2 * self.n_cut + 1)

    def hermiticity_defect(self) -> float:
        """max |M - M^dag|, taken in row blocks of the upper triangle against
        their mirror columns, so that both stay in cache."""
        d, rows = self.data, 64
        return float(np.max([np.abs(d[i:i + rows, i:] - d[i:, i:i + rows].conj().T).max()
                             for i in range(0, len(d), rows)]))


def first_n_cut(components, omega: float) -> int:
    """"auto"'s first n_cut for the Fourier components H^(n), n = -h..h:
    ceil(sum_n ||H^(n)|| / omega) + AUTO_MARGIN (spectral norms), at least h
    and AUTO_MIN_N_CUT and at most AUTO_MAX_N_CUT."""
    norms = sum(np.linalg.norm(h, 2) for h in components)
    guess = max(len(components) // 2, AUTO_MIN_N_CUT, math.ceil(norms / omega) + AUTO_MARGIN)
    return min(guess, AUTO_MAX_N_CUT)


def build_floquet_matrix(model: PeriodicHamiltonian, n_cut: int | str) -> FloquetMatrix:
    """Assemble the truncated Sambe-space matrix for `model`.

    Block (k, m) is H^(k-m) plus the k*omega identity ladder on the diagonal
    blocks.  Rejects truncations that would drop nonzero couplings.  The
    matrix is real (float64) when every Fourier component is real, as for
    drives with H(t)* = H(-t), and complex otherwise.  n_cut "auto" starts
    from `first_n_cut` and keeps the model, so that `diagonalize` can grow it.
    """
    if isinstance(n_cut, str) and n_cut == "auto":
        components = [model.component(n)
                      for n in range(-model.max_harmonic, model.max_harmonic + 1)]
        return replace(build_floquet_matrix(model, first_n_cut(components, model.omega)),
                       model=model)
    if isinstance(n_cut, bool) or not isinstance(n_cut, (int, np.integer)):
        raise FloquetBuildError(f"n_cut={n_cut!r} must be an integer or 'auto'")
    if n_cut < model.max_harmonic:
        raise FloquetBuildError(
            f"n_cut={n_cut} would drop couplings up to harmonic {model.max_harmonic}")
    model.check_hermiticity()

    nl, ns = model.levels, 2 * n_cut + 1
    harmonics = range(-model.max_harmonic, model.max_harmonic + 1)
    components = np.array([model.component(n) for n in harmonics])
    if not components.imag.any():
        components = components.real
    data = np.zeros((ns, nl, ns, nl), dtype=components.dtype)
    blocks = data.transpose(0, 2, 1, 3)  # [k, m, gamma, beta], a view of data
    for n, h in zip(harmonics, components):
        k = np.arange(max(n, 0), ns + min(n, 0))
        blocks[k, k - n] = h
    k = np.arange(ns)
    blocks[k, k] += (k - n_cut)[:, None, None] * model.omega * np.eye(nl)
    data = data.reshape(ns * nl, ns * nl)
    return FloquetMatrix(n_cut=n_cut, levels=nl, omega=model.omega, data=data)


def fourier_components_from_timedomain(
    h_of_t: Callable[[float], np.ndarray],
    omega: float,
    max_harmonic: int,
    quad_points: int,
) -> dict[int, np.ndarray]:
    """Fourier components H^(n) = (1/T) int_0^T H(t) exp(-i n w t) dt.

    Uniform trapezoidal quadrature on the periodic grid (equivalent to the
    midpoint/rectangle rule here), so convergence is spectral for smooth H.
    """
    if quad_points < 4 * max_harmonic + 4:
        raise ValueError(
            f"quad_points={quad_points} below Nyquist requirement "
            f"{4 * max_harmonic + 4}")
    period = 2.0 * np.pi / omega
    ts = np.arange(quad_points) * (period / quad_points)
    samples = np.array([np.asarray(h_of_t(t), dtype=complex) for t in ts])
    components: dict[int, np.ndarray] = {}
    for n in range(-max_harmonic, max_harmonic + 1):
        weights = np.exp(-1j * n * omega * ts) / quad_points
        components[n] = np.tensordot(weights, samples, axes=(0, 0))
    # symmetrize away residual quadrature noise
    for n in range(max_harmonic + 1):
        avg = 0.5 * (components[n] + components[-n].conj().T)
        components[n] = avg
        components[-n] = avg.conj().T
    return components


def periodic_hamiltonian_from_timedomain(
    h_of_t: Callable[[float], np.ndarray],
    omega: float,
    max_harmonic: int,
    quad_points: int = 256,
    params: dict | None = None,
) -> PeriodicHamiltonian:
    """Wrap a time-domain Hamiltonian into a PeriodicHamiltonian.

    The Fourier components are frozen at construction, so the model's params
    other than "omega" are labels: asking for a component at another value of
    one, as a derivative in it does, raises a ValueError naming it.  "omega"
    moves only the k*omega ladder and the e^{i n omega t} phases.
    """
    components = fourier_components_from_timedomain(
        h_of_t, omega, max_harmonic, quad_points)
    levels = components[0].shape[0]
    labels = {name: value for name, value in (params or {}).items() if name != "omega"}

    def fourier_component(n, at):
        for name, value in labels.items():
            if at[name] != value:
                raise ValueError(
                    f"parameter {name!r} of a time-domain wrapper is a label: its "
                    f"Fourier components were sampled at {name}={value!r}, not "
                    f"{at[name]!r}")
        if abs(n) > max_harmonic:
            return np.zeros((levels, levels), dtype=complex)
        return components[n]

    return PeriodicHamiltonian(
        levels=levels,
        omega=omega,
        params=dict(params or {}),
        fourier_component=fourier_component,
        max_harmonic=max_harmonic,
    )
