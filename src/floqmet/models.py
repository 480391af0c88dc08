"""Built-in physics models: the Rashba ring interferometer and the
rotating-field benchmark with its exact closed forms."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sambe import PeriodicHamiltonian

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Bohr magneton over Planck constant, GHz per tesla
MU_B_OVER_H_GHZ_PER_T = 13.996

FIELD_SINGULARITY_TOL = 1e-12


def _rashba_fourier(n: int, params) -> np.ndarray:
    b0, b1 = params["b0"], params["b1"]
    if n == 0:
        return -b1 * SIGMA_X
    if n == 1:
        return 0.5 * b0 * (SIGMA_X - 1j * SIGMA_Y)
    if n == -1:
        return 0.5 * b0 * (SIGMA_X + 1j * SIGMA_Y)
    return np.zeros((2, 2), dtype=complex)


def _rotating_fourier(n: int, params) -> np.ndarray:
    b = params["b"]
    if n == 1:
        return -0.5 * b * (SIGMA_X - 1j * SIGMA_Z)
    if n == -1:
        return -0.5 * b * (SIGMA_X + 1j * SIGMA_Z)
    return np.zeros((2, 2), dtype=complex)


@dataclass(frozen=True)
class RashbaModel:
    """Ring-shaped Rashba spin-orbit interferometer.

    H(t) = B0 [cos(wt) sx + sin(wt) sy] - B1 sx.  The in-plane field winds
    around zero when B0 > B1 and misses it when B0 < B1; the two regimes are
    separated by a topological transition at B0 = B1.
    """

    b0: float
    b1: float
    omega: float = 1.0

    def __post_init__(self):
        if self.b0 < 0 or self.b1 < 0:
            raise ValueError("field strengths must be non-negative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def hamiltonian(self) -> PeriodicHamiltonian:
        return PeriodicHamiltonian(
            levels=2,
            omega=self.omega,
            params={"b0": self.b0, "b1": self.b1, "omega": self.omega},
            fourier_component=_rashba_fourier,
            max_harmonic=1,
        )

    def h_at(self, t) -> np.ndarray:
        """H(t); an array of times gives shape t.shape + (2, 2)."""
        wt = self.omega * np.asarray(t, dtype=float)
        h = np.zeros(wt.shape + (2, 2), dtype=complex)
        h[..., 0, 1] = self.b0 * np.exp(-1j * wt) - self.b1
        h[..., 1, 0] = h[..., 0, 1].conj()
        return h


@dataclass(frozen=True)
class RotatingFieldModel:
    """Spin-1/2 in a rotating field, H(t) = -B [cos(wt) sx + sin(wt) sz].

    Closed-form generators, QFI upper bounds, and incompatibility are known
    at t = T, which makes this the analytical oracle for the Floquet path.
    """

    b: float
    omega: float = 1.0

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("field strength must be non-negative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def hamiltonian(self) -> PeriodicHamiltonian:
        return PeriodicHamiltonian(
            levels=2,
            omega=self.omega,
            params={"b": self.b, "omega": self.omega},
            fourier_component=_rotating_fourier,
            max_harmonic=1,
        )

    def h_at(self, t) -> np.ndarray:
        """H(t); an array of times gives shape t.shape + (2, 2)."""
        wt = self.omega * np.asarray(t, dtype=float)
        h = np.empty(wt.shape + (2, 2), dtype=complex)
        h[..., 0, 0] = -self.b * np.sin(wt)
        h[..., 1, 1] = -h[..., 0, 0]
        h[..., 0, 1] = h[..., 1, 0] = -self.b * np.cos(wt)
        return h


# ---------------------------------------------------------------------------
# Rashba topology diagnostics
# ---------------------------------------------------------------------------

def total_field(model: RashbaModel, t) -> np.ndarray:
    """|B(t)| = sqrt(B0^2 + B1^2 - 2 B0 B1 cos(wt))."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(model.b0 ** 2 + model.b1 ** 2
                   - 2 * model.b0 * model.b1 * np.cos(model.omega * t))


def instantaneous_spectrum(model: RashbaModel, t):
    """Instantaneous eigenvalues (E_minus, E_plus) of H(t)."""
    b = total_field(model, t)
    return -b, b


def driving_curvature(model: RashbaModel, t):
    """K(t) = -d theta/dt for the in-plane field angle theta(t).

    Analytic form K = -w B0 (B0 - B1 cos wt) / |B(t)|^2, obtained by
    differentiating the continuously unwrapped two-argument angle.
    Undefined where the total field vanishes.
    """
    t = np.asarray(t, dtype=float)
    b_sq = (model.b0 ** 2 + model.b1 ** 2
            - 2 * model.b0 * model.b1 * np.cos(model.omega * t))
    if np.any(b_sq < FIELD_SINGULARITY_TOL ** 2):
        raise ValueError("driving curvature undefined at a field degeneracy "
                         f"(|B| < {FIELD_SINGULARITY_TOL} on the requested times)")
    num = -model.omega * model.b0 * (model.b0 - model.b1 * np.cos(model.omega * t))
    out = num / b_sq
    return out if out.ndim else float(out)


def winding_number_exact(model: RashbaModel) -> float:
    """Closed-form (pre-rounding) winding number of the field angle.

    The curvature integral over one period evaluates, in the full-period
    limit, to -1/2 - sign(B0 - B1)/2: the angle winds once (clockwise, hence
    -1) when the Rashba field dominates and encloses zero, and not at all
    when the Zeeman field dominates.
    """
    if model.b0 == model.b1:
        raise ValueError("winding number undefined on the TPT boundary B0 = B1")
    return -0.5 - 0.5 * math.copysign(1.0, model.b0 - model.b1)


def winding_number(model: RashbaModel) -> int:
    """Integer winding number: -1 for B0 > B1, 0 for B0 < B1."""
    return round(winding_number_exact(model))


def winding_number_quadrature(model: RashbaModel, points: int = 512) -> float:
    """(1/2pi) integral of K over one period by trapezoid on the periodic grid."""
    ts = np.arange(points) * (model.period / points)
    k = driving_curvature(model, ts)
    return float(np.sum(k) * model.period / points / (2 * math.pi))


def berry_phase_adiabatic(theta: float = math.pi / 2) -> float:
    """Adiabatic Berry phase, half the solid angle 2 pi (1 - cos theta).

    The default precession-axis angle pi/2 (in-plane axis) gives pi.
    """
    return math.pi * (1.0 - math.cos(theta))


@dataclass
class PhaseReport:
    """Aharonov-Anandan geometric phase, dynamical phase, and their sum."""

    gamma_a: float
    dynamical: float
    quadrature_points: int

    @property
    def total(self) -> float:
        return self.gamma_a + self.dynamical


def total_phase(model: RashbaModel, hbar: float = 1.0,
                quad_points: int = 1024) -> PhaseReport:
    """Non-adiabatic geometric and dynamical phases over one period.

    gamma_A = (1/2) int K dt - (1/2) int hbar K^2 / sqrt(4 B^2 + hbar^2 K^2) dt
    d       = -(1/hbar) int 2 B^2 / sqrt(4 B^2 + hbar^2 K^2) dt

    Uniform trapezoidal quadrature on the periodic grid.  Fails loudly at a
    field degeneracy (B0 = B1 with t = 0 on the grid), where the curvature is
    singular.
    """
    if quad_points < 64:
        raise ValueError("quad_points must be at least 64")
    ts = np.arange(quad_points) * (model.period / quad_points)
    b = total_field(model, ts)
    if np.min(b) < FIELD_SINGULARITY_TOL:
        t_bad = float(ts[np.argmin(b)])
        raise ValueError(f"phase integrand singular at t = {t_bad:.6g} "
                         "(total field vanishes)")
    k = driving_curvature(model, ts)
    root = np.sqrt(4 * b ** 2 + (hbar * k) ** 2)
    dt = model.period / quad_points
    gamma_a = 0.5 * np.sum(k) * dt - 0.5 * np.sum(hbar * k ** 2 / root) * dt
    dyn = -np.sum(2 * b ** 2 / root) * dt / hbar
    return PhaseReport(gamma_a=float(gamma_a), dynamical=float(dyn),
                       quadrature_points=quad_points)


# ---------------------------------------------------------------------------
# Rotating-field closed forms
# ---------------------------------------------------------------------------

def rotating_generator_analytic(model: RotatingFieldModel, param: str,
                                t: float | None = None) -> np.ndarray:
    """Closed-form one-period generator h_B(T) or h_omega(T).

    These are interaction-picture generators int_0^T U^dag (dH/dx) U dt; the
    closed forms hold only at t = T.
    """
    period = model.period
    if t is not None and not math.isclose(t, period, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(f"closed forms are derived at t = T = {period:.6g}, "
                         f"got t = {t:.6g}")
    b, w, big_t = model.b, model.omega, period
    s2 = 4 * b ** 2 + w ** 2
    s = math.sqrt(s2)
    sin_st = math.sin(big_t * s)
    cos_st = math.cos(big_t * s)
    if param == "b":
        cx = -(4 * b ** 2 * big_t / s2 + w ** 2 * sin_st / s ** 3)
        cy = 2 * b * w * (big_t / s2 - sin_st / s ** 3)
        cz = -w * (1 - cos_st) / s2
    elif param == "omega":
        pref = b * (sin_st / s ** 3 - big_t * cos_st / s2)
        cx = pref * w
        cy = pref * 2 * b
        cz = b * (-big_t * sin_st / s + (1 - cos_st) / s2)
    else:
        raise ValueError(f"no closed-form generator for parameter {param!r}")
    return cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z


def rotating_qfi_bound_analytic(model: RotatingFieldModel, param: str) -> float:
    """Closed-form QFI upper bound I^M at t = T for 'b' or 'omega'."""
    b, w, big_t = model.b, model.omega, model.period
    s2 = 4 * b ** 2 + w ** 2
    s = math.sqrt(s2)
    if param == "b":
        return (16 * b ** 2 * big_t ** 2 / s2
                + 8 * w ** 2 * (1 - math.cos(big_t * s)) / s2 ** 2)
    if param == "omega":
        return (4 * b ** 2 * big_t ** 2 / s2
                - 8 * b ** 2 * big_t * math.sin(big_t * s) / s ** 3
                + 8 * b ** 2 * (1 - math.cos(big_t * s)) / s2 ** 2)
    raise ValueError(f"no closed-form bound for parameter {param!r}")


GROUND_PROBE = np.array([1.0, -1.0]) / math.sqrt(2.0)


def rotating_incompatibility_analytic(model: RotatingFieldModel,
                                      t: float | None = None,
                                      probe=None) -> float:
    """Closed-form weak-commutation value Omega_{B omega} at t = T.

    The formula is specific to the probe (|0> - |1>)/sqrt(2); other probes
    must go through the numerical pipeline.
    """
    period = model.period
    if t is not None and not math.isclose(t, period, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("closed form only holds at t = T")
    if probe is not None and not np.allclose(np.asarray(probe, dtype=complex),
                                             GROUND_PROBE, atol=1e-12):
        raise ValueError("closed form is specific to the probe (|0>-|1>)/sqrt(2)")
    b, w, big_t = model.b, model.omega, model.period
    s2 = 4 * b ** 2 + w ** 2
    s = math.sqrt(s2)
    return (8 * b ** 2 * big_t * w * (math.cos(big_t * s) - 1) / s2 ** 2
            + 4 * b ** 2 * big_t ** 2 * w * math.sin(big_t * s) / s ** 3)


def unit_mapping(f_ghz: float, g_factor: float) -> tuple[float, float]:
    """Physical (B_ac, B_dc) in tesla for the omega = 1, B0 = B1 = 0.5 point.

    With energies measured in units of the drive quantum, both fields map to
    f / (13.996 |g*|) tesla.
    """
    if f_ghz <= 0:
        raise ValueError("frequency must be positive")
    if g_factor == 0:
        raise ValueError("g factor must be nonzero")
    field = f_ghz / (MU_B_OVER_H_GHZ_PER_T * abs(g_factor))
    return field, field
