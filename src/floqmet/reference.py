"""Brute-force oracle: direct time-ordered propagation of the Schrodinger
equation, independent of the Sambe-space machinery."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sambe import PeriodicHamiltonian, _check_times, _param_value


@dataclass(frozen=True)
class OracleConfig:
    """Substep count per run and integration scheme.

    midpoint-exponential is norm-preserving per substep; RK4 on U is kept as
    an independent second scheme so the two oracles cross-check each other.
    """

    step_count: int = 20000
    scheme: str = "midpoint-exponential"

    def __post_init__(self):
        if self.step_count < 1:
            raise ValueError("step_count must be positive")
        if self.scheme not in ("midpoint-exponential", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


# Steps per batch: bounds the stacked arrays (h_of_t never sees more than
# 2 * STEP_BLOCK + 1 times) while keeping the Python loop short.
STEP_BLOCK = 512


def _hamiltonians(h_of_t: Callable[[np.ndarray], np.ndarray],
                  times: np.ndarray) -> np.ndarray:
    """H at every time in `times`, broadcast to (len(times), N, N)."""
    h = np.asarray(h_of_t(times), dtype=complex)
    if h.ndim >= 2 and h.shape[-1] == h.shape[-2]:
        try:
            return np.broadcast_to(h, (len(times),) + h.shape[-2:])
        except ValueError:
            pass
    raise ValueError(
        f"h_of_t(times) must return shape (len(times), N, N) or broadcast to it; "
        f"got {h.shape} for {len(times)} times")


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over step-last stacks (N, N, steps), as N broadcast
    multiply-adds: each ufunc loop runs over the steps, not over a length-N
    row, and no BLAS call is made per N x N matrix."""
    out = a[:, 0, None] * b[None, 0]
    for j in range(1, a.shape[0]):
        out += a[:, j, None] * b[None, j]
    return out


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[..., -1] @ ... @ mats[..., 0] over a step-last stack by a pairwise
    product tree (later times on the left)."""
    while mats.shape[-1] > 1:
        even = mats.shape[-1] - mats.shape[-1] % 2
        pairs = _matmul(mats[..., 1:even:2], mats[..., 0:even:2])
        mats = (pairs if even == mats.shape[-1]
                else np.concatenate([pairs, mats[..., even:]], axis=-1))
    return mats[..., 0]


def propagate_direct(h_of_t: Callable[[np.ndarray], np.ndarray], t: float,
                     cfg: OracleConfig = OracleConfig()) -> np.ndarray:
    """U(t) as a time-ordered product of step maps: exp(-i H(mid) dt) per
    step, or the RK4 step map of dU/dt = -iHU.

    `h_of_t` is called with a 1-d array of times and must return H at each of
    them, shape (len(times), N, N); a result that broadcasts to that shape
    (a constant N x N matrix) is accepted.  The steps run in blocks of
    STEP_BLOCK: each block evaluates its Hamiltonians in one call, builds all
    its step matrices at once and multiplies them by a pairwise product tree,
    on step-last (N, N, steps) copies of the stacks.
    """
    _check_times(t)
    dim = _hamiltonians(h_of_t, np.zeros(1)).shape[-1]
    u = np.eye(dim, dtype=complex)
    if t == 0:
        return u
    dt = t / cfg.step_count
    eye = np.eye(dim)[..., None]
    for start in range(0, cfg.step_count, STEP_BLOCK):
        stop = min(start + STEP_BLOCK, cfg.step_count)
        if cfg.scheme == "midpoint-exponential":
            mid = (np.arange(start, stop) + 0.5) * dt
            lam, vec = np.linalg.eigh(_hamiltonians(h_of_t, mid))
            vec = np.ascontiguousarray(vec.transpose(1, 2, 0))
            steps = _matmul(vec * np.exp(-1j * lam.T * dt),
                            vec.conj().transpose(1, 0, 2))
        else:
            # M = -iH on the half-step grid s_0, s_0 + dt/2, ..., s_n
            half = np.arange(2 * start, 2 * stop + 1) * (dt / 2)
            m = -1j * np.ascontiguousarray(
                _hamiltonians(h_of_t, half).transpose(1, 2, 0))
            m0, mh, m1 = m[..., 0:-1:2], m[..., 1::2], m[..., 2::2]
            k2 = _matmul(mh, eye + dt / 2 * m0)
            k3 = _matmul(mh, eye + dt / 2 * k2)
            k4 = _matmul(m1, eye + dt * k3)
            steps = eye + dt / 6 * (m0 + 2 * k2 + 2 * k3 + k4)
        u = _ordered_product(steps) @ u
    return u


def unitarity_defect(u: np.ndarray) -> float:
    """max |u^dag u - 1| of an L x m table (m columns, m = 0 reads 0)."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1])), initial=0))


def generator_direct(model: PeriodicHamiltonian, param: str, t: float,
                     delta: float = 1e-6,
                     cfg: OracleConfig = OracleConfig()) -> np.ndarray:
    """Oracle generator i U^dag (dU/dx) by central differences of the direct
    propagator, Hermitized.  Entirely independent of the Floquet path.

    The initial-frame (interaction-picture) ordering makes probe-state
    variances the true QFI and reproduces the rotating-field closed forms;
    the evolved-frame variant i (dU) U^dag is the same operator conjugated
    by U(t).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x0 = _param_value(model, param)
    u_plus = propagate_direct(model.with_params(**{param: x0 + delta}).h_at, t, cfg)
    u_minus = propagate_direct(model.with_params(**{param: x0 - delta}).h_at, t, cfg)
    u0 = propagate_direct(model.h_at, t, cfg)
    h = 1j * u0.conj().T @ ((u_plus - u_minus) / (2 * delta))
    return 0.5 * (h + h.conj().T)
