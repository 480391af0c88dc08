"""Direct time-ordered propagation oracle tests."""
import functools
import math

import numpy as np
import pytest

from floqmet.models import (SIGMA_X, RashbaModel, RotatingFieldModel,
                            rotating_generator_analytic)
from floqmet.reference import (STEP_BLOCK, OracleConfig, _matmul,
                               _ordered_product, generator_direct,
                               propagate_direct, unitarity_defect)
from floqmet.sambe import PeriodicHamiltonian


def three_level_drive():
    """Fixed 3-level Hermitian Fourier set with max_harmonic 1."""
    rng = np.random.default_rng(3)
    h0 = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h1 = 0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    comps = {0: 0.5 * (h0 + h0.conj().T), 1: h1, -1: h1.conj().T}
    return PeriodicHamiltonian(levels=3, omega=1.1, params={},
                               fourier_component=lambda n, _p: comps[n],
                               max_harmonic=1)


HAMILTONIANS = {
    "rashba": RashbaModel(1.3, 0.8, 1.0).h_at,
    "rotating": RotatingFieldModel(0.7, 1.2).h_at,
    "periodic": RashbaModel(0.6, 1.9, 0.9).hamiltonian().h_at,
    "three-level": three_level_drive().h_at,
}


def propagate_loop(h_of_t, t, cfg):
    """Step-by-step reference: one sequential update of U per step, with H
    taken at every step time in one array call (the same values as scalar
    calls, see test_h_at_array_stacks_scalar_calls)."""
    u = np.eye(h_of_t(0.0).shape[-1], dtype=complex)
    dt = t / cfg.step_count
    steps = np.arange(cfg.step_count)
    if cfg.scheme == "midpoint-exponential":
        for lam, vec in zip(*np.linalg.eigh(h_of_t((steps + 0.5) * dt))):
            u = (vec * np.exp(-1j * lam * dt)) @ vec.conj().T @ u
        return u
    s = steps * dt
    m = -1j * h_of_t(np.concatenate((s, s + dt / 2, s + dt)))
    for m0, mid, m1 in zip(*m.reshape((3, cfg.step_count) + m.shape[1:])):
        k1 = m0 @ u
        k2 = mid @ (u + dt / 2 * k1)
        k3 = mid @ (u + dt / 2 * k2)
        k4 = m1 @ (u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(step_count=0)
    with pytest.raises(ValueError):
        OracleConfig(scheme="euler")


def test_static_hamiltonian_matches_expm():
    h0 = 0.7 * SIGMA_X
    t = 2.3
    expected = (math.cos(0.7 * t) * np.eye(2)
                - 1j * math.sin(0.7 * t) * SIGMA_X)
    for scheme in ("midpoint-exponential", "rk4"):
        u = propagate_direct(lambda _t: h0, t, OracleConfig(2000, scheme))
        np.testing.assert_allclose(u, expected, atol=1e-10)


def test_static_three_level_matches_eigh_exponential():
    h0 = three_level_drive().component(0)
    t = 2.3
    lam, vec = np.linalg.eigh(h0)
    expected = (vec * np.exp(-1j * lam * t)) @ vec.conj().T
    for scheme in ("midpoint-exponential", "rk4"):
        u = propagate_direct(lambda _t: h0, t, OracleConfig(2000, scheme))
        np.testing.assert_allclose(u, expected, atol=1e-10)


def test_midpoint_preserves_unitarity():
    model = RashbaModel(2.0, 1.0, 1.0)
    u = propagate_direct(model.h_at, 2 * model.period, OracleConfig(4000))
    assert unitarity_defect(u) < 1e-11


def test_unitarity_defect_of_a_partial_table():
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
    assert unitarity_defect(q[:, :2]) < 1e-15
    assert unitarity_defect(2 * q[:, :1]) == pytest.approx(3.0)
    assert unitarity_defect(q[:, :0]) == 0.0


def test_midpoint_second_order_convergence():
    model = RashbaModel(2.0, 1.0, 1.0)
    t = model.period
    truth = propagate_direct(model.h_at, t, OracleConfig(20000, "rk4"))

    def err(steps):
        u = propagate_direct(model.h_at, t, OracleConfig(steps))
        return float(np.max(np.abs(u - truth)))

    ratio = err(2000) / err(4000)
    assert ratio > 3.5  # second order: doubling steps gains ~4x


def test_schemes_agree():
    model = RashbaModel(1.0, 2.0, 1.0)
    t = 1.7
    u_mid = propagate_direct(model.h_at, t, OracleConfig(20000))
    u_rk4 = propagate_direct(model.h_at, t, OracleConfig(20000, "rk4"))
    np.testing.assert_allclose(u_mid, u_rk4, atol=1e-7)


def test_generator_spectator_parameter():
    def comp(n, params):
        return params["a"] * SIGMA_X if n == 0 else np.zeros((2, 2))

    model = PeriodicHamiltonian(levels=2, omega=1.0,
                                params={"a": 0.5, "idle": 3.0},
                                fourier_component=comp, max_harmonic=0)
    h = generator_direct(model, "idle", 1.0, cfg=OracleConfig(200))
    np.testing.assert_allclose(h, 0, atol=1e-9)


def test_generator_matches_rotating_closed_forms():
    model = RotatingFieldModel(0.5, 1.0)
    ham = model.hamiltonian()
    for param in ("b", "omega"):
        numeric = generator_direct(ham, param, model.period,
                                   cfg=OracleConfig(20000))
        analytic = rotating_generator_analytic(model, param)
        np.testing.assert_allclose(numeric, analytic, atol=1e-5)


def test_generator_names_unknown_parameter():
    model = RotatingFieldModel(0.5, 1.0).hamiltonian()
    with pytest.raises(KeyError, match="'b9' not in model params"):
        generator_direct(model, "b9", 1.0, cfg=OracleConfig(10))


def test_generator_rejects_bad_delta():
    model = RotatingFieldModel(0.5, 1.0).hamiltonian()
    with pytest.raises(ValueError):
        generator_direct(model, "b", 1.0, delta=0.0)


@pytest.mark.parametrize("name", sorted(HAMILTONIANS))
@pytest.mark.parametrize("scheme", ["midpoint-exponential", "rk4"])
@pytest.mark.parametrize("steps", [1, 7, STEP_BLOCK - 1, STEP_BLOCK,
                                   STEP_BLOCK + 1, 20000])
def test_batched_oracle_matches_step_loop(name, scheme, steps):
    h_of_t = HAMILTONIANS[name]
    cfg = OracleConfig(steps, scheme)
    u = propagate_direct(h_of_t, 1.3, cfg)
    assert np.max(np.abs(u - propagate_loop(h_of_t, 1.3, cfg))) <= 1e-12


@pytest.mark.parametrize("name", sorted(HAMILTONIANS))
def test_h_at_array_stacks_scalar_calls(name):
    h_of_t = HAMILTONIANS[name]
    times = np.linspace(-0.4, 7.9, 12).reshape(3, 4)
    stacked = np.array([[h_of_t(float(t)) for t in row] for row in times])
    dim = stacked.shape[-1]
    assert h_of_t(times).shape == (3, 4, dim, dim)
    assert np.array_equal(h_of_t(times), stacked)
    assert h_of_t(0.3).shape == (dim, dim)


@pytest.mark.parametrize("scheme", ["midpoint-exponential", "rk4"])
def test_oracle_batches_are_bounded(scheme):
    sizes = []

    def recording(times):
        sizes.append(np.shape(times))
        return HAMILTONIANS["rashba"](times)

    propagate_direct(recording, 2.0, OracleConfig(5 * STEP_BLOCK + 3, scheme))
    assert all(len(size) == 1 for size in sizes)
    assert STEP_BLOCK <= max(size[0] for size in sizes) <= 2 * STEP_BLOCK + 1


@pytest.mark.parametrize("h_of_t", [lambda times: np.zeros((len(times) + 1, 2, 2)),
                                    lambda _t: np.zeros((2, 3)),
                                    lambda _t: 1.0])
def test_unbroadcastable_hamiltonian_rejected(h_of_t):
    with pytest.raises(ValueError, match=r"must return shape \(len\(times\), N, N\)"):
        propagate_direct(h_of_t, 1.0, OracleConfig(10))


def random_stack(rng, length, n):
    """Step-last stack: `length` complex n x n matrices along the last axis."""
    return rng.normal(size=(n, n, length)) + 1j * rng.normal(size=(n, n, length))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("length", [1, 7, 513])
def test_small_matrix_kernel_matches_matmul(n, length):
    rng = np.random.default_rng(10 * n + length)
    a, b = random_stack(rng, length, n), random_stack(rng, length, n)
    scale = np.linalg.norm(a, axis=(0, 1)) * np.linalg.norm(b, axis=(0, 1))
    expected = (a.transpose(2, 0, 1) @ b.transpose(2, 0, 1)).transpose(1, 2, 0)
    err = np.max(np.abs(_matmul(a, b) - expected), axis=(0, 1))
    assert np.all(err <= 1e-13 * scale)
    # unitary factors keep the norm of the whole product at 1
    mats = np.linalg.qr(random_stack(rng, length, n).transpose(2, 0, 1))[0]
    left_to_right = functools.reduce(lambda acc, m: m @ acc, mats)
    product = _ordered_product(np.ascontiguousarray(mats.transpose(1, 2, 0)))
    assert np.max(np.abs(product - left_to_right)) <= 1e-13
