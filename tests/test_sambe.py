"""Sambe-space construction tests."""
import math

import numpy as np
import pytest

from floqmet.models import SIGMA_X, SIGMA_Y, RashbaModel, RotatingFieldModel
from floqmet.sambe import (FloquetBuildError, FloquetMatrix, PeriodicHamiltonian,
                           build_floquet_matrix,
                           fourier_components_from_timedomain,
                           periodic_hamiltonian_from_timedomain)


def static_model(h0, omega=1.0):
    h0 = np.asarray(h0, dtype=complex)

    def comp(n, _params):
        return h0 if n == 0 else np.zeros_like(h0)

    return PeriodicHamiltonian(levels=h0.shape[0], omega=omega, params={},
                               fourier_component=comp, max_harmonic=0)


def build_loop(model, n_cut):
    """Reference builder: the (k, m) block loop, always complex."""
    nl = model.levels
    dim = nl * (2 * n_cut + 1)
    data = np.zeros((dim, dim), dtype=complex)
    for k in range(-n_cut, n_cut + 1):
        row = (k + n_cut) * nl
        for m in range(max(-n_cut, k - model.max_harmonic),
                       min(n_cut, k + model.max_harmonic) + 1):
            col = (m + n_cut) * nl
            data[row:row + nl, col:col + nl] = model.component(k - m)
        data[row:row + nl, row:row + nl] += k * model.omega * np.eye(nl)
    return data


def three_level_model(real):
    """Random 3-level drive with harmonics up to 2; real or complex set."""
    rng = np.random.default_rng(7)

    def draw():
        h = rng.normal(size=(3, 3))
        return h if real else h + 1j * rng.normal(size=(3, 3))

    h0 = draw()
    comps = {0: h0 + h0.conj().T, 1: draw(), 2: draw()}
    for n in (1, 2):
        comps[-n] = comps[n].conj().T

    def comp(n, _params):
        return comps[n]

    return PeriodicHamiltonian(levels=3, omega=0.8, params={},
                               fourier_component=comp, max_harmonic=2)


@pytest.mark.parametrize("model, real", [
    (RashbaModel(1.7, 0.9, 1.1).hamiltonian(), True),
    (RotatingFieldModel(0.7, 1.3).hamiltonian(), False),
    (three_level_model(real=True), True),
    (three_level_model(real=False), False),
])
@pytest.mark.parametrize("extra", [0, 5])
def test_vectorised_build_matches_block_loop(model, real, extra):
    n_cut = model.max_harmonic + extra
    matrix = build_floquet_matrix(model, n_cut)
    assert matrix.data.dtype == (np.float64 if real else np.complex128)
    assert np.array_equal(matrix.data, build_loop(model, n_cut))


def test_static_model_is_block_diagonal():
    h0 = np.array([[0.3, 0.1], [0.1, -0.2]])
    matrix = build_floquet_matrix(static_model(h0), 3)
    blocks = matrix.data.reshape(7, 2, 7, 2)  # [k, gamma, m, beta]
    for k in range(-3, 4):
        np.testing.assert_allclose(blocks[k + 3, :, k + 3],
                                   h0 + k * np.eye(2), atol=1e-14)
        for m in range(-3, 4):
            if m != k:
                assert np.all(blocks[k + 3, :, m + 3] == 0)


def test_rashba_fourier_reassembly():
    model = RashbaModel(0.7, 0.4, 1.3)
    ham = model.hamiltonian()
    for t in np.linspace(0.0, model.period, 16, endpoint=False):
        np.testing.assert_allclose(ham.h_at(t), model.h_at(t), atol=1e-12)


def test_rashba_components():
    ham = RashbaModel(0.8, 0.3, 1.0).hamiltonian()
    np.testing.assert_allclose(ham.component(0), -0.3 * SIGMA_X, atol=1e-14)
    np.testing.assert_allclose(ham.component(1),
                               0.4 * (SIGMA_X - 1j * SIGMA_Y), atol=1e-14)
    np.testing.assert_allclose(ham.component(-1),
                               ham.component(1).conj().T, atol=1e-14)
    assert np.all(ham.component(2) == 0)


def test_timedomain_constant_matrix():
    h0 = np.array([[1.0, 0.5], [0.5, -1.0]])
    comps = fourier_components_from_timedomain(lambda t: h0, 1.0, 2, 64)
    np.testing.assert_allclose(comps[0], h0, atol=1e-12)
    for n in (-2, -1, 1, 2):
        np.testing.assert_allclose(comps[n], 0, atol=1e-12)


def test_timedomain_cosine_drive():
    comps = fourier_components_from_timedomain(
        lambda t: math.cos(t) * SIGMA_X, 1.0, 1, 64)
    np.testing.assert_allclose(comps[1], SIGMA_X / 2, atol=1e-12)
    np.testing.assert_allclose(comps[-1], SIGMA_X / 2, atol=1e-12)
    np.testing.assert_allclose(comps[0], 0, atol=1e-12)


def test_timedomain_nyquist_guard():
    with pytest.raises(ValueError):
        fourier_components_from_timedomain(lambda t: SIGMA_X, 1.0, 3, 8)


def test_timedomain_wrapper_matches_direct():
    model = RashbaModel(0.6, 0.2, 1.0)
    wrapped = periodic_hamiltonian_from_timedomain(model.h_at, 1.0, 1)
    direct = model.hamiltonian()
    for n in (-1, 0, 1):
        np.testing.assert_allclose(wrapped.component(n), direct.component(n),
                                   atol=1e-12)


def test_truncation_ladder_dims():
    toy = RashbaModel(0.5, 0.5, 1.0).hamiltonian()
    dims = [build_floquet_matrix(toy, n).dim for n in (1, 2)]
    assert dims == [6, 10]
    static = static_model(SIGMA_X)
    assert build_floquet_matrix(static, 0).dim == 2


def test_build_rejects_small_cutoff():
    ham = RashbaModel(0.5, 0.5, 1.0).hamiltonian()
    with pytest.raises(FloquetBuildError):
        build_floquet_matrix(ham, 0)


def test_build_rejects_non_hermitian_set():
    def comp(n, _params):
        if n == 1:
            return SIGMA_X
        return np.zeros((2, 2), dtype=complex)

    bad = PeriodicHamiltonian(levels=2, omega=1.0, params={},
                              fourier_component=comp, max_harmonic=1)
    with pytest.raises(FloquetBuildError):
        build_floquet_matrix(bad, 2)


def test_built_matrix_is_hermitian():
    matrix = build_floquet_matrix(RashbaModel(1.7, 0.9, 1.1).hamiltonian(), 20)
    assert matrix.hermiticity_defect() < 1e-12
    assert matrix.dim == 2 * 41


@pytest.mark.parametrize("dim", [2, 63, 64, 65, 200])
@pytest.mark.parametrize("dtype", [float, complex])
def test_blocked_hermiticity_defect_is_the_one_pass_value(dim, dtype):
    rng = np.random.default_rng(dim)
    data = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        data += 1j * rng.standard_normal((dim, dim))
    data = data + data.conj().T
    data[dim - 1, 0] += 1e-9 * (1 + 1j if dtype is complex else 1)
    for d in (data, np.where(np.eye(dim, k=-1), np.nan, data)):
        matrix = FloquetMatrix(n_cut=0, levels=dim, omega=1.0, components=d[None])
        want = float(np.max(np.abs(d - d.conj().T)))
        np.testing.assert_array_equal(matrix.hermiticity_defect(), want)


def test_with_params_moves_drive_frequency():
    ham = RashbaModel(0.5, 0.5, 1.0).hamiltonian()
    shifted = ham.with_params(omega=1.2)
    assert shifted.omega == pytest.approx(1.2)
    matrix = build_floquet_matrix(shifted, 2)
    top = matrix.data.reshape(5, 2, 5, 2)[4, :, 4]  # the k = m = 2 block
    np.testing.assert_allclose(np.diag(top).real, 2 * 1.2,
                               atol=1e-14)
    with pytest.raises(KeyError, match="'nope' not in model params"):
        ham.with_params(nope=1.0)
