"""Spectrum, folding, and amplitude-table tests."""
import dataclasses
import math

import numpy as np
import pytest

from floqmet import sambe, spectral
from floqmet.models import RashbaModel, RotatingFieldModel
from floqmet.propagator import evolve
from floqmet.sambe import FloquetMatrix, build_floquet_matrix
from floqmet.spectral import (DiagonalizationError, FloquetSpectrum,
                              TruncationError, amplitude_table, diagonalize,
                              fold_to_fbz)


def count_eigh(monkeypatch) -> list:
    """The size of every np.linalg.eigh call from here on."""
    sizes = []
    eigh = np.linalg.eigh

    def counting(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes


def test_fold_scalar_cases():
    assert fold_to_fbz(0.75, 1.0) == pytest.approx(-0.25)
    assert fold_to_fbz(0.5, 1.0) == pytest.approx(0.5)   # half-open boundary
    assert fold_to_fbz(-0.5, 1.0) == pytest.approx(0.5)
    assert fold_to_fbz(-2.3, 1.0) == pytest.approx(-0.3)


def test_fold_idempotent_and_in_range():
    lam = np.linspace(-7.3, 7.3, 501)
    folded = fold_to_fbz(lam, 1.0)
    assert np.all(folded > -0.5) and np.all(folded <= 0.5)
    np.testing.assert_allclose(fold_to_fbz(folded, 1.0), folded, atol=1e-14)


def test_static_spectrum_ladder():
    # B0 = 0: H is the static -B1 sigma_x, sector k adds k*omega
    spectrum = diagonalize(
        build_floquet_matrix(RashbaModel(0.0, 1.0, 1.0).hamiltonian(), 1))
    np.testing.assert_allclose(np.sort(spectrum.eigenvalues),
                               [-2, -1, 0, 0, 1, 2], atol=1e-12)


@pytest.mark.parametrize("model", [RashbaModel(0.9, 0.6, 1.0).hamiltonian(),
                                   RotatingFieldModel(0.8, 1.0).hamiltonian()])
def test_real_and_complex_solvers_agree(model):
    matrix = build_floquet_matrix(model, 10)
    spectrum = diagonalize(matrix)
    complex_spectrum = diagonalize(FloquetMatrix(
        n_cut=matrix.n_cut, levels=matrix.levels, omega=matrix.omega,
        data=matrix.data.astype(complex)))
    assert spectrum.phi.dtype == np.complex128
    np.testing.assert_allclose(spectrum.eigenvalues,
                               complex_spectrum.eigenvalues, rtol=0, atol=1e-12)
    for t in (0.7, 2 * np.pi, 9.1):
        np.testing.assert_allclose(evolve(spectrum, t).u_matrix,
                                   evolve(complex_spectrum, t).u_matrix,
                                   rtol=0, atol=1e-12)


def test_diagonalize_rejects_non_hermitian():
    data = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    bad = FloquetMatrix(n_cut=0, levels=2, omega=1.0, data=data)
    with pytest.raises(DiagonalizationError):
        diagonalize(bad)


def dense_spectrum(model, n_cut):
    """Every eigenpair of the truncated matrix, from one dense eigh."""
    matrix = build_floquet_matrix(model, n_cut)
    return FloquetSpectrum(*np.linalg.eigh(matrix.data), n_cut, matrix.levels,
                           matrix.omega)


def test_amplitude_completeness_at_transition():
    spectrum = dense_spectrum(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), 50)
    table = amplitude_table(spectrum)
    assert table.identity_defect() < 1e-10
    # sum_{alpha,k,gamma} |B|^2 = 1 per input level (long-time completeness)
    weights = np.sum(np.abs(table.entries) ** 2, axis=(0, 1, 2))
    np.testing.assert_allclose(weights, 1.0, atol=1e-6)


def test_static_amplitudes_stay_in_input_sector():
    spectrum = diagonalize(
        build_floquet_matrix(RashbaModel(0.0, 1.0, 1.0).hamiltonian(), 2))
    table = amplitude_table(spectrum)
    off_sector = table.entries[:, table.k_values != 0]
    np.testing.assert_allclose(off_sector, 0, atol=1e-12)


def test_folded_gap_is_branch_spacing():
    def spec(b0, b1):
        return diagonalize(
            build_floquet_matrix(RashbaModel(b0, b1, 1.0).hamiltonian(), 50))

    # two physical branches at +/-eps, symmetric under particle-hole
    s = spec(1.3, 1.0)
    modes = s.modes
    assert modes.size == 2
    folded = s.folded[modes]
    assert folded[0] == pytest.approx(-folded[1], abs=1e-10)
    assert s.folded_gap() == pytest.approx(2 * abs(folded[1]), abs=1e-10)
    assert s.folded_gap() > 1e-2
    # static limit: quasienergies are the eigenvalues +/-b1 folded into FBZ
    st = spec(0.0, 0.7)
    np.testing.assert_allclose(np.sort(st.folded[st.modes]),
                               [-0.3, 0.3], atol=1e-10)


def test_edge_modes_are_flagged_interior_clean():
    spectrum = dense_spectrum(RashbaModel(2.0, 1.0, 1.0).hamiltonian(), 50)
    edge = spectrum.edge_weights()
    modes = spectrum.modes
    assert modes.size == 2 and np.all(edge[modes] < 1e-8)
    # the truncation edge holds polluted modes; the selector passes them over
    assert np.any(edge > 1e-3)


def test_too_few_physical_modes_is_a_truncation_error():
    # every mode holds 1/3 of its weight in sector 0 and 2/3 in sector -1 or
    # +1: mean Fourier index -2/3 or 2/3, never in (-1/2, 1/2]
    q = np.array([np.ones(3) / np.sqrt(3), np.array([1, -1, 0]) / np.sqrt(2),
                  np.array([1, 1, -2]) / np.sqrt(6)])
    vectors = np.zeros((6, 6), dtype=complex)   # row = 2 * (sector + 1) + level
    vectors[np.ix_([2, 0, 1], [0, 1, 2])] = q
    vectors[np.ix_([3, 4, 5], [3, 4, 5])] = q
    with pytest.raises(TruncationError, match="0 of 2 physical Floquet modes"):
        FloquetSpectrum(eigenvalues=np.arange(6.0), eigenvectors=vectors,
                        n_cut=1, levels=2, omega=1.0)


def test_diagonalize_certifies_the_spectrum():
    matrix = build_floquet_matrix(RashbaModel(12.0, 12.0, 1.0).hamiltonian(), 16)
    with pytest.raises(TruncationError, match="n_cut=16 is too small"):
        diagonalize(matrix)
    spectrum = diagonalize(
        build_floquet_matrix(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), 7))
    np.testing.assert_array_equal(spectrum.k, np.arange(-7, 8))
    assert spectrum.modes.size == 2
    for name in ("modes", "k", "eigenvectors", "phi", "quasienergies", "u0"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spectrum, name, None)
    for name in ("modes", "k", "phi", "quasienergies", "u0"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(spectrum, name)[0] = 0



@pytest.mark.parametrize("b0, b1", [(0.5, 1.0), (3.0, 3.0), (7.5, 5.0), (20.0, 20.0)])
def test_auto_truncation_resolves_the_edge_weight(b0, b1, monkeypatch):
    model = RashbaModel(b0, b1, 1.0).hamiltonian()
    matrix = build_floquet_matrix(model, "auto")
    assert matrix.model is model
    assert matrix.n_cut == max(sambe.AUTO_MIN_N_CUT,  # sum |H^(n)| is 2 b0 + b1
                               math.ceil(2 * b0 + b1) + sambe.AUTO_MARGIN)
    sizes = count_eigh(monkeypatch)
    spectrum = diagonalize(matrix)
    assert spectrum.edge_weight < spectral.EDGE_TOL
    assert spectrum.edge_weight == pytest.approx(
        spectrum.edge_weights()[spectrum.modes].max(), rel=1e-12)
    assert len(sizes) <= 2 and sizes[-1] == spectrum.dim
    # a grown guess failed the edge test
    if len(sizes) == 2:
        smaller = diagonalize(build_floquet_matrix(model, matrix.n_cut))
        assert smaller.edge_weight >= spectral.EDGE_TOL


def test_explicit_n_cut_is_not_grown(monkeypatch):
    matrix = build_floquet_matrix(RashbaModel(5.0, 5.0, 1.0).hamiltonian(), 20)
    assert matrix.model is None
    spectrum = diagonalize(matrix)
    assert spectrum.n_cut == 20 and spectrum.edge_weight > spectral.EDGE_TOL
    with pytest.raises(sambe.FloquetBuildError,
                       match=r"^n_cut='foo' must be an integer or 'auto'$"):
        build_floquet_matrix(RashbaModel(1.0, 1.0, 1.0).hamiltonian(), "foo")


def test_auto_truncation_grows_from_a_failed_certificate(monkeypatch):
    # a first n_cut of 8 fails the certificate at (5, 5): grown by 4 sectors
    # until it passes, then by the edge weight's decay rate
    monkeypatch.setattr(sambe, "AUTO_MARGIN", 8 - 15)
    monkeypatch.setattr(sambe, "AUTO_MIN_N_CUT", 0)
    model = RashbaModel(5.0, 5.0, 1.0).hamiltonian()
    with pytest.raises(TruncationError):
        diagonalize(build_floquet_matrix(model, 8))
    spectrum = diagonalize(build_floquet_matrix(model, "auto"))
    assert spectrum.edge_weight < spectral.EDGE_TOL


def test_auto_truncation_is_bounded(monkeypatch):
    # (7.5, 5) needs 34, so it starts at the bound 32 and fails there; a huge
    # drive starts at the bound
    monkeypatch.setattr(sambe, "AUTO_MAX_N_CUT", 32)
    with pytest.raises(TruncationError,
                       match=r"^n_cut='auto' needs more than 32: at n_cut=32 the edge "
                             r"weight is .* \(limit 1e-24\); pass an explicit n_cut$"):
        diagonalize(build_floquet_matrix(RashbaModel(7.5, 5.0, 1.0).hamiltonian(), "auto"))
    assert build_floquet_matrix(RashbaModel(1e3, 1e3, 1.0).hamiltonian(), "auto").n_cut == 32


def test_window_holds_the_physical_modes_of_the_deep_matrix(monkeypatch):
    # (9, 9): "auto" starts at 2 b0 + b1 + 12 = 39, so n_cut 200 is solved on
    # the central 79 sectors, which equal the matrix built at 39
    model = RashbaModel(9.0, 9.0, 1.0).hamiltonian()
    matrix = build_floquet_matrix(model, 200)
    window = build_floquet_matrix(model, "auto").n_cut
    assert window == spectral._window(matrix) == 39
    inner = build_floquet_matrix(model, window)
    block = slice(2 * (200 - window), 2 * (200 + window + 1))
    np.testing.assert_array_equal(matrix.data[block, block], inner.data)
    sizes = count_eigh(monkeypatch)
    spectrum = diagonalize(matrix)
    assert sizes == [inner.dim]
    assert (spectrum.n_cut, spectrum.dim, spectrum.n_sectors) == (200, 802, 401)
    assert spectrum.window == window and spectrum.eigenvectors.shape == (inner.dim, 2)
    np.testing.assert_array_equal(spectrum.k, np.arange(-window, window + 1))
    np.testing.assert_array_equal(spectrum.modes, [0, 1])
    whole = diagonalize(inner)
    for name in ("quasienergies", "phi", "u0"):
        np.testing.assert_array_equal(getattr(spectrum, name), getattr(whole, name))
    assert spectrum.edge_weight == whole.edge_weight < spectral.EDGE_TOL
    # each mode, zero-padded to the 401 sectors, is an eigenpair of M_200
    vectors = np.zeros((matrix.dim, 2))
    vectors[block] = spectrum.eigenvectors
    residual = matrix.data @ vectors - vectors * spectrum.quasienergies
    scale = np.finfo(float).eps * np.abs(matrix.data).sum(axis=1).max()
    assert np.linalg.norm(residual, axis=0).max() <= spectral.RESIDUAL_TOL * scale


@pytest.mark.parametrize("case", ["no-residual-allowed", "window-too-small"])
def test_failed_window_falls_back_to_the_dense_solve(case, monkeypatch):
    # at (10, 10) and n_cut 120 a window of 34 passes its own certificate,
    # but its modes leave a residual of 2e4 eps ||M_n|| on M_120
    matrix = build_floquet_matrix(RashbaModel(10.0, 10.0, 1.0).hamiltonian(), 120)
    want = FloquetSpectrum(*np.linalg.eigh(matrix.data), 120, 2, 1.0)
    if case == "no-residual-allowed":
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    else:
        monkeypatch.setattr(spectral, "_window", lambda _matrix: 34)
    window = spectral._window(matrix)
    sizes = count_eigh(monkeypatch)
    got = diagonalize(matrix)
    assert sizes == [2 * (2 * window + 1), matrix.dim]
    assert got.window == 120
    for name in ("eigenvalues", "eigenvectors", "modes", "k", "phi",
                 "quasienergies", "u0"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("b0, b1, n_cut", [(0.5, 0.5, 20), (0.5, 0.5, 36),
                                           (10.0, 10.0, 42)])
def test_explicit_n_cut_up_to_the_window_is_one_dense_eigh(b0, b1, n_cut, monkeypatch):
    matrix = build_floquet_matrix(RashbaModel(b0, b1, 1.0).hamiltonian(), n_cut)
    assert spectral._window(matrix) >= n_cut
    want = FloquetSpectrum(*np.linalg.eigh(matrix.data), n_cut, 2, 1.0)
    sizes = count_eigh(monkeypatch)
    got = diagonalize(matrix)
    assert sizes == [matrix.dim] and got.window == n_cut
    for name in ("eigenvalues", "eigenvectors", "modes", "phi", "quasienergies", "u0"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_window_keeps_the_refusals(monkeypatch):
    # a non-Hermitian matrix is refused before any eigh, at any n_cut
    matrix = build_floquet_matrix(RashbaModel(3.0, 3.0, 1.0).hamiltonian(), 50)
    data = matrix.data.copy()
    data[0, -1] = 1e-6
    sizes = count_eigh(monkeypatch)
    with pytest.raises(DiagonalizationError, match="not Hermitian"):
        diagonalize(dataclasses.replace(matrix, data=data))
    # (20, 20) starts "auto" at 72: n_cut 50 is solved whole, and refused
    with pytest.raises(TruncationError, match="n_cut=50 is too small"):
        diagonalize(build_floquet_matrix(RashbaModel(20.0, 20.0, 1.0).hamiltonian(), 50))
    assert sizes == [202]
