"""Spectrum, folding, and amplitude-table tests."""
import dataclasses

import numpy as np
import pytest

from floqmet.models import RashbaModel, RotatingFieldModel
from floqmet.propagator import evolve
from floqmet.sambe import FloquetMatrix, build_floquet_matrix
from floqmet.spectral import (DiagonalizationError, FloquetSpectrum,
                              TruncationError, amplitude_table, diagonalize,
                              fold_to_fbz)


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


def test_amplitude_completeness_at_transition():
    spectrum = diagonalize(
        build_floquet_matrix(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), 50))
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
    spectrum = diagonalize(
        build_floquet_matrix(RashbaModel(2.0, 1.0, 1.0).hamiltonian(), 50))
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

