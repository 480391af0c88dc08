"""Mapped-back propagator and transition-probability tests."""
import math

import numpy as np
import pytest

from floqmet.models import RashbaModel
from floqmet.reference import OracleConfig, propagate_direct
from floqmet.propagator import (averaged_probability_longtime,
                                averaged_probability_shirley, evolve,
                                transition_probability)
from floqmet.sambe import build_floquet_matrix
from floqmet.spectral import diagonalize


def spectrum_for(b0, b1, n_cut=50):
    return diagonalize(
        build_floquet_matrix(RashbaModel(b0, b1, 1.0).hamiltonian(), n_cut))


def test_identity_at_t_zero():
    sample = evolve(spectrum_for(0.5, 0.5), 0.0)
    np.testing.assert_allclose(sample.u_matrix, np.eye(2), atol=1e-10)
    assert not sample.flagged


def test_static_rabi_probability():
    # B0 = 0 leaves the static -B1 sigma_x: P_{0->1}(t) = sin^2(B1 t)
    spectrum = spectrum_for(0.0, 1.0, n_cut=5)
    for t in (0.3, 1.1, 2.0, 5.7):
        p = transition_probability(spectrum, t, beta=0, gamma=1)
        assert p.total == pytest.approx(math.sin(t) ** 2, abs=1e-10)


def test_transition_probability_completeness():
    spectrum = spectrum_for(0.5, 0.5)
    for t in (1.0, 2 * math.pi, 9.4):
        total = sum(transition_probability(spectrum, t, 0, g).total
                    for g in range(2))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_unitarity_at_transition():
    sample = evolve(spectrum_for(0.5, 0.5), 2 * math.pi)
    assert sample.truncation_defect < 1e-10
    np.testing.assert_allclose(
        sample.u_matrix.conj().T @ sample.u_matrix, np.eye(2), atol=1e-9)


def test_frozen_propagator_values():
    u = evolve(spectrum_for(0.5, 0.5), 2 * math.pi).u_matrix
    assert u[0, 0] == pytest.approx(-0.5487742530922214 + 0.3340569907416595j,
                                    abs=1e-9)
    assert u[1, 0] == pytest.approx(-0.7663241781907324j, abs=1e-9)


def test_stroboscopic_composition():
    spectrum = spectrum_for(2.0, 1.0)
    period = 2 * math.pi
    u1 = evolve(spectrum, period).u_matrix
    u2 = evolve(spectrum, 2 * period).u_matrix
    np.testing.assert_allclose(u2, u1 @ u1, atol=1e-9)


def test_static_shirley_average_equals_probability():
    spectrum = spectrum_for(0.0, 0.7, n_cut=4)
    for t in (0.5, 2.2):
        direct = transition_probability(spectrum, t, 0, 1)
        avg = averaged_probability_shirley(spectrum, t, 0, 1)
        assert avg == pytest.approx(direct.total, abs=1e-10)
        assert direct.interference == pytest.approx(0.0, abs=1e-10)


def test_shirley_average_bounds():
    spectrum = spectrum_for(1.5, 0.8)
    for t in np.linspace(0.1, 12.0, 17):
        p = averaged_probability_shirley(spectrum, t, 0, 1)
        assert -1e-9 <= p <= 1.0 + 1e-6


def test_shirley_average_matches_time_average():
    # period-average of |sum_k C_k e^{ik w s}|^2 with frozen C_k collapses to
    # sum_k |C_k|^2 by sideband orthogonality; C_k(t) = <1,k|e^{-iMt}|0,0>
    # sums the replicas s_m phi_a (mode a shifted by m sectors, at eps_a + m w)
    n = 30
    spectrum = spectrum_for(0.9, 0.4, n_cut=n)
    t0, period = 3.0, 2 * math.pi
    phi = spectrum.sector_view()[:, :, spectrum.modes]
    ck = np.zeros(4 * n + 1, dtype=complex)             # k from -2n to 2n
    for a, eps in enumerate(spectrum.eigenvalues[spectrum.modes]):
        for m in range(-n, n + 1):
            ck[n + m:3 * n + m + 1] += (phi[:, 1, a] * phi[n - m, 0, a].conj()
                                        * np.exp(-1j * (eps + m) * t0))
    k = np.arange(-2 * n, 2 * n + 1)
    phases = np.linspace(0, period, 256, endpoint=False)  # no aliasing up to |k| 2n
    quad = np.mean([abs(np.sum(ck * np.exp(1j * k * (t0 + s)))) ** 2
                    for s in phases])
    frozen = averaged_probability_shirley(spectrum, t0, 0, 1)
    assert frozen == pytest.approx(np.sum(np.abs(ck) ** 2), abs=1e-12)
    assert quad == pytest.approx(frozen, abs=1e-4)
    direct = transition_probability(spectrum, t0, 0, 1).total
    assert direct == pytest.approx(abs(np.sum(ck * np.exp(1j * k * t0))) ** 2, abs=1e-12)


def test_longtime_average_completeness():
    spectrum = spectrum_for(0.5, 0.5)
    for beta in range(2):
        total = sum(averaged_probability_longtime(spectrum, beta, g)
                    for g in range(2))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_longtime_static_ground_weight():
    spectrum = spectrum_for(0.0, 1.0, n_cut=4)
    assert averaged_probability_longtime(spectrum, 0, 0) == pytest.approx(
        0.5, abs=1e-10)  # |0> splits evenly over the sigma_x eigenmodes


@pytest.mark.parametrize("n_cut, tol", [(50, 1e-8), (29, 1e-5)])
def test_strong_drive_evolve_matches_oracle(n_cut, tol):
    # at (10, 10) the truncation edge holds polluted replicas; the N physical
    # modes alone give U
    rashba = RashbaModel(10.0, 10.0, 1.0)
    u = evolve(spectrum_for(10.0, 10.0, n_cut), rashba.period).u_matrix
    u_d = propagate_direct(rashba.h_at, rashba.period,
                           OracleConfig(step_count=20000, scheme="rk4"))
    assert np.max(np.abs(u - u_d)) < tol
