"""Model, topology, and closed-form benchmark tests."""
import math

import numpy as np
import pytest

from floqmet.models import (RashbaModel, RotatingFieldModel,
                            berry_phase_adiabatic, driving_curvature,
                            instantaneous_spectrum,
                            rotating_generator_analytic,
                            rotating_incompatibility_analytic,
                            rotating_qfi_bound_analytic,
                            total_field, total_phase, unit_mapping,
                            winding_number, winding_number_exact,
                            winding_number_quadrature)


def test_instantaneous_spectrum():
    model = RashbaModel(1.0, 0.0, 1.0)
    lo, hi = instantaneous_spectrum(model, np.linspace(0, 6, 7))
    np.testing.assert_allclose(lo, -1.0, atol=1e-14)
    np.testing.assert_allclose(hi, 1.0, atol=1e-14)


def test_spectrum_swap_symmetry():
    ts = np.linspace(0, 5, 11)
    a = total_field(RashbaModel(1.7, 0.6, 1.0), ts)
    b = total_field(RashbaModel(0.6, 1.7, 1.0), ts)
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_curvature_pure_rotation():
    model = RashbaModel(1.0, 0.0, 1.3)
    ts = np.linspace(0, 4, 9)
    np.testing.assert_allclose(driving_curvature(model, ts), -1.3, atol=1e-14)


def test_curvature_static_direction():
    model = RashbaModel(0.0, 1.0, 1.0)
    np.testing.assert_allclose(driving_curvature(model, 1.0), 0.0, atol=1e-14)


def test_curvature_singular_at_degeneracy():
    with pytest.raises(ValueError):
        driving_curvature(RashbaModel(1.0, 1.0, 1.0), 0.0)


def test_winding_values_and_quadrature():
    dominated = RashbaModel(2.0, 1.0, 1.0)
    assert winding_number(dominated) == -1
    assert winding_number_quadrature(dominated) == pytest.approx(
        winding_number_exact(dominated), abs=1e-8)
    subdominant = RashbaModel(1.0, 2.0, 1.0)
    assert winding_number(subdominant) == 0
    assert winding_number_quadrature(subdominant) == pytest.approx(0.0,
                                                                  abs=1e-8)
    with pytest.raises(ValueError):
        winding_number_exact(RashbaModel(1.0, 1.0, 1.0))


def test_berry_phase_cases():
    assert berry_phase_adiabatic(0.0) == pytest.approx(0.0)
    assert berry_phase_adiabatic(math.pi) == pytest.approx(2 * math.pi)
    assert berry_phase_adiabatic() == pytest.approx(math.pi)


def test_phase_report_frozen_values():
    report = total_phase(RashbaModel(2.0, 1.0, 1.0))
    assert report.gamma_a == pytest.approx(-4.236183631989593, abs=1e-9)
    assert report.dynamical == pytest.approx(-12.865650946349453, abs=1e-9)
    assert report.total == pytest.approx(report.gamma_a + report.dynamical)


def test_phase_static_field_limit():
    # B0 = 0: K = 0 so gamma_A = 0 and d = -(1/hbar) int |B| dt = -B1 T
    model = RashbaModel(0.0, 0.8, 1.0)
    report = total_phase(model)
    assert report.gamma_a == pytest.approx(0.0, abs=1e-12)
    assert report.dynamical == pytest.approx(-0.8 * model.period, abs=1e-6)


def test_phase_singular_on_boundary():
    with pytest.raises(ValueError):
        total_phase(RashbaModel(1.0, 1.0, 1.0))


def test_rotating_generator_closed_forms():
    model = RotatingFieldModel(0.5, 1.0)
    for param in ("b", "omega"):
        h = rotating_generator_analytic(model, param, t=model.period)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        lam = np.linalg.eigvalsh(h)
        bound = rotating_qfi_bound_analytic(model, param)
        assert (lam[-1] - lam[0]) ** 2 == pytest.approx(bound, rel=1e-12)
    with pytest.raises(ValueError):
        rotating_generator_analytic(model, "b", t=1.0)
    with pytest.raises(ValueError):
        rotating_generator_analytic(model, "b1")


def test_rotating_bound_frozen_values():
    model = RotatingFieldModel(0.5, 1.0)
    assert rotating_qfi_bound_analytic(model, "b") == pytest.approx(
        82.6732675800525, rel=1e-12)
    assert rotating_qfi_bound_analytic(model, "omega") == pytest.approx(
        18.38783663292936, rel=1e-12)


def test_rotating_field_off_limit():
    model = RotatingFieldModel(0.0, 1.0)
    h_w = rotating_generator_analytic(model, "omega")
    np.testing.assert_allclose(h_w, 0, atol=1e-14)
    assert rotating_incompatibility_analytic(model) == pytest.approx(0.0)


def test_rotating_incompatibility_frozen_value():
    assert rotating_incompatibility_analytic(
        RotatingFieldModel(0.5, 1.0)) == pytest.approx(1.3265817203400783,
                                                       rel=1e-12)
    with pytest.raises(ValueError):
        rotating_incompatibility_analytic(RotatingFieldModel(0.5, 1.0),
                                          probe=np.array([1.0, 0.0]))


def test_unit_mapping_values():
    for f, expected in ((10, 0.18), (20, 0.36), (60, 1.07)):
        b_ac, b_dc = unit_mapping(f, 4.0)
        assert b_ac == pytest.approx(expected, abs=0.01)
        assert b_dc == b_ac
    with pytest.raises(ValueError):
        unit_mapping(-1.0, 4.0)
    with pytest.raises(ValueError):
        unit_mapping(10.0, 0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        RashbaModel(-0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        RashbaModel(0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        RotatingFieldModel(-1.0, 1.0)
