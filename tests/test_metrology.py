"""Estimation pipeline tests: generators, QFI, CFI, incompatibility."""
import math

import numpy as np
import pytest

from floqmet import metrology, spectral
from floqmet.metrology import (EstimationSession, GeneratorSet,
                               estimation_report, generator, incompatibility,
                               local_mean, qfi, qfi_upper_bound, variance,
                               covariance)
from floqmet.models import (SIGMA_X, SIGMA_Y, SIGMA_Z, RashbaModel,
                            RotatingFieldModel, rotating_generator_analytic,
                            rotating_incompatibility_analytic)
from floqmet.reference import OracleConfig, generator_direct
from floqmet.sambe import PeriodicHamiltonian
from floqmet.spectral import amplitude_table

PROBE = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
PERIOD = 2 * math.pi


def make_set(h, **overrides):
    zeros = np.zeros_like(h)
    fields = dict(param="x", time=1.0, fd_step=1e-6, total=h, eigenmode=h,
                  quasienergy=zeros, multiphoton=zeros)
    fields.update(overrides)
    return GeneratorSet(**fields)


def test_local_mean_flat_and_window_validation():
    np.testing.assert_allclose(local_mean(np.ones(50), 21), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        local_mean(np.ones(10), 4)


def test_variance_covariance_basics():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert variance(SIGMA_Z, psi) == pytest.approx(0.0)
    assert variance(SIGMA_X, psi) == pytest.approx(1.0)
    assert covariance(SIGMA_X, SIGMA_Y, psi) == pytest.approx(0.0, abs=1e-12)
    assert covariance(SIGMA_X, SIGMA_X, psi) == pytest.approx(1.0)


def test_qfi_simple_generators():
    c = 0.8
    est = qfi(make_set(c * SIGMA_Z), np.array([1, 1]) / math.sqrt(2))
    assert est.qfi_total == pytest.approx(4 * c * c)
    assert qfi_upper_bound(make_set(c * SIGMA_Z)) == pytest.approx(4 * c * c)
    # eigenstate probe: zero variance
    assert qfi(make_set(c * SIGMA_Z), 0).qfi_total == pytest.approx(0.0)
    # zero generator
    assert qfi(make_set(np.zeros((2, 2))), 0).qfi_total == pytest.approx(0.0)


def test_incompatibility_properties():
    gx, gy = make_set(SIGMA_X), make_set(SIGMA_Y)
    psi = np.array([1.0, 0.0], dtype=complex)
    assert incompatibility(gx, gx, psi) == pytest.approx(0.0)
    assert incompatibility(gx, gy, psi) == pytest.approx(
        -incompatibility(gy, gx, psi))
    gz1, gz2 = make_set(SIGMA_Z), make_set(2 * SIGMA_Z)
    assert incompatibility(gz1, gz2, psi) == pytest.approx(0.0)


def test_spectator_parameter_gives_zero_qfi():
    def comp(n, params):
        return params["a"] * SIGMA_X if n == 0 else np.zeros((2, 2))

    model = PeriodicHamiltonian(levels=2, omega=1.0,
                                params={"a": 0.5, "idle": 3.0},
                                fourier_component=comp, max_harmonic=0)
    gen = generator(model, "idle", 1.0, n_cut=2)
    np.testing.assert_allclose(gen.total, 0, atol=1e-9)
    assert qfi(gen, 0).qfi_total == pytest.approx(0.0, abs=1e-9)


def test_static_model_generator_is_textbook():
    # static H0 = a*sigma_x: h_a = t * sigma_x, all from eigen/quasi terms
    def comp(n, params):
        return params["a"] * SIGMA_X if n == 0 else np.zeros((2, 2))

    model = PeriodicHamiltonian(levels=2, omega=1.0, params={"a": 0.4},
                                fourier_component=comp, max_harmonic=0)
    t = 2.7
    gen = generator(model, "a", t, n_cut=3)
    np.testing.assert_allclose(gen.total, t * SIGMA_X, atol=1e-6)
    np.testing.assert_allclose(gen.eigenmode + gen.quasienergy, gen.total,
                               atol=1e-6)
    np.testing.assert_allclose(gen.multiphoton, 0, atol=1e-9)


def test_generator_matches_ode_oracle_at_transition():
    model = RashbaModel(0.5, 0.5, 1.0).hamiltonian()
    floquet = generator(model, "b0", PERIOD).total
    direct = generator_direct(model, "b0", PERIOD, cfg=OracleConfig(20000))
    np.testing.assert_allclose(floquet, direct, atol=1e-5)


def test_generator_component_sum_is_exact():
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                                ["b0", "omega"])
    for param in ("b0", "omega"):
        for t in (1.3, PERIOD, 2.5 * PERIOD):
            gen = session.generator_set(param, t)
            assert gen.component_sum_defect() < 1e-12


def test_rotating_generators_match_closed_forms():
    model = RotatingFieldModel(0.5, 1.0)
    session = EstimationSession(model.hamiltonian(), ["b", "omega"])
    for param in ("b", "omega"):
        numeric = session.generator_set(param, model.period).total
        analytic = rotating_generator_analytic(model, param)
        np.testing.assert_allclose(numeric, analytic, atol=1e-6)
    omega_num = incompatibility(session.generator_set("b", model.period),
                                session.generator_set("omega", model.period),
                                PROBE)
    assert omega_num == pytest.approx(
        rotating_incompatibility_analytic(model), rel=1e-6)


def test_cfi_static_rabi_phase_estimation():
    # P1 = sin^2(a t): two-outcome CFI is 4 t^2 independent of a
    def comp(n, params):
        return params["a"] * SIGMA_X if n == 0 else np.zeros((2, 2))

    model = PeriodicHamiltonian(levels=2, omega=1.0, params={"a": 0.3},
                                fourier_component=comp, max_harmonic=0)
    session = EstimationSession(model, ["a"], n_cut=3)
    t = 1.0
    cfi = session.cfi("a", t, 0, stroboscopic=False)
    assert cfi == pytest.approx(4 * t * t, abs=1e-6)


def test_cfi_rejects_non_stroboscopic_time():
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                                ["b0"], n_cut=10)
    with pytest.raises(ValueError):
        session.cfi("b0", 1.0, PROBE)


def test_probe_normalization_enforced():
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                                ["b0"], n_cut=10)
    with pytest.raises(ValueError):
        session.cfi("b0", PERIOD, np.array([1.0, 1.0]))


def test_estimation_report_structure():
    report = estimation_report(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                               ["b0", "b1", "omega"], PROBE, PERIOD)
    assert set(report.estimates) == {"b0", "b1", "omega"}
    for est in report.estimates.values():
        assert est.decomposition_defect() < 1e-6
        assert 0.0 <= est.qfi_total <= est.qfi_upper_bound + 1e-6
        assert est.cfi <= est.qfi_total + 1e-6
    # antisymmetric accessor
    assert report.omega_matrix_entry("b0", "b1") == pytest.approx(
        -report.omega_matrix_entry("b1", "b0"))
    assert report.omega_matrix_entry("b0", "b0") == 0.0


def test_report_frozen_values_at_transition():
    report = estimation_report(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                               ["b0", "omega"], PROBE, PERIOD)
    assert report.estimates["b0"].qfi_total == pytest.approx(
        42.575354179642986, rel=1e-6)
    assert report.estimates["omega"].qfi_total == pytest.approx(
        47.91425666271493, rel=1e-6)
    assert report.estimates["omega"].qfi_upper_bound == pytest.approx(
        58.88718159441584, rel=1e-6)


def test_report_hierarchy_at_transition():
    # omega accumulates faster than the field strengths at this t
    report = estimation_report(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                               ["b0", "omega"], PROBE, 8 * PERIOD)
    assert (report.estimates["omega"].qfi_total
            > report.estimates["b0"].qfi_total)


def test_session_reuse_is_consistent():
    model = RashbaModel(0.7, 0.4, 1.0).hamiltonian()
    session = EstimationSession(model, ["b0"])
    a = estimation_report(model, ["b0"], PROBE, PERIOD, session=session)
    b = estimation_report(model, ["b0"], PROBE, PERIOD)
    assert a.estimates["b0"].qfi_total == pytest.approx(
        b.estimates["b0"].qfi_total, rel=1e-12)


def table_components(session, param, t):
    """dU/dx split by the amplitude-table formula, as a reference."""
    shift = session.shifts[param]
    sm, sp = shift.spec_minus, shift.spec_plus
    b_m = amplitude_table(sm).entries
    b_p = amplitude_table(sp).entries
    k = np.arange(-session.n_cut, session.n_cut + 1)
    g_m = np.exp(-1j * sm.eigenvalues * t)
    g_p = np.exp(-1j * sp.eigenvalues * t)
    h_m = np.exp(1j * k * sm.omega * t)
    h_p = np.exp(1j * k * sp.omega * t)
    inv = 1.0 / (2.0 * shift.delta)
    gh_bar = 0.5 * (np.outer(g_p, h_p) + np.outer(g_m, h_m))
    b_bar = 0.5 * (b_p + b_m)
    return (
        np.einsum("akgb,ak->gb", b_p - b_m, gh_bar) * inv,
        np.einsum("akgb,ak->gb", b_bar,
                  np.outer(g_p - g_m, 0.5 * (h_p + h_m))) * inv,
        np.einsum("akgb,ak->gb", b_bar,
                  np.outer(0.5 * (g_p + g_m), h_p - h_m)) * inv,
    )


# delta = 1e-3 and a small n_cut leave FD-level Hermiticity defects; the
# contraction identity is algebraic and holds regardless
@pytest.mark.filterwarnings("ignore:generator Hermiticity defect")
@pytest.mark.parametrize("n_cut", [6, 12])
@pytest.mark.parametrize("model, params", [
    (RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RashbaModel(2.0, 1.2, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RotatingFieldModel(0.5, 1.0).hamiltonian(), ["b", "omega"]),
], ids=["rashba-transition", "rashba-strong", "rotating"])
def test_contraction_matches_amplitude_tables(model, params, n_cut):
    session = EstimationSession(model, params, n_cut=n_cut, delta=1e-3)
    for param in params:
        for t in (1.3, PERIOD, 2.5 * PERIOD, 3 * PERIOD):
            parts = session._du_components(param, t)
            reference = table_components(session, param, t)
            scale = max(np.max(np.abs(r)) for r in reference)
            for name, got, want in zip(
                    ("eigenmode", "quasienergy", "multiphoton"),
                    parts, reference):
                err = np.max(np.abs(got - want))
                assert err <= 1e-10 * scale, (param, t, name, err, scale)
            if param != "omega":
                assert not np.any(parts[2])
                assert not np.any(session.generator_set(param, t).multiphoton)


def test_report_evaluates_propagator_once_without_tables(monkeypatch):
    calls = {"evolve": 0, "amplitude_table": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrology, "evolve",
                        counting("evolve", metrology.evolve))
    table = counting("amplitude_table", spectral.amplitude_table)
    # every module binding, so an imported name is counted as well
    for module in (spectral, metrology):
        monkeypatch.setattr(module, "amplitude_table", table, raising=False)
    estimation_report(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                      ["b0", "b1", "omega"], PROBE, PERIOD, n_cut=12)
    assert calls == {"evolve": 1, "amplitude_table": 0}


def test_reports_at_interleaved_times_match_standalone_calls():
    model = RashbaModel(0.7, 0.4, 1.0).hamiltonian()
    params = ["b0", "b1", "omega"]
    session = EstimationSession(model, params, n_cut=12)
    for t in (PERIOD, 1.3, PERIOD):
        report = estimation_report(model, params, PROBE, t, session=session)
        gens = {p: session.generator_set(p, t) for p in params}
        for p in params:
            est = report.estimates[p]
            alone = qfi(gens[p], PROBE)
            assert est.cfi == session.cfi(p, t, PROBE, stroboscopic=False)
            assert est.qfi_total == alone.qfi_total
            assert est.qfi_upper_bound == alone.qfi_upper_bound
        assert report.incompatibility[("b0", "omega")] == incompatibility(
            gens["b0"], gens["omega"], PROBE)
