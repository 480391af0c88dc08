"""Estimation pipeline tests: generators, QFI, CFI, incompatibility."""
import math

import numpy as np
import pytest

from floqmet import metrology, propagator, reference, spectral
from floqmet.metrology import (TIME_BLOCK, EstimationSession, GeneratorSet,
                               InvariantViolation, estimation_report,
                               incompatibility, local_mean, qfi)
from floqmet.models import (SIGMA_X, SIGMA_Y, SIGMA_Z, RashbaModel,
                            RotatingFieldModel, rotating_generator_analytic,
                            rotating_incompatibility_analytic)
from floqmet.reference import OracleConfig, generator_direct, propagate_direct
from floqmet.propagator import (averaged_probability_shirley, evolve,
                                transition_probability)
from floqmet.sambe import (PeriodicHamiltonian, build_floquet_matrix,
                           periodic_hamiltonian_from_timedomain)
from floqmet.spectral import (FloquetSpectrum, TruncationError, amplitude_table,
                              diagonalize)

PROBE = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
PERIOD = 2 * math.pi


def make_set(h, **overrides):
    zeros = np.zeros_like(h)
    fields = dict(param="x", time=1.0, total=h, eigenmode=h,
                  quasienergy=zeros, multiphoton=zeros)
    fields.update(overrides)
    return GeneratorSet(**fields)


def test_local_mean_flat_and_window_validation():
    np.testing.assert_allclose(local_mean(np.ones(50), 21), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        local_mean(np.ones(10), 4)


def test_variance_covariance_basics():
    # variances and symmetrized covariances are Re of the Gram matrix
    psi = np.array([1.0, 0.0], dtype=complex)
    gram = metrology._gram(np.array([SIGMA_Z, SIGMA_X, SIGMA_Y, SIGMA_X]), psi)[0].real
    assert gram[0, 0] == pytest.approx(0.0)
    assert gram[1, 1] == pytest.approx(1.0)
    assert gram[1, 2] == pytest.approx(0.0, abs=1e-12)
    assert gram[1, 3] == pytest.approx(1.0)


def test_qfi_simple_generators():
    c = 0.8
    est = qfi(make_set(c * SIGMA_Z), np.array([1, 1]) / math.sqrt(2))
    assert est.qfi_total == pytest.approx(4 * c * c)
    assert est.qfi_upper_bound == pytest.approx(4 * c * c)
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
    gen = EstimationSession(model, ["idle"], n_cut=2).generator_set("idle", 1.0)
    np.testing.assert_allclose(gen.total, 0, atol=1e-9)
    assert qfi(gen, 0).qfi_total == pytest.approx(0.0, abs=1e-9)


def test_timedomain_wrapper_refuses_derivatives_in_its_labels():
    # the wrapper's b0 and b1 are labels of frozen components: a derivative in
    # one is refused, not read as 0; omega moves the ladder and stays exact
    model = RashbaModel(1.0, 0.8, 1.0)
    wrapped = periodic_hamiltonian_from_timedomain(
        model.h_at, 1.0, 1, params={"b0": 1.0, "b1": 0.8, "omega": 1.0})
    for param in ("b0", "b1"):
        with pytest.raises(ValueError, match=(
                f"^parameter '{param}' of a time-domain wrapper is a label")):
            EstimationSession(wrapped, ["omega", param], n_cut=20)
    qfis = [EstimationSession(m, ["omega"], n_cut=20).evaluate(0, [PERIOD]).qfi[0, 0, 0]
            for m in (wrapped, model.hamiltonian())]
    assert qfis[0] == pytest.approx(qfis[1], rel=1e-10)
    assert qfis[0] == pytest.approx(170.31, abs=0.01)


def test_static_model_generator_is_textbook():
    # static H0 = a*sigma_x: h_a = t * sigma_x, all from eigen/quasi terms
    def comp(n, params):
        return params["a"] * SIGMA_X if n == 0 else np.zeros((2, 2))

    model = PeriodicHamiltonian(levels=2, omega=1.0, params={"a": 0.4},
                                fourier_component=comp, max_harmonic=0)
    t = 2.7
    gen = EstimationSession(model, ["a"], n_cut=3).generator_set("a", t)
    np.testing.assert_allclose(gen.total, t * SIGMA_X, atol=1e-6)
    np.testing.assert_allclose(gen.eigenmode + gen.quasienergy, gen.total,
                               atol=1e-6)
    np.testing.assert_allclose(gen.multiphoton, 0, atol=1e-9)


def test_generator_matches_ode_oracle_at_transition():
    model = RashbaModel(0.5, 0.5, 1.0).hamiltonian()
    floquet = EstimationSession(model, ["b0"]).generator_set("b0", PERIOD).total
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
    cfi = session.evaluate(0, [t]).cfi[0, 0]
    assert cfi == pytest.approx(4 * t * t, abs=1e-6)


def test_cfi_rejects_non_stroboscopic_time():
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                                ["b0"], n_cut=10)
    with pytest.raises(ValueError):
        session.cfi("b0", 1.0, PROBE)


@pytest.mark.parametrize("omega", [2.0, 0.5])
def test_stroboscopic_cfi_clock_is_the_drive_period(omega):
    model = RashbaModel(0.5, 0.5, omega).hamiltonian()
    session = EstimationSession(model, ["b0"], n_cut=10)
    period = 2 * math.pi / omega
    assert session.cfi("b0", period, PROBE) == session.evaluate(PROBE, [period]).cfi[0, 0]
    with pytest.raises(ValueError, match="drive period"):
        session.cfi("b0", period / 2, PROBE)


def test_report_rejects_arguments_that_differ_from_the_session():
    model = RashbaModel(0.7, 0.4, 1.0).hamiltonian()
    session = EstimationSession(model, ["b0"], n_cut=10)
    estimation_report(model, ["b0"], PROBE, PERIOD, n_cut=10, session=session)
    other = RashbaModel(0.8, 0.4, 1.0).hamiltonian()
    for name, kwargs in (("model", dict(model=other)),
                         ("params", dict(params=["b0", "b1"])),
                         ("n_cut", dict(n_cut=12))):
        args = dict(model=model, params=["b0"], probe=PROBE, t=PERIOD,
                    session=session)
        args.update(kwargs)
        with pytest.raises(ValueError, match=f"^{name}="):
            estimation_report(**args)


def test_unknown_parameter_is_named(monkeypatch):
    with pytest.raises(KeyError, match="'x' not in model params"):
        EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["x"],
                          n_cut=10)
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                                ["b0"], n_cut=10)
    monkeypatch.setattr(session, "_generators", None)  # no evaluation runs
    for call in (lambda: session.generator_set("b1", PERIOD),
                 lambda: session.cfi("b1", PERIOD, PROBE)):
        with pytest.raises(KeyError,
                           match=r"'b1' not in session params \['b0'\]"):
            call()


def test_repeated_parameters_are_refused(monkeypatch):
    # a repeated parameter would duplicate rows of the QFI matrix
    monkeypatch.setattr(metrology, "_drive_derivatives", None)  # refused before it
    with pytest.raises(ValueError,
                       match=r"^params \['b0', 'b1', 'b0'\] repeat \['b0'\]$"):
        EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                          ["b0", "b1", "b0"], n_cut=10)


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


def table_components(model, param, t, n_cut, delta):
    """dU/dx split by central differences of the amplitude tables, the
    eigenmode / quasienergy / multiphoton convention the exact split keeps."""
    x0 = model.params[param]
    sp, sm = (diagonalize(build_floquet_matrix(
        model.with_params(**{param: x0 + s * delta}), n_cut)) for s in (1, -1))
    b_p, b_m = amplitude_table(sp).entries, amplitude_table(sm).entries
    k = np.arange(-n_cut, n_cut + 1)
    g_p, g_m = np.exp(-1j * sp.eigenvalues * t), np.exp(-1j * sm.eigenvalues * t)
    h_p, h_m = np.exp(1j * k * sp.omega * t), np.exp(1j * k * sm.omega * t)
    gh_bar = 0.5 * (np.outer(g_p, h_p) + np.outer(g_m, h_m))
    b_bar = 0.5 * (b_p + b_m)
    return [x / (2.0 * delta) for x in (
        np.einsum("akgb,ak->gb", b_p - b_m, gh_bar),
        np.einsum("akgb,ak->gb", b_bar, np.outer(g_p - g_m, 0.5 * (h_p + h_m))),
        np.einsum("akgb,ak->gb", b_bar, np.outer(0.5 * (g_p + g_m), h_p - h_m)))]


# At delta = 1e-5 the reference carries a central-difference error of order
# delta^2 (at most 1e-7 of the scale at these points, falling 100x per decade
# of delta) and roundoff of order 1e-14 / delta; 1e-6 leaves a margin of ten.
@pytest.mark.parametrize("n_cut", [20, 30])
@pytest.mark.parametrize("model, params", [
    (RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RashbaModel(2.0, 1.2, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RotatingFieldModel(0.5, 1.0).hamiltonian(), ["b", "omega"]),
], ids=["rashba-transition", "rashba-strong", "rotating"])
def test_contraction_matches_amplitude_tables(model, params, n_cut):
    session = EstimationSession(model, params, n_cut=n_cut)
    for t in (1.3, PERIOD, 2.5 * PERIOD, 3 * PERIOD):
        _, du = session._derivatives(np.array([t]))
        for i, param in enumerate(params):
            reference = table_components(model, param, t, n_cut, 1e-5)
            scale = max(np.max(np.abs(r)) for r in reference)
            for name, got, want in zip(
                    ("eigenmode", "quasienergy", "multiphoton"),
                    du[0, i, 1:], reference):
                err = np.max(np.abs(got - want))
                assert err <= 1e-6 * scale, (param, t, name, err, scale)
            if param != "omega":
                assert not np.any(du[0, i, 3])
                assert not np.any(session.generator_set(param, t).multiphoton)


def test_report_evaluates_propagator_once_without_tables(monkeypatch):
    calls = {"modes_at": 0, "evolve": 0, "amplitude_table": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral.FloquetSpectrum, "modes_at",
                        counting("modes_at", spectral.FloquetSpectrum.modes_at))
    # every module binding, so an imported name is counted as well
    for name, owner in (("evolve", propagator), ("amplitude_table", spectral)):
        fn = counting(name, getattr(owner, name))
        for module in (owner, metrology):
            monkeypatch.setattr(module, name, fn, raising=False)
    estimation_report(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                      ["b0", "b1", "omega"], PROBE, PERIOD, n_cut=12)
    assert calls == {"modes_at": 1, "evolve": 0, "amplitude_table": 0}


def test_evolve_is_the_sessions_propagator():
    session = EstimationSession(RashbaModel(2.3, 2.1, 1.0).hamiltonian(), ["b0"])
    for t in (0.37, PERIOD, 9.1, 40.3):
        np.testing.assert_array_equal(evolve(session.center, t).u_matrix,
                                      session.evaluate(PROBE, [t]).u[0])


def test_session_diagonalizes_once(monkeypatch):
    sizes = []
    real_eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    EstimationSession(RashbaModel(0.7, 0.4, 1.0).hamiltonian(),
                      ["b0", "b1", "omega"], n_cut=20)
    assert sizes == [2 * 41]


def test_session_selects_modes_once(monkeypatch):
    calls = []
    select = spectral.FloquetSpectrum.__post_init__

    def counting(self):
        calls.append(self.n_cut)
        select(self)

    monkeypatch.setattr(spectral.FloquetSpectrum, "__post_init__", counting)
    session = EstimationSession(RashbaModel(0.7, 0.4, 1.0).hamiltonian(),
                                ["b0", "b1", "omega"], n_cut=20)
    session.evaluate(PROBE, [1.3, PERIOD])
    session.generator_set("b0", PERIOD)
    assert calls == [20]


def test_unknown_parameter_is_named_before_any_sambe_work(monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("diagonalized before naming the parameter")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(metrology, "build_floquet_matrix", fail)
    with pytest.raises(KeyError, match="parameter 'b9' not in model params"):
        EstimationSession(RashbaModel(0.7, 0.4, 1.0).hamiltonian(), ["b0", "b9"])


def cubic_model(a):
    """H^(0) = a^3 sigma_z, H^(+-1) = 0.3 sigma_x: cubic in a."""
    def comp(n, params):
        if n == 0:
            return params["a"] ** 3 * SIGMA_Z
        return 0.3 * SIGMA_X if abs(n) == 1 else np.zeros((2, 2))

    return PeriodicHamiltonian(levels=2, omega=1.0, params={"a": a},
                               fourier_component=comp, max_harmonic=1)


def test_nonquadratic_drive_derivative_is_refused(monkeypatch):
    # the |x|/2 difference reads 3.25 for d(a^3)/da = 3 at a = 1, which made
    # the session report QFI 462.80 against the oracle's 394.34
    monkeypatch.setattr(np.linalg, "eigh", None)   # refused before any eigh
    with pytest.raises(ValueError, match="dH/da is not exact.*quadratic in 'a'"):
        EstimationSession(cubic_model(1.0), ["a"])


def test_rashba_drive_derivatives_are_exact():
    model = RashbaModel(0.7, 0.4, 1.0).hamiltonian()
    d_h = metrology._drive_derivatives(model, ["b0", "b1", "omega"])
    want = np.zeros((3, 3, 2, 2), dtype=complex)       # [param, n + 1]
    want[0, 0], want[0, 2] = 0.5 * (SIGMA_X + 1j * SIGMA_Y), 0.5 * (SIGMA_X - 1j * SIGMA_Y)
    want[1, 1] = -SIGMA_X
    np.testing.assert_allclose(d_h, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("b0, b1", [(0.5, 0.5), (2.0, 1.0), (1.0, 3.0),
                                    (5.0, 5.0)])
def test_reduced_propagator_matches_full_sum(b0, b1):
    # the full Sambe sum holds exact replicas only when n_cut is well past the
    # modes' reach (at (5, 5) and n_cut 27, where the edge weight is below
    # EDGE_TOL, it is off by 8e-6), so it is taken over every eigenpair of the
    # dense eigh of M_50 (the session's spectrum holds only the N modes of its
    # window); the reduced propagator at n_cut 50 and at "auto" must match it
    model = RashbaModel(b0, b1, 1.0).hamiltonian()
    session, auto = EstimationSession(model, [], 50), EstimationSession(model, [])
    matrix = build_floquet_matrix(model, 50)
    spectrum = FloquetSpectrum(*np.linalg.eigh(matrix.data), 50, matrix.levels,
                               matrix.omega)
    view = spectrum.sector_view()                       # [k, level, alpha]
    for t in (1.3, PERIOD, 2 * PERIOD, 20.0):
        # sum over all dim Sambe eigenvectors: <g,k|e^{-iMt}|b,0> e^{ikwt}
        ck = np.einsum("kga,a,ba->kgb", view, np.exp(-1j * spectrum.eigenvalues * t),
                       view[spectrum.n_cut].conj())
        full = np.tensordot(np.exp(1j * spectrum.k * spectrum.omega * t), ck, axes=(0, 0))
        np.testing.assert_allclose(session.evaluate(PROBE, [t]).u[0], full,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(evolve(session.center, t).u_matrix, full,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(auto.evaluate(PROBE, [t]).u[0], full,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(evolve(auto.center, t).u_matrix, full,
                                   rtol=0, atol=1e-12)


def test_exact_sambe_degeneracies_are_finite():
    # eps_+ - eps_- = omega or 2 omega: replicas of the two branches meet
    def comp(n, params):
        return params["a"] * SIGMA_X if n == 0 else np.zeros((2, 2))

    static = PeriodicHamiltonian(levels=2, omega=1.0, params={"a": 0.5},
                                 fourier_component=comp, max_harmonic=0)
    cases = [(static, "a", SIGMA_X)] + [
        (RashbaModel(0.0, b1, 1.0).hamiltonian(), "b1", -SIGMA_X)
        for b1 in (0.5, 1.0)]
    for model, param, direction in cases:
        session = EstimationSession(model, [param], n_cut=10)
        for t in (1.3, PERIOD, 3 * PERIOD):
            gen = session.generator_set(param, t)
            assert gen.presym_defect <= 1e-12
            np.testing.assert_allclose(gen.total, t * direction,
                                       rtol=0, atol=1e-12)


def random_drive(levels, max_harmonic, seed):
    """A random Hermitian drive in parameters a (linear), c (quadratic in
    H^(0), linear in every H^(n), n != 0) and omega."""
    rng = np.random.default_rng(seed)

    def matrix():
        return 0.3 * (rng.standard_normal((levels, levels))
                      + 1j * rng.standard_normal((levels, levels)))

    static = [m + m.conj().T for m in (matrix() for _ in range(3))]
    drives = [[matrix() for _ in range(3)] for _ in range(max_harmonic)]

    def comp(n, params):
        a, c = params["a"], params["c"]
        if n == 0:
            return static[0] + a * static[1] + c * c * static[2]
        d = drives[abs(n) - 1]
        h = d[0] + a * d[1] + c * d[2]
        return h if n > 0 else h.conj().T

    return PeriodicHamiltonian(levels=levels, omega=1.3,
                               params={"a": 0.7, "c": 0.6, "omega": 1.3},
                               fourier_component=comp, max_harmonic=max_harmonic)


RK4_4000 = OracleConfig(4000, "rk4")


@pytest.mark.parametrize("levels, max_harmonic", [(3, 2), (4, 1)])
def test_general_drives_match_the_ode_oracle(levels, max_harmonic):
    # N > 2 levels and a second harmonic, against an RK4 finite difference
    model = random_drive(levels, max_harmonic, seed=levels)
    session = EstimationSession(model, ["a", "c", "omega"], n_cut=20)
    for t in (0.37 * model.period, model.period, 2.6 * model.period):
        for param in session.params:
            gen = session.generator_set(param, t)
            assert gen.component_sum_defect() <= 1e-12
            direct = generator_direct(model, param, t, delta=1e-5, cfg=RK4_4000)
            err = np.max(np.abs(gen.total - direct)) / np.max(np.abs(direct))
            assert err <= 1e-6, (param, t, err)


# quasienergies degenerate mod omega: eps_+ - eps_- = omega or 2 omega
DEGENERATE = {"rashba-0-0.5": RashbaModel(0.0, 0.5), "rashba-0-1": RashbaModel(0.0, 1.0),
              "rashba-0.866-0": RashbaModel(math.sqrt(3) / 2, 0.0),
              "rotating-0.866": RotatingFieldModel(math.sqrt(3) / 2)}


@pytest.mark.parametrize("n_cut", [10, 30])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_exact_degeneracies_are_certified_and_exact(name, n_cut):
    physical = DEGENERATE[name]
    model = physical.hamiltonian()
    session = EstimationSession(model, list(model.params), n_cut=n_cut)  # certified
    assert session.center.folded_gap() <= 8e-16
    for t in (0.37 * PERIOD, PERIOD, 2.6 * PERIOD):
        u_direct = propagate_direct(physical.h_at, t, RK4_4000)
        assert np.max(np.abs(evolve(session.center, t).u_matrix - u_direct)) <= 1e-9
        for param in session.params:
            h = session.generator_set(param, t).total
            direct = generator_direct(model, param, t, delta=1e-5, cfg=RK4_4000)
            err = np.max(np.abs(h - direct))
            assert err <= 1e-7 * max(1.0, np.max(np.abs(direct))), (param, t, err)


@pytest.mark.parametrize("b0, b1", [(0.5, 0.5), (2.0, 1.0), (1.0, 3.0),
                                    (5.0, 5.0)])
def test_stroboscopic_quasienergy_generator(b0, b1):
    # at t = l T: h_quasienergy = l T sum_a (d eps_a / dx) |u_a(0)><u_a(0)|
    model = RashbaModel(b0, b1, 1.0).hamiltonian()
    session = EstimationSession(model, ["b0", "b1"])
    modes = session.center.modes
    u0 = session.center.sector_view()[:, :, modes].sum(axis=0)
    projectors = np.einsum("ga,ha->agh", u0, u0.conj())
    # eigenvalue roundoff of order |M| eps ~ 1e-14 limits d_eps to ~1e-9
    delta = 1e-5
    for param in ("b0", "b1"):
        eps = []
        for x in (model.params[param] + delta, model.params[param] - delta):
            spectrum = diagonalize(build_floquet_matrix(
                model.with_params(**{param: x}), session.n_cut))
            eps.append(spectrum.eigenvalues[spectrum.modes])
        d_eps = (eps[0] - eps[1]) / (2 * delta)
        for cycles in (1, 3, 10):
            t = cycles * PERIOD
            want = t * np.einsum("a,agh->gh", d_eps, projectors)
            got = session.generator_set(param, t).quasienergy
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * t)


def test_under_truncation_is_reported_by_name():
    # today's symptom at (5, 5), n_cut 8 was "CFI exceeds QFI"
    model = RashbaModel(5.0, 5.0, 1.0).hamiltonian()
    with pytest.raises(TruncationError, match="n_cut=8"):
        estimation_report(model, ["b0", "b1", "omega"], PROBE, PERIOD, n_cut=8)


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
            assert est.cfi == session.evaluate(PROBE, [t]).cfi[0, params.index(p)]
            assert est.qfi_total == alone.qfi_total
            assert est.qfi_upper_bound == alone.qfi_upper_bound
        assert report.incompatibility[("b0", "omega")] == incompatibility(
            gens["b0"], gens["omega"], PROBE)


# The per-function formulas the kernel replaced, kept as its reference: the
# variance/covariance split of the QFI, the commutator incompatibility and
# the level-population CFI loop.
def reference_qfi_parts(gen, psi):
    def mean(op):
        return float(np.real(psi.conj() @ op @ psi))

    def cov(a, b):
        return mean(0.5 * (a @ b + b @ a)) - mean(a) * mean(b)

    e, q, m = gen.eigenmode, gen.quasienergy, gen.multiphoton
    return [4.0 * cov(gen.total, gen.total), 4.0 * cov(e, e), 4.0 * cov(q, q),
            4.0 * cov(m, m), 8.0 * (cov(e, q) + cov(e, m) + cov(q, m))]


def reference_omega(h_l, h_m, psi):
    return float(np.imag(psi.conj() @ (h_l @ h_m - h_m @ h_l) @ psi))


def reference_cfi(u, du, psi):
    amps, damps = u @ psi, du @ psi
    fisher = 0.0
    for p, dp in zip(np.abs(amps) ** 2, 2.0 * np.real(amps.conj() * damps)):
        if p >= metrology.CFI_PROB_FLOOR:
            fisher += dp * dp / p
    return fisher


@pytest.mark.parametrize("model, params", [
    (RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RashbaModel(2.0, 1.0, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RashbaModel(1.0, 3.0, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RashbaModel(5.0, 5.0, 1.0).hamiltonian(), ["b0", "b1", "omega"]),
    (RotatingFieldModel(0.5, 1.0).hamiltonian(), ["b", "omega"]),
], ids=["rashba-0.5-0.5", "rashba-2-1", "rashba-1-3", "rashba-5-5", "rotating"])
def test_kernel_matches_per_function_formulas(model, params):
    # 1e-12 relative to each quantity's rounding scale 4 max |h|^2
    session = EstimationSession(model, params, n_cut=30)
    times = [PERIOD, 2 * PERIOD, 5 * PERIOD, 0.7, 4.1, 13.3]
    grid = session.evaluate(PROBE, times)
    for j, t in enumerate(times):
        gens = [session.generator_set(p, t) for p in params]
        u, du = session._derivatives(np.array([t]))
        scale = 4.0 * max(np.linalg.norm(g.total, 2) ** 2 for g in gens)
        for i, gen in enumerate(gens):
            np.testing.assert_allclose(grid.qfi[j, i], reference_qfi_parts(gen, PROBE),
                                       rtol=1e-12, atol=1e-12 * scale)
            assert grid.qfim[j, i, i] == grid.qfi[j, i, 0]
            assert grid.cfi[j, i] == pytest.approx(
                reference_cfi(u[0], du[0, i, 0], PROBE), rel=1e-12, abs=1e-12 * scale)
            for k in range(i + 1, len(params)):
                assert grid.omega[j, i, k] == pytest.approx(
                    reference_omega(gen.total, gens[k].total, PROBE),
                    rel=1e-12, abs=1e-12 * scale)
                assert grid.omega[j, k, i] == -grid.omega[j, i, k]


def test_grid_times_do_not_depend_on_each_other():
    session = EstimationSession(RashbaModel(0.7, 0.4, 1.0).hamiltonian(),
                                ["b0", "b1", "omega"], n_cut=20)
    times = np.linspace(0.1, 6 * PERIOD, 2 * TIME_BLOCK + 5)  # three blocks
    grid = session.evaluate(PROBE, times)
    fields = ("u", "qfi", "qfim", "omega", "bound", "cfi", "defects")
    for j, t in enumerate(times):
        alone = session.evaluate(PROBE, [t])
        for name in fields:
            assert np.array_equal(getattr(grid, name)[j], getattr(alone, name)[0]), (j, name)
    backwards = session.evaluate(PROBE, times[::-1])
    for name in fields:
        assert np.array_equal(getattr(backwards, name), getattr(grid, name)[::-1]), name


def test_invariant_violation_names_the_failing_time(monkeypatch):
    session = EstimationSession(RashbaModel(0.7, 0.4, 1.0).hamiltonian(),
                                ["b0", "b1"], n_cut=12)
    real_bounds = metrology._bounds

    def bounds(totals):
        out = real_bounds(totals)
        out[2, 1] = out[3] = -1.0  # the third time's second parameter, the fourth's both
        return out

    monkeypatch.setattr(metrology, "_bounds", bounds)
    with pytest.raises(InvariantViolation,
                       match=r"upper bound -1\.0 for 'b1' at t=3\.5$"):
        session.evaluate(PROBE, [1.5, 2.5, 3.5, 4.5])
    # as verdicts, one per time, each naming that time's first failing parameter
    _, verdicts = session._grid(PROBE, np.array([1.5, 2.5, 3.5, 4.5]))
    assert verdicts[:2] == [None, None]
    assert str(verdicts[2]).endswith("upper bound -1.0 for 'b1' at t=3.5")
    assert str(verdicts[3]).endswith("upper bound -1.0 for 'b0' at t=4.5")


@pytest.mark.parametrize("b0, b1", [(0.5, 0.5), (2.0, 1.0), (3.0, 3.2),
                                    (1.0, 3.0)])
def test_pure_qubit_qfim_identities(b0, b1):
    # a pure qubit's Gram matrix has rank 1: det F_lm = 4 Omega_lm^2 for every
    # pair, and the 3 x 3 QFI matrix has rank <= 2
    session = EstimationSession(RashbaModel(b0, b1, 1.0).hamiltonian(),
                                ["b0", "b1", "omega"])
    grid = session.evaluate(PROBE, np.linspace(0.5, 4 * PERIOD, 20))
    for f, omega in zip(grid.qfim, grid.omega):
        for l, m in ((0, 1), (0, 2), (1, 2)):
            det = f[l, l] * f[m, m] - f[l, m] ** 2
            assert abs(det - 4.0 * omega[l, m] ** 2) <= 1e-10 * f[l, l] * f[m, m]
        lam = np.linalg.eigvalsh(f)
        assert abs(lam[0]) <= 1e-10 * lam[-1]


@pytest.mark.parametrize("probe", [-1, 2, np.array([1.0, 0.0, 0.0])],
                         ids=["negative-index", "index-past-levels", "length-3"])
def test_bad_probes_are_named_once_per_report(probe, monkeypatch):
    calls = []
    real_as_probe = metrology._as_probe

    def as_probe(*args):
        calls.append(args)
        return real_as_probe(*args)

    monkeypatch.setattr(metrology, "_as_probe", as_probe)
    model = RashbaModel(0.5, 0.5, 1.0).hamiltonian()
    with pytest.raises(ValueError, match=r"^probe .*levels=2$"):
        estimation_report(model, ["b0", "b1", "omega"], probe, PERIOD, n_cut=10)
    assert len(calls) == 1


def test_empty_time_grid_is_named():
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["b0"],
                                n_cut=10)
    with pytest.raises(ValueError, match="at least one time"):
        session.evaluate(PROBE, [])


def test_cfi_with_a_vanishing_outcome_is_an_undefined_verdict(monkeypatch):
    # for b0, P_1 = 1e-14 is below the floor while dP_1 = 2e-6 is not: the true
    # term 4 (d|a_1|)^2 = 400 cannot be read from P and dP, so b0's CFI is
    # undefined; for b1, dP_1 = 0 and the outcome drops out
    psi = np.array([1.0, 0.0], dtype=complex)
    u = np.array([[[1.0, 0.0], [1e-7, 1.0]]], dtype=complex)
    du = np.zeros((1, 2, 2, 2), dtype=complex)
    du[0, :, 1, 0] = 10.0, 0.0
    du[0, :, 0, 0] = 0.5
    fisher = metrology._cfi(u, du, psi)
    assert np.isnan(fisher[0, 0]) and fisher[0, 1] == pytest.approx(1.0, rel=1e-12)

    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(),
                                ["b0", "b1"], n_cut=10)
    parts = np.zeros((1, 2, 4, 2, 2), dtype=complex)
    parts[:, :, 0] = parts[:, :, 1] = du                # all eigenmode
    monkeypatch.setattr(session, "_derivatives", lambda times: (u, parts))
    with pytest.raises(InvariantViolation, match=(
            r"^CFI for 'b0' is undefined: an outcome with probability below 1e-12 "
            r"has a derivative above 1e-6 at t=1\.0$")):
        session.evaluate(psi, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_negative_or_non_finite_time_is_named(bad, monkeypatch):
    # the bad time sits in the second block of TIME_BLOCK times: named before
    # the first block is evaluated
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["b0"],
                                n_cut=10)
    monkeypatch.setattr(session, "_derivatives", None)
    with pytest.raises(ValueError, match=f"^t={bad!r} must be finite and non-negative"):
        session.evaluate(PROBE, [PERIOD] * TIME_BLOCK + [bad])


@pytest.fixture(scope="module")
def b0_session():
    return EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["b0"],
                             n_cut=10)


TIME_ENTRY_POINTS = {
    "evolve": lambda s, t: evolve(s.center, t),
    "transition_probability": lambda s, t: transition_probability(s.center, t, 0, 1),
    "averaged_probability_shirley":
        lambda s, t: averaged_probability_shirley(s.center, t, 0, 1),
    "propagate_direct": lambda s, t: propagate_direct(s.model.h_at, t),
    "generator_direct": lambda s, t: generator_direct(s.model, "b0", t),
    "evaluate": lambda s, t: s.evaluate(PROBE, [t]),
    "estimation_report":
        lambda s, t: estimation_report(s.model, ["b0"], PROBE, t, session=s),
    "generator_set": lambda s, t: s.generator_set("b0", t),
    "cfi-stroboscopic": lambda s, t: s.cfi("b0", t, PROBE),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_every_time_entry_point_rejects_bad_times(entry, bad, b0_session,
                                                  monkeypatch):
    def work(*_args, **_kwargs):
        raise AssertionError("work started before the time was checked")

    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (reference, "_hamiltonians"),
                        (EstimationSession, "_derivatives")):
        monkeypatch.setattr(owner, name, work)
    with pytest.raises(ValueError, match=f"^t={bad!r} must be finite and non-negative$"):
        TIME_ENTRY_POINTS[entry](b0_session, bad)


def test_non_finite_estimate_is_an_invariant_violation():
    # a finite time so late that the generators overflow
    session = EstimationSession(RashbaModel(0.5, 0.5, 1.0).hamiltonian(), ["b0"],
                                n_cut=10)
    with pytest.raises(InvariantViolation,
                       match=r"^non-finite QFI .* for 'b0' at t=1e\+300$"):
        session.evaluate(PROBE, [PERIOD, 1e300, 2e300])


@pytest.mark.parametrize("b0, b1", [(0.5, 1.0), (1.5, 1.0), (1.5, 3.0), (3.0, 3.0),
                                    (4.5, 3.0), (2.5, 5.0), (5.0, 5.0), (7.5, 5.0),
                                    (10.0, 10.0), (20.0, 20.0)])
def test_auto_truncation_matches_a_deep_one(b0, b1):
    # the QFI matrix at the resolved n_cut against n_cut 120 (200 at (20, 20))
    model = RashbaModel(b0, b1, 1.0).hamiltonian()
    times = [PERIOD, 2 * PERIOD, 0.37 * PERIOD]
    auto = EstimationSession(model, ["b0", "b1", "omega"]).evaluate(PROBE, times)
    deep = EstimationSession(model, ["b0", "b1", "omega"],
                             200 if b0 == 20 else 120).evaluate(PROBE, times)
    np.testing.assert_allclose(auto.qfi[..., 0], deep.qfi[..., 0], rtol=1e-10, atol=0)
    scale = np.abs(deep.qfim).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(auto.qfim - deep.qfim) <= 1e-10 * scale)


def test_auto_session_reports():
    # the session keeps the requested "auto"; reports record the n_cut used
    model = RashbaModel(2.0, 1.5, 1.0).hamiltonian()
    params = ["b0", "b1", "omega"]
    session = EstimationSession(model, params, metrology.DEFAULT_N_CUT)
    assert metrology.DEFAULT_N_CUT == session.n_cut == "auto"
    assert session.center.n_cut < 50 and session.center.edge_weight < spectral.EDGE_TOL
    report = estimation_report(model, params, PROBE, PERIOD, n_cut="auto", session=session)
    assert report.n_cut == session.center.n_cut
    assert estimation_report(model, params, PROBE, PERIOD).qfim.tolist() == \
        report.qfim.tolist()
    with pytest.raises(ValueError, match="^n_cut=30 differs from the session's 'auto'$"):
        estimation_report(model, params, PROBE, PERIOD, n_cut=30, session=session)
    explicit = EstimationSession(model, params, 30)
    with pytest.raises(ValueError, match="^n_cut='auto' differs from the session's 30$"):
        estimation_report(model, params, PROBE, PERIOD, n_cut="auto", session=explicit)


WINDOWED = [(f"rashba-{b0:g}-{b1:g}", RashbaModel(b0, b1, 1.0).hamiltonian(), n_cut)
            for b0, b1 in [(0.5, 1.0), (3.0, 3.0), (7.5, 5.0), (10.0, 10.0), (20.0, 20.0)]
            for n_cut in (50, 51, 120, 200) if b0 < 20 or n_cut > 51]
WINDOWED += [("rotating", RotatingFieldModel(0.5, 1.0).hamiltonian(), n_cut)
             for n_cut in (50, 200)]
WINDOWED += [(f"drive-{levels}-{h}", random_drive(levels, h, seed=levels), 50)
             for levels, h in [(3, 2), (4, 1)]]


@pytest.mark.parametrize("name, model, n_cut", WINDOWED,
                         ids=[f"{name}-{n}" for name, _, n in WINDOWED])
def test_window_matches_the_dense_solve(name, model, n_cut, monkeypatch):
    # every estimate from the window's N modes is within 1e-12 of the dense
    # eigh of M_n: U absolutely, and the rest against their parameter's
    # largest QFI or bound over the times (the QFI-matrix and Omega entries
    # against sqrt(F_pp F_qq), which bounds them).  Measured at most 7.1e-13,
    # a CFI at (7.5, 5) and n_cut 120, where the dense solves at 50 and 200
    # differ from the one at 120 by up to 6.5e-13.  (10, 10) at n_cut 50 and
    # 51 is criterion 08's pair; (20, 20) needs a window of 72, above 50 and
    # 51 (see test_window_keeps_the_refusals).
    params = list(model.params)
    times = [0.37 * model.period, model.period, 2.6 * model.period]
    probe = np.eye(model.levels)[0]
    windowed = EstimationSession(model, params, n_cut)
    assert windowed.center.window == build_floquet_matrix(model, "auto").n_cut < n_cut
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_window", lambda matrix: matrix.n_cut)
        dense = EstimationSession(model, params, n_cut)
    assert dense.center.window == n_cut
    got, want = windowed.evaluate(probe, times), dense.evaluate(probe, times)
    qfi = want.qfi[..., 0].max(axis=0)
    pair = np.sqrt(np.outer(qfi, qfi))
    scales = {"u": 1.0, "qfi": qfi[:, None], "qfim": pair, "omega": pair,
              "bound": want.bound.max(axis=0), "cfi": qfi}
    for quantity, scale in scales.items():
        error = np.abs(getattr(got, quantity) - getattr(want, quantity)) / scale
        assert error.max() <= 1e-12, (quantity, error.max())
