"""The benchmark's tracer patches floqmet functions by name, so a deleted or
renamed name must fail here rather than in a traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

import floqmet
from floqmet import cli, metrology, propagator, reference, sambe, spectral

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_hooks_resolve_and_uninstall_restores():
    for name in floqmet.__all__:
        getattr(floqmet, name)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (floqmet, cli, metrology, propagator, reference, sambe, spectral,
              metrology.EstimationSession, np.linalg)
    before = [dict(vars(owner)) for owner in owners]
    qfi, init = metrology.qfi, metrology.EstimationSession.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert metrology.qfi is not qfi
        assert metrology.EstimationSession.__init__ is not init
        # one traced call per hooked layer, so a changed signature fails here
        tracer.op = 0
        model = floqmet.RashbaModel(0.5, 0.5, 1.0)
        reference.propagate_direct(model.h_at, 1.0, reference.OracleConfig(4))
        ham = model.hamiltonian()
        propagator.evolve(spectral.diagonalize(sambe.build_floquet_matrix(ham, 6)), 1.0)
        metrology.estimation_report(ham, ["b0"], 0, 1.0, n_cut=6)
        metrics = tracer.layer_metrics([1.0])
        assert metrics["reference.propagate_direct_s"] > 0
        assert metrics["metrology.report_s"] > 0
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[attr] is value for attr, value in saved.items())
