"""Claims about the Rashba interferometer's transition that the engine's
numbers carry, pinned beyond the acceptance criteria of test_acceptance.py."""
import numpy as np
import pytest

from floqmet.metrology import EstimationSession
from floqmet.models import RashbaModel


def b0_quasienergy_slope(b0: float, b1: float) -> float:
    """max_a |d eps_a / d b0| at (b0, b1), omega 1, n_cut "auto": the
    Hellmann-Feynman coupling W^(0)_aa that the session's quasienergy
    generator reads (`EstimationSession._d_eps`)."""
    session = EstimationSession(RashbaModel(b0, b1, 1.0).hamiltonian(), ["b0"])
    return float(np.abs(session._d_eps[0]).max())


@pytest.mark.parametrize("s", np.arange(1, 21) / 2)
def test_quasienergies_do_not_move_with_b0_on_the_transition_line(s):
    """On the TPT boundary b0 = b1 = s the quasienergies are stationary in b0:
    |d eps / d b0| measured at most 6.4e-15 for s = 0.5, 1, ..., 10 (1.0e-15 at
    s = 1), so there the b0 generator has no quasienergy part, and
    `qfi_b0_quasienergy` is roundoff (below 2.1e-29 at (3, 3) and t up to 2.6 T).

    No symmetry argument was found.  The zero is not a reflection of eps in
    b0 about the line: at b1 = 1, eps = -0.215414 at b0 = 0.95 and -0.215746
    at b0 = 1.05 (the positive branch mirrors it).
    """
    assert b0_quasienergy_slope(s, s) <= 1e-13


def test_quasienergies_move_with_b0_off_the_transition_line():
    """Off the line the slope is not zero: 0.0025 at (b0, b1) = (1.05, 1)."""
    assert b0_quasienergy_slope(1.05, 1.0) >= 1e-3
