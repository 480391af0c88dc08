"""Time-evolution operator mapped back from Sambe space, and probabilities."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sambe import _check_times
from .spectral import DEFECT_TOL, FloquetSpectrum


@dataclass
class PropagatorSample:
    """U(t) in the physical Hilbert space plus its truncation diagnostics."""

    time: float
    u_matrix: np.ndarray = field(repr=False)
    truncation_defect: float = 0.0

    @property
    def flagged(self) -> bool:
        """True when the unitarity defect signals insufficient truncation."""
        return self.truncation_defect > DEFECT_TOL


def _sideband_amplitudes(spectrum: FloquetSpectrum, t: float) -> np.ndarray:
    """C_k(t)[gamma, beta] = <gamma,k|exp(-i H_F t)|beta,0>."""
    _check_times(t)
    phases = np.exp(-1j * spectrum.eigenvalues * t)
    view = spectrum.sector_view()                      # [k, gamma, alpha]
    inp = view[spectrum.n_cut].conj()                  # [beta, alpha]
    # (dim, N) = (D * phases) @ D_in^dagger, reshaped per sector
    flat = (spectrum.eigenvectors * phases[None, :]) @ inp.T
    return flat.reshape(spectrum.n_sectors, spectrum.levels, spectrum.levels)


def evolve(spectrum: FloquetSpectrum, t: float) -> PropagatorSample:
    """Reconstruct U(t)[gamma, beta] = sum_{alpha,k} B e^{-i lam t} e^{i k w t}.

    Valid at arbitrary t; stroboscopic times t = l T are the special case
    where all sideband phase factors collapse to unity.  A unitarity defect
    above `DEFECT_TOL` flags (never hides) an insufficient cutoff.
    """
    ck = _sideband_amplitudes(spectrum, t)
    k = np.arange(-spectrum.n_cut, spectrum.n_cut + 1)
    u = np.tensordot(np.exp(1j * k * spectrum.omega * t), ck, axes=(0, 0))
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(spectrum.levels))))
    return PropagatorSample(time=t, u_matrix=u, truncation_defect=defect)


@dataclass
class TransitionProbability:
    """P plus its same-sector and cross-sector interference addends."""

    total: float
    sideband_sum: float
    interference: float


def transition_probability(spectrum: FloquetSpectrum, t: float,
                           beta: int, gamma: int) -> TransitionProbability:
    """P_{beta gamma}(t) = |<gamma|U(t)|beta>|^2, with its decomposition.

    The same-sector term sum_k |C_k|^2 and the sideband-interference
    remainder are exported separately for diagnostics.
    """
    ck = _sideband_amplitudes(spectrum, t)[:, gamma, beta]
    k = np.arange(-spectrum.n_cut, spectrum.n_cut + 1)
    amp = np.sum(ck * np.exp(1j * k * spectrum.omega * t))
    total = float(np.abs(amp) ** 2)
    same = float(np.sum(np.abs(ck) ** 2))
    return TransitionProbability(total=total, sideband_sum=same,
                                 interference=total - same)


def averaged_probability_shirley(spectrum: FloquetSpectrum, t: float,
                                 beta: int, gamma: int) -> float:
    """Period-averaged probability P^(1)(t) = sum_k |C_k(t)|^2.

    Averaging kills the cross-sector hybridization while the coherence
    between eigenvalues in the same sector survives.
    """
    return transition_probability(spectrum, t, beta, gamma).sideband_sum


def averaged_probability_longtime(spectrum: FloquetSpectrum,
                                  beta: int, gamma: int) -> float:
    """Long-time average P^(2) = sum_{alpha,k} |B_{alpha k}|^2 (resonances only)."""
    view = spectrum.sector_view()
    out_w = np.sum(np.abs(view[:, gamma, :]) ** 2, axis=0)    # over k, per alpha
    in_w = np.abs(view[spectrum.n_cut, beta, :]) ** 2
    return float(np.sum(out_w * in_w))
