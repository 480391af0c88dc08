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
        """True when the unitarity defect of U exceeds DEFECT_TOL."""
        return self.truncation_defect > DEFECT_TOL


def evolve(spectrum: FloquetSpectrum, t: float) -> PropagatorSample:
    """U(t) = sum_a u_a(t) e^{-i eps_a t} u_a(0)^dag over the N physical
    modes, u_a(t) = sum_k phi_{a,k} e^{ikwt}.

    Valid at arbitrary t; at stroboscopic times t = l T the sideband phases
    collapse to unity.  The unitarity defect is kept as health data; the
    spectrum's construction has already refused an insufficient cutoff.
    """
    _check_times(t)
    phi = spectrum.sector_view()[:, :, spectrum.modes]     # [k, level, mode]
    u_t = np.exp(1j * spectrum.k * spectrum.omega * t) @ phi.reshape(len(phi), -1)
    g = np.exp(-1j * spectrum.eigenvalues[spectrum.modes] * t)
    u = (u_t.reshape(phi.shape[1:]) * g) @ phi.sum(axis=0).conj().T
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
    """P_{beta gamma}(t) = |sum_k C_k(t) e^{ikwt}|^2, with its decomposition.

    C_k(t) = <gamma,k|e^{-iMt}|beta,0> sums the replicas s_m phi_a (the mode
    shifted by m sectors, at eps_a + m w) of the N physical modes: the
    convolution sum_{a,m} phi_{a,k-m,gamma} phi*_{a,-m,beta} e^{-i(eps_a+mw)t},
    k from -2 n_cut to 2 n_cut.  The same-sector term sum_k |C_k|^2 and the
    sideband-interference remainder are exported separately for diagnostics.
    """
    _check_times(t)
    phi = spectrum.sector_view()[:, :, spectrum.modes]     # [k, level, mode]
    phase = np.exp(1j * spectrum.k * spectrum.omega * t)
    g = np.exp(-1j * spectrum.eigenvalues[spectrum.modes] * t)
    inp = phi[::-1, beta].conj() * phase.conj()[:, None]   # [m, mode]
    ck = sum(g[a] * np.convolve(inp[:, a], phi[:, gamma, a]) for a in range(len(g)))
    # sum_k C_k e^{ikwt} factors into sum_a e^{-i eps_a t} u_a(t) u_a(0)^*
    amp = np.sum(g * (phase @ phi[:, gamma]) * phi[:, beta].sum(axis=0).conj())
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
    """Long-time average P^(2) = sum_a w_{a gamma} w_{a beta} (resonances
    only), w_{ag} = sum_k |phi_{a,k,g}|^2: the sum of |<gamma,k|lam><lam|beta,0>|^2
    over every replica lam of the N physical modes."""
    w = np.sum(np.abs(spectrum.sector_view()[:, :, spectrum.modes]) ** 2, axis=0)
    return float(np.sum(w[gamma] * w[beta]))
