"""Diagonalization of the truncated Floquet matrix and eigen-bookkeeping."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .reference import unitarity_defect
from . import sambe
from .sambe import FloquetMatrix

DEFECT_TOL = 1e-6
# An "auto" truncation grows until the physical modes' largest edge weight is
# below EDGE_TOL: on Rashba points up to (b0, b1) = (20, 20) the QFI then
# matches n_cut 120 (200 at (20, 20)) within 4.1e-12 relative; 1e-20 reached
# 1.5e-10.
EDGE_TOL = 1e-24
# A window's N modes are kept when each, zero-padded, is an eigenpair of M_n
# within RESIDUAL_TOL eps ||M_w||_inf (see `_windowed`): like the residual once
# n >= w + h, that limit does not depend on n.  Kept windows read 0.6-3.2 of
# that unit (Rashba, (0.5, 1) to (30, 1), n_cut 50-400); windows cut short
# read 27 to 1e9 and moved U(T) by up to 1e-15 per unit against the dense
# solve at n_cut 120, so 16 allows about 1.6e-14.
RESIDUAL_TOL = 16


class DiagonalizationError(RuntimeError):
    """Hermitian eigensolver failure, with condition diagnostics attached."""


class TruncationError(ValueError):
    """The Fourier cutoff is too small to hold the physical Floquet modes."""


def fold_to_fbz(lambdas, omega: float):
    """Map (quasi)energies into the first Brillouin zone (-w/2, w/2].

    Idempotent mod-omega reduction with the half-open boundary mapping
    +w/2 to itself.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    lam = np.asarray(lambdas, dtype=float)
    folded = np.mod(lam, omega)
    folded = np.where(folded > omega / 2, folded - omega, folded)
    # mod can return exactly omega for tiny negative inputs via roundoff
    folded = np.where(folded > omega / 2, folded - omega, folded)
    return folded if folded.ndim else float(folded)


@dataclass(frozen=True)
class FloquetSpectrum:
    """Eigen-decomposition of a truncated Floquet matrix, certified when built.

    `eigenvectors` columns are the Sambe eigenstates by ascending eigenvalue;
    `k` is the Fourier axis of `sector_view`.  `modes` picks the N physical
    Floquet modes: of those with mean Fourier index sum_k k |phi_k|^2 in
    (-1/2, 1/2] (one replica per branch), the N with the lowest edge weight;
    `TruncationError` when fewer qualify or their u_a(0) = sum_k phi_{a,k}
    are not orthonormal within DEFECT_TOL.  They are kept, read-only, as `phi`
    [k, level, mode] (complex128), `quasienergies` and `u0` [level, mode];
    `modes_at` evaluates them.  Immutable, so shared freely.

    `window` is the n_cut of the M_w that was diagonalized (None: n_cut);
    `eigenvectors`, `sector_view`, `k` and `phi` cover its 2 window + 1
    sectors, the central ones of M_n, and edge weights are read on its two
    outermost.  Below n_cut it holds just the N certified eigenpairs of M_n,
    zero outside the window; `dim` and `n_sectors` describe M_n.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    n_cut: int = 0
    levels: int = 2
    omega: float = 1.0
    window: int | None = None
    modes: np.ndarray = field(init=False, repr=False)
    k: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    quasienergies: np.ndarray = field(init=False, repr=False)
    u0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.window is None:
            object.__setattr__(self, "window", self.n_cut)
        view = self.sector_view()
        k = np.arange(-self.window, self.window + 1)
        mean_k = np.einsum("k,kgm->m", k, np.abs(view) ** 2)
        qualify = np.nonzero((mean_k > -0.5) & (mean_k <= 0.5))[0]
        by_edge = np.argsort(self.edge_weights()[qualify], kind="stable")
        modes = np.sort(qualify[by_edge[:self.levels]])
        phi = view[:, :, modes].astype(complex, copy=False)
        u0 = phi.sum(axis=0)
        defect = unitarity_defect(u0)
        if modes.size < self.levels or defect > DEFECT_TOL:
            raise TruncationError(
                f"n_cut={self.n_cut} is too small: {modes.size} of {self.levels} "
                f"physical Floquet modes, orthonormality defect {defect:.2e} "
                f"(limit {DEFECT_TOL}); increase n_cut")
        for name, value in (("modes", modes), ("k", k), ("phi", phi),
                            ("quasienergies", self.eigenvalues[modes]), ("u0", u0)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def modes_at(self, times):
        """u_a(t) = sum_k phi_{a,k} e^{ikwt}, sum_k k phi_{a,k} e^{ikwt} (T, level,
        mode) and e^{-i eps_a t} (T, mode) at a 1-d float array of times."""
        t = times[:, None]
        phase = np.exp(1j * self.k * self.omega * t)[:, None] * np.array(
            [np.ones_like(self.k), self.k])
        modes = (phase @ self.phi.reshape(len(self.k), -1)).reshape(
            (len(t), 2) + self.phi.shape[1:])
        return modes[:, 0], modes[:, 1], np.exp(-1j * self.quasienergies * t)

    @property
    def dim(self) -> int:
        return self.levels * self.n_sectors

    @property
    def n_sectors(self) -> int:
        return 2 * self.n_cut + 1

    @property
    def folded(self) -> np.ndarray:
        return fold_to_fbz(self.eigenvalues, self.omega)

    def sector_view(self) -> np.ndarray:
        """Eigenvector table reshaped to [sector, level, mode]."""
        return self.eigenvectors.reshape(2 * self.window + 1, self.levels, -1)

    @property
    def edge_weight(self) -> float:
        """Largest weight of the N physical modes on the two outermost sectors."""
        return float((np.abs(self.phi[[0, -1]]) ** 2).sum(axis=(0, 1)).max())

    def edge_weights(self) -> np.ndarray:
        """Per-mode probability weight on the two outermost Fourier sectors."""
        view = self.sector_view()
        outer = np.abs(view[0]) ** 2 + np.abs(view[-1]) ** 2
        return outer.sum(axis=0)

    def folded_gap(self) -> float:
        """Minimal FBZ (circular) spacing of the physical quasienergy branches.

        The full Sambe spectrum replicates each branch in every Fourier
        sector, so the spacing is taken between one representative per level.
        """
        folded = np.sort(self.folded[self.modes])
        gaps = np.diff(folded)
        wrap = folded[0] + self.omega - folded[-1]
        return float(min(gaps.min(), wrap))


def diagonalize(matrix: FloquetMatrix) -> FloquetSpectrum:
    """Exact diagonalization of the (Hermitian) truncated Floquet matrix;
    `TruncationError` when its physical modes fail the certificate.

    Only the matrix handed to `eigh` is assembled.  A real set runs the real
    solver and keeps its real eigenvector table; only the N-mode table `phi`
    is made complex.  An explicit n_cut n is solved on the window of "auto"'s
    first n_cut (`sambe.first_n_cut`) when that is below n, as `_solve` says.
    "auto" is solved whole and grown, as `_grown_n_cut` says, until the
    certificate passes and the modes' edge weight is below EDGE_TOL; past
    sambe.AUTO_MAX_N_CUT it is a `TruncationError`.
    """
    if not matrix.auto:
        return _solve(matrix, sambe.first_n_cut(matrix.components, matrix.omega))
    while True:
        try:
            spectrum = _solve(matrix, matrix.n_cut)
        except TruncationError:
            spectrum = None
        if spectrum is not None and spectrum.edge_weight < EDGE_TOL:
            return spectrum
        n_cut = _grown_n_cut(matrix.n_cut, spectrum)
        if n_cut > sambe.AUTO_MAX_N_CUT:
            raise TruncationError(
                f"n_cut='auto' needs more than {sambe.AUTO_MAX_N_CUT}: at n_cut={matrix.n_cut} "
                + (f"the edge weight is {spectrum.edge_weight:.2e} (limit {EDGE_TOL})"
                   if spectrum is not None else "the certificate fails") + "; pass an explicit n_cut")
        matrix = replace(matrix, n_cut=n_cut)


def _grown_n_cut(n_cut: int, spectrum: FloquetSpectrum | None) -> int:
    """The next n_cut of an "auto" search, at most max(n_cut // 2, 4) sectors
    on: all of them when the certificate failed (`spectrum` None) or the edge
    weight does not decay outward, otherwise enough for it to fall below
    EDGE_TOL at its last per-sector decay rate, which only grows further out."""
    limit = max(n_cut // 2, 4)
    if spectrum is None:
        return n_cut + limit
    edge = spectrum.edge_weight
    inner = (np.abs(spectrum.phi[[1, -2]]) ** 2).sum(axis=(0, 1)).max()
    if inner <= edge:
        return n_cut + limit
    step = math.ceil(math.log(edge / EDGE_TOL) / math.log(inner / edge))
    return n_cut + min(max(step, 1), limit)


def _solve(matrix: FloquetMatrix, window: int) -> FloquetSpectrum:
    """The certified spectrum of M_n, n = `matrix.n_cut`, from a Hermitian
    Fourier set: `_windowed` when `window` is below n and its modes pass,
    otherwise the dense `eigh` of M_n, the one place M_n is assembled."""
    defect = sambe.fourier_defect(matrix.components)
    if defect > 1e-10:
        raise DiagonalizationError(
            f"matrix is not Hermitian (Fourier set defect {defect:.3e})")
    spectrum = _windowed(matrix, window) if window < matrix.n_cut else None
    if spectrum is not None:
        return spectrum
    try:
        lam, vec = np.linalg.eigh(matrix.data)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        scale = float(np.max(np.abs(matrix.data)))
        raise DiagonalizationError(
            f"eigh failed for dim={matrix.dim}, max|entry|={scale:.3e}") from exc
    return FloquetSpectrum(lam, vec, matrix.n_cut, matrix.levels, matrix.omega)


def _windowed(matrix: FloquetMatrix, window: int) -> FloquetSpectrum | None:
    """The N physical modes of M_w, M assembled at n_cut w = `window`, as
    eigenpairs of M_n: None when M_w's certificate fails or a mode's residual
    on M_n (`_residuals`) is above RESIDUAL_TOL eps ||M_w||_inf."""
    block = matrix.assemble(window)
    try:
        inner = FloquetSpectrum(*np.linalg.eigh(block), window, matrix.levels, matrix.omega)
    except (np.linalg.LinAlgError, TruncationError):
        return None
    spectrum = FloquetSpectrum(inner.quasienergies, inner.eigenvectors[:, inner.modes],
                               matrix.n_cut, matrix.levels, matrix.omega, window)
    limit = RESIDUAL_TOL * np.finfo(float).eps * np.abs(block).sum(axis=1).max()
    return spectrum if _residuals(matrix, spectrum).max() <= limit else None


def _residuals(matrix: FloquetMatrix, spectrum: FloquetSpectrum) -> np.ndarray:
    """|M_n phi_a - lam_a phi_a| per mode of a window `spectrum`, from the
    Fourier set: sector k of M_n phi is sum_m H^(m) phi_{k-m} + k omega phi_k,
    and phi is zero outside the window w, so only |k| <= min(n, w + h) count."""
    h, w = len(matrix.components) // 2, spectrum.window
    rows = w + min(matrix.n_cut - w, h)
    phi = np.pad(spectrum.phi, ((rows - w + h,) * 2, (0, 0), (0, 0)))
    k = np.arange(-rows, rows + 1)[:, None, None]
    out = phi[h:len(phi) - h] * (k * matrix.omega - spectrum.quasienergies)
    for m, component in zip(range(-h, h + 1), matrix.components):
        out += component @ phi[h - m:len(phi) - h - m]
    return np.linalg.norm(out, axis=(0, 1))


@dataclass
class AmplitudeTable:
    """Transition amplitudes B[alpha, k, gamma, beta].

    B = <gamma,k|lambda_alpha><lambda_alpha|beta,0>; each entry is
    invariant under a global phase change of the eigenvector, so tables at
    neighboring parameter values can be differenced once modes are paired.
    """

    entries: np.ndarray = field(repr=False)  # (dim, n_sectors, N, N)
    k_values: np.ndarray = field(repr=False)

    def identity_defect(self) -> float:
        """Deviation of sum_{alpha,k} B from the identity (phase-free sum)."""
        total = self.entries.sum(axis=(0, 1))
        return float(np.max(np.abs(total - np.eye(total.shape[0]))))


def amplitude_table(spectrum: FloquetSpectrum) -> AmplitudeTable:
    """All transition amplitudes out of the input Fourier sector 0, over the
    eigenvectors `spectrum` holds: every one of M_n's for a dense solve, the
    N physical modes for a window."""
    view = spectrum.sector_view()                      # [k, gamma, alpha]
    inp = view[spectrum.window].conj()                 # [beta, alpha], k = 0
    entries = np.einsum("kga,ba->akgb", view, inp)
    return AmplitudeTable(
        entries=entries,
        k_values=spectrum.k,
    )
