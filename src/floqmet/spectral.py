"""Diagonalization of the truncated Floquet matrix and eigen-bookkeeping."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sambe import FloquetMatrix

DEFECT_TOL = 1e-6


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
    are not orthonormal within DEFECT_TOL.  Immutable, so shared freely.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    n_cut: int = 0
    levels: int = 2
    omega: float = 1.0
    modes: np.ndarray = field(init=False, repr=False)
    k: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        view = self.sector_view()
        k = np.arange(-self.n_cut, self.n_cut + 1)
        mean_k = np.einsum("k,kgm->m", k, np.abs(view) ** 2)
        qualify = np.nonzero((mean_k > -0.5) & (mean_k <= 0.5))[0]
        by_edge = np.argsort(self.edge_weights()[qualify], kind="stable")
        modes = np.sort(qualify[by_edge[:self.levels]])
        u0 = view[:, :, modes].sum(axis=0)
        defect = np.max(np.abs(u0.conj().T @ u0 - np.eye(modes.size)), initial=0)
        if modes.size < self.levels or defect > DEFECT_TOL:
            raise TruncationError(
                f"n_cut={self.n_cut} is too small: {modes.size} of {self.levels} "
                f"physical Floquet modes, orthonormality defect {defect:.2e} "
                f"(limit {DEFECT_TOL}); increase n_cut")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "k", k)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def n_sectors(self) -> int:
        return 2 * self.n_cut + 1

    @property
    def folded(self) -> np.ndarray:
        return fold_to_fbz(self.eigenvalues, self.omega)

    def sector_view(self) -> np.ndarray:
        """Eigenvector table reshaped to [sector, level, mode]."""
        return self.eigenvectors.reshape(self.n_sectors, self.levels, self.dim)

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

    A real symmetric matrix runs the real solver; the eigenvector table is
    complex either way, so the metrology matmuls stay in one dtype.
    """
    defect = matrix.hermiticity_defect()
    if defect > 1e-10:
        raise DiagonalizationError(
            f"matrix is not Hermitian (defect {defect:.3e})")
    try:
        lam, vec = np.linalg.eigh(matrix.data)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        scale = float(np.max(np.abs(matrix.data)))
        raise DiagonalizationError(
            f"eigh failed for dim={matrix.dim}, max|entry|={scale:.3e}") from exc
    return FloquetSpectrum(
        eigenvalues=lam,
        eigenvectors=vec.astype(complex, copy=False),
        n_cut=matrix.n_cut,
        levels=matrix.levels,
        omega=matrix.omega,
    )


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
    """All transition amplitudes out of the input Fourier sector 0."""
    view = spectrum.sector_view()                      # [k, gamma, alpha]
    inp = view[spectrum.n_cut].conj()                  # [beta, alpha]
    entries = np.einsum("kga,ba->akgb", view, inp)
    return AmplitudeTable(
        entries=entries,
        k_values=spectrum.k,
    )
