"""Principal-components model of the state share history.

Centers the share matrix, forms the sample covariance, and keeps the
nonzero eigenpairs (eleven of them for the full 12-election history, since
the centered columns sum to zero).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import STATE_NAMES

# Eigenvalues below lam_max * ZERO_CUTOFF are numerically zero and dropped.
ZERO_CUTOFF = 1e-10


class PcaError(Exception):
    pass


class DegenerateSample(PcaError):
    """Fewer than two observations, or no variance: no model exists."""


class IndexOutOfRange(PcaError, IndexError):
    """Component index outside 1..n_components."""


class PcaModel(NamedTuple):
    """Mean vector and descending nonzero eigenpairs of the sample covariance.

    eigenvectors[j] is the unit-norm direction for eigenvalues[j]; rows are
    mutually orthogonal.  Sign convention: each eigenvector's component sum
    is nonnegative (first nonzero component positive on an exact-zero sum).
    """

    mean: np.ndarray          # (51,)
    eigenvalues: np.ndarray   # (k,), descending, all > 0
    eigenvectors: np.ndarray  # (k, 51)
    n: int

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


def covariance(devs: np.ndarray) -> np.ndarray:
    """Sample covariance (devs' devs) / (n - 1) of n deviation rows."""
    n = len(devs)
    if n < 2:
        raise DegenerateSample(f"need n >= 2 observations, got {n}")
    return devs.T @ devs / (n - 1)


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Flip each row whose sum is below -1e-12, or within 1e-12 of zero with a
    negative first nonzero entry."""
    total = vectors.sum(axis=1)
    first = vectors[np.arange(len(vectors)), np.argmax(vectors != 0, axis=1)]
    flip = (total < -1e-12) | ((np.abs(total) <= 1e-12) & (first < 0))
    return np.where(flip[:, None], -vectors, vectors)


def fit_pca(dataset) -> PcaModel:
    """Eigendecompose the sample covariance and keep the nonzero spectrum."""
    shares = np.asarray(getattr(dataset, "shares", dataset), dtype=float)
    mean = shares.mean(axis=0)
    cov = covariance(shares - mean)
    lam, vecs = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order].T  # rows are eigenvectors
    if lam[0] <= 0:
        raise DegenerateSample("the shares have no variance: every state's share is constant")
    cutoff = lam[0] * ZERO_CUTOFF
    keep = lam > cutoff
    lam = lam[keep]
    vecs = _apply_sign_convention(vecs[keep])
    lam.flags.writeable = False
    vecs.flags.writeable = False
    mean.flags.writeable = False
    return PcaModel(mean=mean, eigenvalues=lam, eigenvectors=vecs, n=len(shares))


def variance_explained(model: PcaModel, k: int) -> float:
    """Fraction of total variance carried by the top k components."""
    if not 1 <= k <= model.n_components:
        raise IndexOutOfRange(f"k={k} outside 1..{model.n_components}")
    lam = model.eigenvalues
    return float(lam[:k].sum() / lam.sum())


def loadings_report(model: PcaModel, j: int) -> list[tuple[str, float]]:
    """All 51 state coefficients of component j (1-based), sorted ascending."""
    if not 1 <= j <= model.n_components:
        raise IndexOutOfRange(f"j={j} outside 1..{model.n_components}")
    coeffs = model.eigenvectors[j - 1]
    order = np.argsort(coeffs, kind="stable")
    return [(STATE_NAMES[i], float(coeffs[i])) for i in order]
