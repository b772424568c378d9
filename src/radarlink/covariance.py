"""Spatial covariance container shared by the radar and communication paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class SpatialCovariance:
    """N x N Hermitian spatial covariance of an antenna array.

    Construction symmetrizes round-off-level Hermitian error and rejects
    anything beyond HERMITIAN_RTOL.  Positive semi-definiteness is a
    property of the estimators that produce these matrices, not checked
    here (Toeplitz reconstruction, for one, is allowed to produce
    indefinite matrices).
    """

    matrix: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"covariance must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("covariance contains non-finite entries")
        scale = max(float(np.linalg.norm(m)), 1.0)
        herm_err = float(np.linalg.norm(m - m.conj().T))
        if herm_err > HERMITIAN_RTOL * scale * m.shape[0]:
            raise ValueError(
                f"matrix is not Hermitian (error {herm_err:.3e} at scale {scale:.3e})"
            )
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n", m.shape[0])

    @classmethod
    def from_samples(cls, y: np.ndarray) -> "SpatialCovariance":
        """Sample covariance (1/I) Y Y^H of an (antennas x samples) capture."""
        y = np.asarray(y, dtype=complex)
        if y.ndim != 2:
            raise ValueError(f"expected a 2-D capture, got shape {y.shape}")
        return cls(y @ y.conj().T / y.shape[1])

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))
