"""Geometric wideband MIMO channel model and communication-band covariance.

Clustered multipath geometry shared between bands: steering vectors for
uniform linear arrays, delay-tap channel matrices under rectangular pulse
shaping, and the subcarrier-averaged spatial covariance seen at the
infrastructure array.  Arrays are given by their element counts: every
array is uniform linear at ELEMENT_SPACING_WAVELENGTHS (half-wavelength)
spacing.  A channel holds only the delay taps its rays occupy, a few
where the span has hundreds.  No per-subcarrier channel matrix is formed:
the covariance and beamtraining.beam_taps both work on those taps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import SpatialCovariance


# element spacing of every uniform linear array, in carrier wavelengths
ELEMENT_SPACING_WAVELENGTHS = 0.5


@dataclass(frozen=True)
class Ray:
    """One path within a cluster, relative to the cluster means."""

    gain: complex
    rel_delay_s: float = 0.0
    rel_aoa_rad: float = 0.0
    rel_aod_rad: float = 0.0


@dataclass(frozen=True)
class PathCluster:
    """Multipath cluster: mean delay/angles plus per-ray offsets."""

    mean_delay_s: float
    mean_aoa_rad: float
    mean_aod_rad: float
    rays: tuple[Ray, ...]

    def __post_init__(self):
        if len(self.rays) == 0:
            raise ValueError("a cluster needs at least one ray")
        if self.mean_delay_s < 0:
            raise ValueError(f"negative cluster delay {self.mean_delay_s}")


@dataclass(frozen=True)
class WidebandChannel:
    """Delay-tap MIMO channel on its occupied taps: taps[j] is the
    (N_rx x N_tx) matrix at lag delays[j], and every other lag is zero."""

    delays: np.ndarray
    taps: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=np.int64)
        t = np.asarray(self.taps, dtype=complex)
        if d.ndim != 1 or np.any(d < 0) or np.any(np.diff(d) <= 0):
            raise ValueError(f"delays must be non-negative and strictly increasing, got {d}")
        if t.ndim != 3 or t.shape[0] != d.size:
            raise ValueError(f"taps must be ({d.size}, N_rx, N_tx), got {t.shape}")
        if not np.all(np.isfinite(t.view(float))):
            raise ValueError("channel taps contain non-finite entries")
        d.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "taps", t)

    def check_fits(self, k_total: int) -> None:
        """Raise unless every tap lag is below k_total subcarriers."""
        if self.delays.size and self.delays[-1] >= k_total:
            raise ValueError(f"tap delay {self.delays[-1]} does not fit in {k_total} subcarriers")


def steering_vector(n_elements: int, angle_rad: float) -> np.ndarray:
    """Array response: element n has phase n * 2*pi*spacing*sin(angle)."""
    n = np.arange(n_elements)
    return np.exp(
        2j * np.pi * ELEMENT_SPACING_WAVELENGTHS * np.sin(angle_rad) * n
    )


def channel_taps(
    clusters: list[PathCluster],
    arrays: tuple[int, int],
    d_taps: int,
    tap_interval_s: float,
) -> WidebandChannel:
    """Accumulate per-ray rank-1 contributions into the taps they occupy.

    arrays = (receiver, transmitter) element counts; the tap matrices are
    N_rx x N_tx.  Rectangular pulse shaping: a ray with total delay tau
    lands entirely in the tap d satisfying d*T - tau in [0, T), d < d_taps.
    """
    if d_taps < 1:
        raise ValueError(f"d_taps must be >= 1, got {d_taps}")
    rx, tx = arrays
    taps: dict[int, np.ndarray] = {}
    for c_idx, cluster in enumerate(clusters):
        for r_idx, ray in enumerate(cluster.rays):
            tau = cluster.mean_delay_s + ray.rel_delay_s
            # p(d*T - tau) = 1 exactly when d*T - tau in [0, T)
            d = int(np.ceil(tau / tap_interval_s - 1e-12))
            if d * tap_interval_s - tau >= tap_interval_s:
                d -= 1
            if d >= d_taps:
                raise ValueError(
                    f"ray {r_idx} of cluster {c_idx} has delay {tau:.3e} s "
                    f"beyond the {d_taps}-tap span "
                    f"({d_taps * tap_interval_s:.3e} s)"
                )
            a_rx = steering_vector(rx, cluster.mean_aoa_rad + ray.rel_aoa_rad)
            a_tx = steering_vector(tx, cluster.mean_aod_rad + ray.rel_aod_rad)
            tap = taps.setdefault(d, np.zeros((rx, tx), dtype=complex))
            tap += ray.gain * np.outer(a_rx, np.conj(a_tx))
    delays = sorted(taps)
    return WidebandChannel(delays, np.array([taps[d] for d in delays]).reshape(len(delays), rx, tx))


def comm_covariance(ch: WidebandChannel, k_total: int) -> SpatialCovariance:
    """Subcarrier-averaged transmit-side covariance (1/(K N_rx)) sum H^H H.

    Uses the tap-domain identity sum_k H[k]^H H[k] = K sum_d H[d]^H H[d]
    (exact for delays < K); the k-domain sum is the test oracle.
    """
    if k_total < 1:
        raise ValueError(f"k_total must be >= 1, got {k_total}")
    ch.check_fits(k_total)
    n_rx, n_tx = ch.taps.shape[1:]
    acc = np.zeros((n_tx, n_tx), dtype=complex)
    for tap in ch.taps:
        acc += tap.conj().T @ tap
    return SpatialCovariance(acc / n_rx)
