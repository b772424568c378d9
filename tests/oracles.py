"""Reference implementations that only the tests use.

Each one is the plain textbook form of a quantity the library computes
another way (or not at all): the dense (d_taps, N_rx, N_tx) delay-tap
accumulation, with the beam taps and covariance read from it by scanning
for occupied taps, that the occupied-tap channel must match bit for bit,
the per-subcarrier channel matrices, the dense (K, n_ue, n_rsu)
beam-pair gain table that beamtraining's beam-tap scores and served-pair
gains are checked against, the whole-array,
per-element chirp evaluation that the capture synthesis's row-0 phase
identity is checked against, the delta-excited isolated covariance that
the mixing bank's output is compared with, the first column read back
from a Toeplitz matrix (with a check that it is Toeplitz) that the
projection's returned column is compared with, the one-np.mean-per-diagonal average that the
projection's diagonal sums are checked against, the dense unitary Q that
makes a Hermitian Toeplitz matrix real (the projection's real form is
checked against Q^H T Q), the three-operand einsum of diag(F^H R F) that
the APS's one-product form is checked against, the
windowed periodogram that the eigenvector loss of neural is built on, and
a channel-major, tap-by-tap loop forward and backward pass of the APS
network that the channels-last GEMM convolutions of neural are checked
against.
"""

import numpy as np

from radarlink.channel import PathCluster, WidebandChannel, steering_vector
from radarlink.covariance import SpatialCovariance
from radarlink.covfeatures import APS_WINDOW_ATTENUATION_DB
from radarlink.fmcw import CaptureConfig, FmcwParams, RadarPathSet, element_delays, fmcw_sample
from radarlink.neural import Conv1dLayer, MlpModel, _act, _act_grad
from radarlink.numerics import chebyshev_window, dft_matrix


def dense_channel_taps(
    clusters: list[PathCluster], arrays: tuple[int, int], d_taps: int, tap_interval_s: float
) -> np.ndarray:
    """Every ray's rank-1 term added, in cluster then ray order, into a
    zeroed (d_taps, N_rx, N_tx) array: the tap d with d*T - tau in [0, T)."""
    rx, tx = arrays
    taps = np.zeros((d_taps, rx, tx), dtype=complex)
    for cluster in clusters:
        for ray in cluster.rays:
            tau = cluster.mean_delay_s + ray.rel_delay_s
            d = int(np.ceil(tau / tap_interval_s - 1e-12))
            if d * tap_interval_s - tau >= tap_interval_s:
                d -= 1
            a_rx = steering_vector(rx, cluster.mean_aoa_rad + ray.rel_aoa_rad)
            a_tx = steering_vector(tx, cluster.mean_aod_rad + ray.rel_aod_rad)
            taps[d] += ray.gain * np.outer(a_rx, np.conj(a_tx))
    return taps


def dense_beam_taps(taps: np.ndarray, codebook_rsu, codebook_ue, k_total: int):
    """(phases, B) of beam_taps read from a dense tap array: the taps with
    any nonzero entry found by a scan, then projected to the beam domain."""
    occupied = np.flatnonzero(np.any(taps, axis=(1, 2)))
    b = codebook_ue.conj() @ taps[occupied] @ codebook_rsu.T
    lags = np.outer(np.arange(k_total), occupied) % k_total
    return np.exp(-2j * np.pi * lags / k_total), b


def dense_comm_covariance(taps: np.ndarray) -> SpatialCovariance:
    """comm_covariance from a dense tap array: sum_d H[d]^H H[d] over the
    nonzero taps in lag order, over N_rx."""
    acc = np.zeros((taps.shape[2], taps.shape[2]), dtype=complex)
    for tap in taps:
        if np.any(tap):
            acc += tap.conj().T @ tap
    return SpatialCovariance(acc / taps.shape[1])


def channel_freq(ch: WidebandChannel, k: int, k_total: int) -> np.ndarray:
    """Channel matrix at subcarrier k: sum_j taps[j] exp(-j 2 pi k delays[j] / K)."""
    if not 0 <= k < k_total:
        raise ValueError(f"subcarrier {k} outside [0, {k_total})")
    phases = np.exp(-2j * np.pi * k * ch.delays / k_total)
    return np.tensordot(phases, ch.taps, axes=1)


def channel_freq_all(ch: WidebandChannel, k_total: int) -> np.ndarray:
    """All subcarrier responses at once, shape (K, N_rx, N_tx): the FFT of
    the taps placed at their lags in a zeroed K-tap array."""
    ch.check_fits(k_total)
    dense = np.zeros((k_total, *ch.taps.shape[1:]), dtype=complex)
    dense[ch.delays] = ch.taps
    return np.fft.fft(dense, axis=0)


def gain_table(ch: WidebandChannel, codebook_rsu, codebook_ue, k_total: int) -> np.ndarray:
    """Beam-pair power gains |w_u^H H[k] f_r|^2 on every subcarrier.

    Returns float64 (K, n_ue_beams, n_rsu_beams): each occupied tap
    projected to the beam domain, conj(W) taps[j] F^T, then one
    (K x D_occ) DFT product over them.  Exact for delays < K.
    """
    ch.check_fits(k_total)
    beam_taps = codebook_ue.conj() @ ch.taps @ codebook_rsu.T
    lags = np.outer(np.arange(k_total), ch.delays) % k_total
    amp = np.tensordot(np.exp(-2j * np.pi * lags / k_total), beam_taps, axes=1)
    return amp.real**2 + amp.imag**2


def synthesize_paths(
    radars: list[tuple[FmcwParams, RadarPathSet]], n: int, capture: CaptureConfig
) -> np.ndarray:
    """Noise-free (n, samples) capture: every path of every radar, its
    chirp evaluated directly at every element's delayed time and added
    into the whole array at once, in the order synthesize_rx adds them."""
    t = np.arange(capture.n_samples) / capture.sample_rate_hz
    y = np.zeros((n, capture.n_samples), dtype=complex)
    for params, path_set in radars:
        for path in path_set.paths:
            if path.gain == 0:
                continue
            d_elem = element_delays(n, path.aoa_rad, capture.carrier_hz)
            steer = steering_vector(n, path.aoa_rad)
            t_eff = t[np.newaxis, :] - path.delay_s - d_elem[:, np.newaxis]
            y += path.gain * steer[:, np.newaxis] * fmcw_sample(params, t_eff)
    return y


def ideal_isolated_covariance(
    paths: RadarPathSet,
    n: int,
    capture: CaptureConfig,
) -> SpatialCovariance:
    """Ground-truth covariance of one radar from a delta-excited channel.

    A unit-power impulse propagated along the paths yields one sample per
    delay bin carrying the path's gain and steering vector; paths landing
    in the same bin combine coherently, resolvable paths stay orthogonal.
    """
    bins: dict[int, np.ndarray] = {}
    for path in paths.paths:
        i = int(round(path.delay_s * capture.sample_rate_hz)) % capture.n_samples
        contrib = path.gain * steering_vector(n, path.aoa_rad)
        if i in bins:
            bins[i] = bins[i] + contrib
        else:
            bins[i] = contrib
    r = np.zeros((n, n), dtype=complex)
    for v in bins.values():
        r += np.outer(v, np.conj(v))
    return SpatialCovariance(r / capture.n_samples)


# relative deviation from Toeplitz form that cov_vector accepts
TOEPLITZ_RTOL = 1e-8


def cov_vector(r_tilde: SpatialCovariance) -> np.ndarray:
    """First column of a Toeplitz covariance (determines the whole matrix),
    with its first entry made real; rejects a matrix that is not Toeplitz."""
    m = r_tilde.matrix
    scale = max(float(np.abs(m).max()), 1e-300)
    d = np.subtract.outer(np.arange(r_tilde.n), np.arange(r_tilde.n))
    t = np.where(d >= 0, m[np.abs(d), 0], np.conj(m[np.abs(d), 0]))
    err = float(np.abs(m - t).max())
    if err > TOEPLITZ_RTOL * scale:
        raise ValueError(
            f"matrix is not Toeplitz within tolerance (deviation {err:.3e} "
            f"at scale {scale:.3e})"
        )
    col = m[:, 0].copy()
    col[0] = col[0].real
    return col


def toeplitz_average_loop(x: np.ndarray) -> np.ndarray:
    """First column of the nearest Hermitian Toeplitz matrix, before its
    first entry is made real: np.mean of each diagonal of the Hermitian
    part, one call per diagonal."""
    n = x.shape[0]
    h = 0.5 * (x + x.conj().T)
    col = np.zeros(n, dtype=complex)
    for d in range(n):
        col[d] = np.mean(np.diagonal(h, offset=-d))
    return col


def centro_unitary(n: int) -> np.ndarray:
    """Dense unitary Q with Q^H T Q real for every Hermitian Toeplitz T:
    columns (e_j + e_(n-1-j))/sqrt2, then e_m for odd n, then
    i (e_j - e_(n-1-j))/sqrt2, for j < m = n // 2."""
    m, odd = divmod(n, 2)
    q = np.zeros((n, n), dtype=complex)
    for j in range(m):
        q[j, j] = q[n - 1 - j, j] = 1.0 / np.sqrt(2.0)
        q[j, m + odd + j] = 1j / np.sqrt(2.0)
        q[n - 1 - j, m + odd + j] = -1j / np.sqrt(2.0)
    if odd:
        q[m, m] = 1.0
    return q


def aps_diag_einsum(r: SpatialCovariance) -> np.ndarray:
    """Re diag(F^H R F) as one three-operand einsum over the DFT matrix."""
    f = dft_matrix(r.n)
    return np.real(np.einsum("ij,ik,kj->j", np.conj(f), r.matrix, f))


def aps_from_vector(v: np.ndarray, window: bool = True) -> np.ndarray:
    """Windowed periodogram |FFT(c .* v)|^2 of a length-N complex vector.

    c is the 35 dB Chebyshev window (peak 1); window=False uses c = 1.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if window:
        c = chebyshev_window(len(v), APS_WINDOW_ATTENUATION_DB)
        v = c * v
    return np.abs(np.fft.fft(v)) ** 2


def conv_cols(x: np.ndarray, kernel: int) -> np.ndarray:
    """im2col for same-padded conv: (B, C, W) -> (B, W, C*kernel)."""
    b, c, w = x.shape
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    cols = np.empty((b, w, c, kernel))
    for m in range(kernel):
        cols[:, :, :, m] = xp[:, :, m : m + w].transpose(0, 2, 1)
    return cols.reshape(b, w, c * kernel)


def cols_to_input_grad(d_cols: np.ndarray, c: int, w: int, kernel: int) -> np.ndarray:
    """Adjoint of conv_cols: (B, W, C*kernel) -> (B, C, W)."""
    b = d_cols.shape[0]
    pad = kernel // 2
    d_cols = d_cols.reshape(b, w, c, kernel)
    dxp = np.zeros((b, c, w + 2 * pad))
    for m in range(kernel):
        dxp[:, :, m : m + w] += d_cols[:, :, :, m].transpose(0, 2, 1)
    return dxp[:, :, pad : pad + w]


def conv_net_forward(model: MlpModel, x: np.ndarray):
    """Dropout-free forward pass of conv-then-dense models (no output
    normalization), channel-major (B, C, W).  Returns (output, caches)."""
    h = x.reshape(x.shape[0], -1, model.input_width)
    caches = []
    for layer in model.layers:
        h_in = h
        if isinstance(layer, Conv1dLayer):
            cols = conv_cols(h, layer.weights.shape[2])
            w_flat = layer.weights.reshape(layer.weights.shape[0], -1)
            z = (cols @ w_flat.T + layer.biases).transpose(0, 2, 1)  # (B, out_ch, W)
        else:
            cols = h.reshape(h.shape[0], -1)
            z = cols @ layer.weights.T + layer.biases
        h = _act(layer.activation, z)
        caches.append((h_in, cols, z, h))
    return h.reshape(h.shape[0], -1), caches


def conv_net_gradient(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """(MSE loss, per-layer (dW, db)) of conv_net_forward: conv weight
    gradients by einsum over the columns, input gradients by scattering
    the column gradients back tap by tap."""
    out, caches = conv_net_forward(model, x)
    g = 2.0 * (out - y) / out.size
    grads = []
    for layer, (h_in, cols, z, a) in zip(model.layers[::-1], caches[::-1]):
        g = g.reshape(z.shape)
        dz = g * _act_grad(layer.activation, z, a)
        if isinstance(layer, Conv1dLayer):
            dz_cols = dz.transpose(0, 2, 1)  # (B, W, out_ch)
            w_flat = layer.weights.reshape(layer.weights.shape[0], -1)
            dw = np.einsum("bwo,bwk->ok", dz_cols, cols)
            grads.append((dw.reshape(layer.weights.shape), dz.sum(axis=(0, 2))))
            _, c, kernel = layer.weights.shape
            g = cols_to_input_grad(dz_cols @ w_flat, c, dz.shape[2], kernel)
        else:
            grads.append((dz.T @ cols, dz.sum(axis=0)))
            g = (dz @ layer.weights).reshape(h_in.shape)
    return float(np.mean((out - y) ** 2)), grads[::-1]
