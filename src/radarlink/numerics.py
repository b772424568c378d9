"""Shared complex linear-algebra and DSP kernels, on numpy alone.

Small, deterministic building blocks used across the radar and
communication pipeline: unitary DFT/steering matrices, Dolph-Chebyshev
windows, a dominant-eigenpair solver, a wrapped running max, a
linear-phase FIR lowpass, a limiter on the threads of the OpenBLAS numpy
runs its linear algebra on, and the thread pool of the radar chain.

The radar chain's parallelism is threads inside its kernels: the mixing
bank's block groups and the antenna rows of the isolation lowpass are
mapped over `thread_map`, whose thread count `set_bank_threads` sets.
numpy's ufuncs and pocketfft release the GIL, and each row of a row
kernel is computed by the same operations whatever rows share its chunk,
so the bytes do not depend on the thread count.
Only the kernel's insides run on the pool: the kernel itself, and every
function it is called through, runs on the calling thread.

The signal kernels repeat, operation for operation, the reference
routines that tests/test_signal_oracles.py holds them to: the
Dolph-Chebyshev window, the Hamming-windowed sinc, the "same"-mode FFT
convolution and the fast-FFT-length search.  On the same
pocketfft they return the same bytes.  Where a reference FFTs a real
vector as complex, pocketfft runs a real FFT and mirrors its half
spectrum, so these kernels call `np.fft.rfft` and mirror it too.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# (setter, getter) pairs an OpenBLAS build may export, tried in order: the
# symbol-suffixed ones of the scipy-openblas wheels numpy bundles first
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def next_fast_len(n: int) -> int:
    """Smallest complex FFT length >= n that pocketfft transforms fastest:
    the smallest 11-smooth length."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT beamforming matrix.

    Column j is the steering/DFT vector with per-element phase increment
    2*pi*j/n, scaled so every column has unit norm and F^H F = I.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def chebyshev_window(n: int, attenuation_db: float) -> np.ndarray:
    """Length-n Dolph-Chebyshev window with the given sidelobe attenuation.

    Symmetric, peak normalized to 1: the inverse DFT of the Chebyshev
    polynomial sampled on the unit circle.
    """
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    if attenuation_db <= 0:
        raise ValueError(f"attenuation_db must be > 0, got {attenuation_db}")
    order = n - 1.0
    beta = np.cosh(1.0 / order * np.arccosh(np.float64(10 ** (attenuation_db / 20.0))))
    x = beta * np.cos(np.pi * np.arange(n, dtype=np.float64) / n)
    p = np.zeros_like(x)
    p[x > 1] = np.cosh(order * np.arccosh(x[x > 1]))
    p[x < -1] = (2 * (n % 2) - 1) * np.cosh(order * np.arccosh(-x[x < -1]))
    p[np.abs(x) <= 1] = np.cos(order * np.arccos(x[np.abs(x) <= 1]))
    if n % 2:
        # p is real: the first (n + 1) // 2 bins are all the window needs
        w = np.fft.rfft(p).real
        w = np.concatenate((w[:0:-1], w))
    else:
        p = p * np.exp(1j * np.pi / n * np.arange(n, dtype=np.float64))
        half = n // 2 + 1
        w = np.fft.fft(p).real
        w = np.concatenate((w[half - 1 : 0 : -1], w[1:half]))
    return w / np.max(w)


def dominant_eigenvector(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of a Hermitian matrix by a full eigendecomposition.

    Returns the unit-norm eigenvector of the largest eigenvalue from
    np.linalg.eigh, exact to working precision even when the top
    eigenvalues are nearly equal, and that eigenvalue.  The vector's global
    phase is fixed so its first nonzero entry is real and nonnegative.
    R = 0 returns (e_0, 0.0).
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    if not r.any():
        v = np.zeros(r.shape[0], dtype=complex)
        v[0] = 1.0
        return v, 0.0
    vals, vecs = np.linalg.eigh(r)
    return _fix_phase(vecs[:, -1]), float(vals[-1])


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its first entry of non-negligible magnitude is real >= 0."""
    thresh = 1e-12 * np.max(np.abs(v))
    for x in v:
        if abs(x) > thresh:
            return v * (np.conj(x) / abs(x))
    return v


def lowpass_taps(
    cutoff_hz: float,
    sample_rate_hz: float,
    n_taps: int,
) -> np.ndarray:
    """Windowed-sinc (Hamming) linear-phase lowpass taps, unit DC gain."""
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ValueError(
            f"cutoff must lie in (0, sample_rate/2): got {cutoff_hz} "
            f"at sample rate {sample_rate_hz}"
        )
    if n_taps < 3 or n_taps % 2 == 0:
        raise ValueError(f"n_taps must be odd and >= 3, got {n_taps}")
    f = cutoff_hz / (0.5 * sample_rate_hz)
    m = np.arange(n_taps, dtype=np.float64) - 0.5 * (n_taps - 1)
    hamming = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n_taps))
    h = f * np.sinc(f * m) * hamming
    return h / np.sum(h)


def fir_lowpass(
    x: np.ndarray,
    cutoff_hz: float,
    sample_rate_hz: float,
    n_taps: int,
) -> np.ndarray:
    """Filter each complex row of x with the same linear-phase FIR lowpass.

    Output length equals input length: the (n_taps-1)/2 group delay is
    compensated by centered trimming of the full convolution, which is an
    FFT product at a fast length.  Rows are filtered ROW_CHUNK at a time on
    the bank's threads; pocketfft transforms each row of a batch alone, so
    the bytes equal those of one whole-array transform.
    """
    taps = lowpass_taps(cutoff_hz, sample_rate_hz, n_taps)
    x = np.atleast_2d(np.asarray(x))
    n = x.shape[1]
    nfft = next_fast_len(n + n_taps - 1)
    half = np.fft.rfft(taps, nfft)
    spectrum = np.concatenate((half, half[nfft - len(half) : 0 : -1].conj()))
    start = (n_taps - 1) // 2
    out = np.empty(x.shape, dtype=complex)

    def filter_rows(rows):
        y = np.fft.ifft(np.fft.fft(x[rows], nfft, axis=1) * spectrum, axis=1)
        out[rows] = y[:, start : start + n]

    map_rows(filter_rows, x.shape[0])
    return out


def wrapped_running_max(p: np.ndarray, size: int) -> np.ndarray:
    """out[i] = max(p[i], ..., p[i + size - 1]), indices modulo len(p).

    van Herk / Gil-Werman: every window of `size` spans at most two blocks
    of `size`, so it is the max of a block suffix and a block prefix
    (Gil & Werman, IEEE TPAMI 1993).  O(len(p)) for any size.
    """
    n = len(p)
    if not 1 <= size <= n:
        raise ValueError(f"window size must lie in [1, {n}], got {size}")
    n_blocks = -(-(n + size - 1) // size)
    blocks = np.resize(p, (n_blocks, size))  # p repeated: the wrap
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:n], prefix[size - 1 : n + size - 1])


@functools.cache
def _openblas_threads():
    """(setter, getter) of the OpenBLAS this process already loaded, or None.

    Looks only at libraries mapped into the process (/proc/self/maps) and
    opens them with RTLD_NOLOAD, so it never loads a library of its own.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()}
            )
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block with OpenBLAS on n threads, then restore the old count.

    A silent no-op when no OpenBLAS is loaded or it exports none of
    OPENBLAS_THREAD_SYMBOLS.  The library is looked up on the first call,
    not at import.
    """
    found = _openblas_threads()
    if found is None:
        yield
        return
    setter, getter = found
    old = getter()
    setter(n)
    try:
        yield
    finally:
        setter(old)


# Antenna rows that the mixing bank's kernel, synthesize_rx and fir_lowpass
# compute at once; in synthesize_rx, which runs on the calling thread, it
# also sets the bytes.  The bank's and fir_lowpass's scratch, freed on the
# pool's threads, stays in their malloc arenas: a default 4-scene dataset
# peaked at 84 MB with 4 rows, 98 MB with 16 and 136 MB with all 64
# (2-core x86-64, numpy 2.4, measured while synthesis also ran on the pool).
ROW_CHUNK = 4

# Threads thread_map runs on; None means one per usable core.
_bank_threads: int | None = None


def set_bank_threads(n: int | None) -> None:
    """Run the mixing bank and the row kernels on n threads in this process
    (None: one per usable core).

    A process pool that already fills the cores sets 1 in its initializer.
    """
    global _bank_threads
    _bank_threads = n


def thread_map(fn, items):
    """Yield fn(item) for every item, in order, computed on the bank's
    threads; on one thread, fn runs on the calling thread.

    fn must call no function that perfbench/tracer.py wraps: its span
    stack is not synchronised.
    """
    threads = _bank_threads or len(os.sched_getaffinity(0))
    if threads == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, items)


def map_rows(fn, n_rows: int) -> None:
    """fn(rows) for every ROW_CHUNK-row slice of range(n_rows), on the
    bank's threads; returns once every chunk is done."""
    for _ in thread_map(fn, [slice(r, r + ROW_CHUNK) for r in range(0, n_rows, ROW_CHUNK)]):
        pass
