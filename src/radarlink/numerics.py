"""Shared complex linear-algebra and DSP kernels, on numpy alone.

Small, deterministic building blocks used across the radar and
communication pipeline: unitary DFT/steering matrices, Dolph-Chebyshev
windows, a dominant-eigenpair solver, a linear-phase FIR lowpass of rows
times a tone (isolation's lag correction) into the caller's buffer, a
limiter on the threads of the OpenBLAS numpy runs its linear algebra on,
and the thread pool of the radar chain.

The radar chain's parallelism is threads inside its kernels: the mixing
bank's block groups and the lowpass's ROW_CHUNK-row chunks are mapped
over `thread_map`, whose thread count `set_bank_threads` sets.  numpy's
ufuncs and pocketfft release the GIL, and each row of a row kernel is
computed by the same operations whatever rows share its chunk, so the
bytes do not depend on the thread count.  Only the kernel's insides run
on the pool: the kernel itself, and every function it is called through,
runs on the calling thread.

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


@functools.lru_cache(maxsize=16)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT beamforming matrix, read-only, built once per n.

    Column j is the steering/DFT vector with per-element phase increment
    2*pi*j/n, scaled so every column has unit norm and F^H F = I.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    f.flags.writeable = False
    return f


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


@functools.lru_cache(maxsize=8)
def lowpass_spectrum(
    cutoff_hz: float, sample_rate_hz: float, n_taps: int, n_samples: int
) -> np.ndarray:
    """Spectrum of the lowpass_taps at the fast FFT length of an n_samples
    row's full convolution, read-only, built once per argument tuple."""
    taps = lowpass_taps(cutoff_hz, sample_rate_hz, n_taps)
    nfft = next_fast_len(n_samples + n_taps - 1)
    half = np.fft.rfft(taps, nfft)
    spectrum = np.concatenate((half, half[nfft - len(half) : 0 : -1].conj()))
    spectrum.flags.writeable = False
    return spectrum


def fir_lowpass(
    x: np.ndarray,
    cutoff_hz: float,
    sample_rate_hz: float,
    n_taps: int,
    tone: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Filter each complex row of x times tone with the same linear-phase
    FIR lowpass into out, a complex array of x's shape; returns out.

    Output length equals input length: the (n_taps-1)/2 group delay is
    compensated by centered trimming of the full convolution, which is an
    FFT product at a fast length.  Rows are filtered ROW_CHUNK at a time on
    the bank's threads, each chunk in one scratch of FFT length: the rows
    times the tone, zero padding, then the forward FFT, the spectrum
    product and the inverse FFT in place.  pocketfft transforms each row
    of a batch alone, so the bytes equal those of one whole-array
    transform of x * tone, whatever out held before.
    """
    n = x.shape[1]
    spectrum = lowpass_spectrum(cutoff_hz, sample_rate_hz, n_taps, n)
    start = (n_taps - 1) // 2

    def filter_rows(r0):
        chunk = x[r0 : r0 + ROW_CHUNK]
        s = np.empty((len(chunk), len(spectrum)), dtype=complex)
        np.multiply(chunk, tone, out=s[:, :n])
        s[:, n:] = 0.0
        np.fft.fft(s, out=s)
        np.multiply(s, spectrum, out=s)
        np.fft.ifft(s, out=s)
        out[r0 : r0 + ROW_CHUNK] = s[:, start : start + n]

    list(thread_map(filter_rows, range(0, len(x), ROW_CHUNK)))  # every chunk, then return
    return out


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
# also sets the bytes.  The bank's per-group scratch and fir_lowpass's
# per-chunk scratch (ROW_CHUNK rows of FFT length), freed on the pool's
# threads, stay in their malloc arenas: a default 4-scene dataset (seed 21)
# peaked at 74.7-74.8 MB with 4 rows, 78.7-79.2 MB with 16 and 84.1-86.3 MB
# with all 64 (2-core x86-64, Python 3.11, numpy 2.4, two runs each).
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
    # sched_getaffinity is Linux-only; elsewhere every core counts as usable
    affinity = getattr(os, "sched_getaffinity", None)
    threads = _bank_threads or (len(affinity(0)) if affinity else os.cpu_count() or 1)
    if threads == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, items)
