"""Tests for the shared DSP and linear-algebra kernels."""

import os
import threading

import numpy as np
import pytest

from radarlink import numerics
from radarlink.numerics import (
    ROW_CHUNK,
    blas_threads,
    chebyshev_window,
    dft_matrix,
    dominant_eigenvector,
    fir_lowpass,
    lowpass_spectrum,
    thread_map,
)


def jacobi_eigh(a, sweeps=100, tol=1e-13):
    """Independent dominant-eigenpair oracle: cyclic complex Jacobi sweeps."""
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diagonal(a))) ** 2))
        if off < tol * max(1.0, np.linalg.norm(a)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                # unitary 2x2 rotation that zeroes a[p, q]
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c * (apq / abs(apq))
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -np.conj(s)
                a = rot.conj().T @ a @ rot
                v = v @ rot
    idx = int(np.argmax(np.diagonal(a).real))
    return float(a[idx, idx].real), v[:, idx]


class TestDftMatrix:
    def test_n1_identity(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_n2(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(dft_matrix(2), expected, atol=1e-15)

    def test_unitary_n64(self):
        f = dft_matrix(64)
        err = np.linalg.norm(f.conj().T @ f - np.eye(64))
        assert err <= 1e-12 * 64

    @pytest.mark.parametrize("n", [1, 3, 7, 16, 33])
    def test_unitary_various(self, n):
        f = dft_matrix(n)
        assert np.linalg.norm(f.conj().T @ f - np.eye(n)) <= 1e-10 * n

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            dft_matrix(0)

    def test_built_once_per_size_and_read_only(self):
        f = dft_matrix(16)
        assert dft_matrix(16) is f
        with pytest.raises(ValueError):
            f[0, 0] = 0.0


class TestChebyshevWindow:
    def test_n2_equal_taps(self):
        assert np.allclose(chebyshev_window(2, 35.0), [1.0, 1.0])
        assert np.allclose(chebyshev_window(2, 80.0), [1.0, 1.0])

    def test_symmetry(self):
        w = chebyshev_window(64, 35.0)
        assert np.max(np.abs(w - w[::-1])) <= 1e-12
        assert w.max() == pytest.approx(1.0)

    def test_sidelobes_at_35db(self):
        w = chebyshev_window(64, 35.0)
        spectrum = np.abs(np.fft.fft(w, 8192))
        main = spectrum[0]
        # sidelobe region: beyond the mainlobe null
        level = 20 * np.log10(np.maximum(spectrum / main, 1e-12))
        # find the first null, then check everything after it
        falling = np.nonzero(np.diff(level[:4096]) > 0)[0]
        first_null = falling[0]
        assert np.all(level[first_null : 4096] <= -35.0 + 1e-6)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            chebyshev_window(1, 35.0)


class TestDominantEigenvector:
    def test_rank_one(self):
        v = np.array([1, 1j, -1, 2.0]) / np.sqrt(7)
        r = np.outer(v, v.conj())
        vec, lam = dominant_eigenvector(r)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(vec, v)) == pytest.approx(1.0, abs=1e-9)

    def test_diag(self):
        vec, lam = dominant_eigenvector(np.diag([2.0, 1.0]).astype(complex))
        assert lam == pytest.approx(2.0)
        assert np.allclose(vec, [1.0, 0.0], atol=1e-8)

    def test_phase_convention(self):
        v = np.array([1j, 1.0]) / np.sqrt(2)
        r = np.outer(v, v.conj())
        vec, _ = dominant_eigenvector(r)
        assert vec[0].imag == pytest.approx(0.0, abs=1e-10)
        assert vec[0].real > 0

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            r = a @ a.conj().T
            vec, lam = dominant_eigenvector(r)
            lam_o, vec_o = jacobi_eigh(r)
            assert lam == pytest.approx(lam_o, rel=1e-8)
            assert abs(np.vdot(vec, vec_o)) == pytest.approx(1.0, abs=1e-7)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        r = a @ a.conj().T
        tol = 1e-10
        vec, lam = dominant_eigenvector(r)
        assert np.linalg.norm(r @ vec - lam * vec) <= tol * np.linalg.norm(r)

    def test_near_degenerate_top_pair(self):
        # Two paths of almost equal power: the top two eigenvalues are 1e-4
        # apart, a gap an iterative power method separates only very slowly.
        r = np.diag([1.0, 0.9999] + [0.1] * 62).astype(complex)
        vec, lam = dominant_eigenvector(r)
        e0 = np.zeros(64)
        e0[0] = 1.0
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(vec, e0, atol=1e-12)

    def test_zero_matrix(self):
        vec, lam = dominant_eigenvector(np.zeros((3, 3), dtype=complex))
        assert lam == 0.0
        assert np.array_equal(vec, [1.0, 0.0, 0.0])


def untoned_lowpass(x, cutoff_hz, sample_rate_hz, n_taps):
    """fir_lowpass of the rows of x times a unit tone, into a fresh buffer."""
    return fir_lowpass(x, cutoff_hz, sample_rate_hz, n_taps, np.ones(x.shape[1]),
                       np.empty(x.shape, dtype=complex))


def assert_lowpass_thread_free(bank_threads, n_rows):
    """Into an output buffer that still holds another call's values, as
    isolation reuses it: a row chunk missed or misplaced on any thread
    count leaves some of them there."""
    rng = np.random.default_rng(8)
    shape = (n_rows, 1000)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tone = np.exp(1j * rng.uniform(-np.pi, np.pi, shape[1]))
    out = np.empty(shape, dtype=complex)
    runs = []
    for threads in (1, 2, 5):
        bank_threads(threads)
        fir_lowpass(x[::-1], 2e6, 50e6, 129, tone.conj(), out)
        assert fir_lowpass(x, 2e6, 50e6, 129, tone, out) is out
        runs.append(out.tobytes())
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert runs[0] == untoned_lowpass(x * tone, 2e6, 50e6, 129).tobytes()


class TestFirLowpass:
    def test_dc_gain(self):
        x = np.ones((1, 4096), dtype=complex)
        y = untoned_lowpass(x, 1e6, 100e6, 129)
        core = y[0, 100:-100]
        assert np.max(np.abs(core - 1.0)) <= 1e-6

    def test_stopband_rejection(self):
        fs = 100e6
        t = np.arange(16384) / fs
        tone = np.exp(2j * np.pi * 0.9 * (fs / 2) * t)
        y = untoned_lowpass(tone[np.newaxis, :], 0.1 * (fs / 2), fs, 129)
        core = y[0, 200:-200]
        p_in = np.mean(np.abs(tone) ** 2)
        p_out = np.mean(np.abs(core) ** 2)
        assert 10 * np.log10(p_out / p_in) <= -40.0

    def test_inband_preserved(self):
        fs = 100e6
        t = np.arange(16384) / fs
        f_pass, f_stop = 1e6, 40e6
        x = np.exp(2j * np.pi * f_pass * t) + np.exp(2j * np.pi * f_stop * t)
        y = untoned_lowpass(x[np.newaxis, :], 5e6, fs, 129)[0]
        core = slice(200, -200)
        # correlate out the in-band tone amplitude
        ref = np.exp(2j * np.pi * f_pass * t)
        amp = np.abs(np.vdot(ref[core], y[core]) / np.vdot(ref[core], ref[core]))
        assert 20 * np.log10(amp) == pytest.approx(0.0, abs=0.5)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2048)) + 1j * rng.standard_normal((2, 2048))
        y = rng.standard_normal((2, 2048)) + 1j * rng.standard_normal((2, 2048))
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        lhs = untoned_lowpass(a * x + b * y, 2e6, 50e6, 129)
        rhs = a * untoned_lowpass(x, 2e6, 50e6, 129) + b * untoned_lowpass(y, 2e6, 50e6, 129)
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_thread_count_does_not_change_bytes(self, bank_threads):
        assert_lowpass_thread_free(bank_threads, 2 * ROW_CHUNK + 3)

    @pytest.mark.parametrize("n_rows", [1, ROW_CHUNK, ROW_CHUNK + 1, 3 * ROW_CHUNK - 1])
    def test_every_row_chunk_filtered_once(self, bank_threads, n_rows):
        assert_lowpass_thread_free(bank_threads, n_rows)

    def test_spectrum_built_once_per_key_and_read_only(self):
        h = lowpass_spectrum(2e6, 50e6, 129, 1000)
        assert lowpass_spectrum(2e6, 50e6, 129, 1000) is h
        assert len(h) == numerics.next_fast_len(1000 + 129 - 1)
        assert lowpass_spectrum(2e6, 50e6, 129, 1001) is not h
        assert lowpass_spectrum(3e6, 50e6, 129, 1000) is not h
        with pytest.raises(ValueError):
            h[0] = 0.0

    def test_rejects_bad_cutoff(self):
        x = np.ones((1, 64), dtype=complex)
        with pytest.raises(ValueError):
            untoned_lowpass(x, 60e6, 100e6, 129)
        with pytest.raises(ValueError):
            untoned_lowpass(x, 0.0, 100e6, 129)
        # a good call at the same rate caches its spectrum, not the check
        untoned_lowpass(x, 10e6, 100e6, 129)
        with pytest.raises(ValueError):
            untoned_lowpass(x, 60e6, 100e6, 129)


class TestBlasThreads:
    def test_sets_then_restores(self, blas2):
        get, _ = blas2
        with blas_threads(1):
            assert get() == 1
        assert get() == 2

    def test_restores_after_raise(self, blas2):
        get, _ = blas2
        with pytest.raises(RuntimeError, match="inside"):
            with blas_threads(1):
                raise RuntimeError("inside")
        assert get() == 2

    def test_nested_limits_unwind(self, blas2):
        get, _ = blas2
        with blas_threads(1):
            with blas_threads(2):
                assert get() == 2
            assert get() == 1
        assert get() == 2

    def test_no_setter_is_a_silent_noop(self, blas2, monkeypatch):
        get, _ = blas2
        monkeypatch.setattr(numerics, "OPENBLAS_THREAD_SYMBOLS", (("no_such_set", "no_such_get"),))
        numerics._openblas_threads.cache_clear()
        try:
            assert numerics._openblas_threads() is None
            with blas_threads(1):
                assert get() == 2
            assert get() == 2
        finally:
            numerics._openblas_threads.cache_clear()

    def test_finds_the_library_numpy_loaded(self, blas2):
        get, put = blas2
        _, getter = numerics._openblas_threads()
        assert getter() == 2
        put(1)
        assert getter() == 1


class TestThreadMap:
    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_results_in_item_order(self, bank_threads, threads):
        bank_threads(threads)
        assert list(thread_map(lambda i: i * i, range(20))) == [i * i for i in range(20)]

    def test_one_thread_runs_on_the_caller(self, bank_threads):
        bank_threads(1)
        ran_on = list(thread_map(lambda _: threading.current_thread(), range(3)))
        assert ran_on == [threading.current_thread()] * 3

    @pytest.mark.parametrize("cores,on_workers", [(3, True), (None, False)])
    def test_default_count_without_sched_getaffinity(
        self, bank_threads, monkeypatch, cores, on_workers
    ):
        # os.sched_getaffinity is Linux-only; elsewhere thread_map runs on
        # os.cpu_count() threads, or on the caller when that is unknown
        bank_threads(None)
        expected = list(thread_map(lambda i: i * i, range(20)))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        ran_on = set()

        def square(i):
            ran_on.add(threading.current_thread())
            return i * i

        assert list(thread_map(square, range(20))) == expected
        assert (threading.current_thread() not in ran_on) == on_workers

    def test_worker_exception_reaches_the_caller(self, bank_threads):
        bank_threads(2)

        def fail(i):
            if i == 3:
                raise RuntimeError("row 3")
            return i

        with pytest.raises(RuntimeError, match="row 3"):
            list(thread_map(fail, range(6)))

