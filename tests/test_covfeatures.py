"""Tests for Toeplitz-PSD projection, APS extraction, covariance vectors."""

import numpy as np
import pytest

from radarlink import covfeatures
from radarlink.channel import steering_vector
from radarlink.covariance import SpatialCovariance
from radarlink.covfeatures import (
    _hermitian_toeplitz,
    _toeplitz_average,
    aps_diag,
    aps_from_covariance,
    reconstruct_toeplitz,
    toeplitz_aps_matrices,
    toeplitz_psd_project,
)
from radarlink.numerics import dft_matrix

from oracles import aps_from_vector, cov_vector, toeplitz_average_loop


def toeplitz_average_oracle(x):
    """Independent per-diagonal averaging (loop over entries)."""
    n = x.shape[0]
    h = 0.5 * (x + x.conj().T)
    out = np.zeros_like(h)
    for d in range(-(n - 1), n):
        vals = [h[i, i - d] for i in range(max(0, d), min(n, n + d))]
        mean = np.mean(vals)
        for i in range(max(0, d), min(n, n + d)):
            out[i, i - d] = mean
    return out


def projection_oracle(a, iters=3000):
    """Fine-grained alternating projections run to a tight fixed point."""
    x = toeplitz_average_oracle(a)
    for _ in range(iters):
        vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
        x_psd = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
        x_next = toeplitz_average_oracle(x_psd)
        if np.linalg.norm(x_next - x) < 1e-12 * max(np.linalg.norm(a), 1.0):
            return x_next
        x = x_next
    return x


def two_decomposition_projection(r_hat, noise_power_w=0.0, tol=1e-8, max_iter=200):
    """Reference alternating-projection loop that tests PSD-ness with
    eigvalsh and clips with a separate eigh of the symmetrized iterate.

    Returns (matrix, converged, iterations, branch) where branch names the
    exit that ended the loop: "psd", "stall" or "max_iter".
    """
    a = r_hat.matrix - noise_power_w * np.eye(r_hat.n)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    x = _toeplitz_average(a)[1]
    converged = False
    iterations = 0
    branch = "max_iter"
    for iterations in range(1, max_iter + 1):
        if float(np.linalg.eigvalsh(x).min()) >= -tol * scale:
            converged, branch = True, "psd"
            break
        vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
        x_next = _toeplitz_average((vecs * np.maximum(vals, 0.0)) @ vecs.conj().T)[1]
        moved = float(np.linalg.norm(x_next - x))
        x = x_next
        if moved <= tol * scale:
            converged = float(np.linalg.eigvalsh(x).min()) >= -tol * scale
            branch = "stall"
            break
    if np.linalg.norm(x) == 0.0:
        converged = True
    return x, converged, iterations, branch


def rank1_cov(n, theta):
    a = steering_vector(n, theta)
    return SpatialCovariance(np.outer(a, a.conj()))


def projected(r, noise_power_w=0.0):
    """The Toeplitz matrix of the projection's returned column."""
    return reconstruct_toeplitz(toeplitz_psd_project(r, noise_power_w).col).matrix


def indefinite_cases():
    """(covariance, noise power, tol, max_iter) that reach every exit of the
    projection loop: few-snapshot sample covariances minus a noise floor
    are indefinite, as the isolated radar covariances are."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for n in (8, 16, 64):
            m = n // 2
            y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            r = SpatialCovariance(y @ y.conj().T / m)
            for sigma in (0.0, 0.5, 1.0):
                for tol, max_iter in ((1e-8, 200), (1e-8, 3), (1e-3, 200)):
                    yield r, sigma, tol, max_iter


class TestToeplitzAverage:
    @staticmethod
    def assert_bytes_equal_loop(x):
        col, mat = _toeplitz_average(x)
        ref_col, ref_mat = _hermitian_toeplitz(toeplitz_average_loop(x))
        assert col.tobytes() == ref_col.tobytes()
        assert mat.tobytes() == ref_mat.tobytes()

    def test_bytes_equal_mean_loop_on_projection_inputs(self):
        """The noise-subtracted start and the first clipped iterate of every
        indefinite case: the two kinds of matrix the projection averages."""
        for r, sigma, _, _ in indefinite_cases():
            a = r.matrix - sigma * np.eye(r.n)
            self.assert_bytes_equal_loop(a)
            vals, vecs = np.linalg.eigh(_toeplitz_average(a)[1])
            self.assert_bytes_equal_loop((vecs * np.maximum(vals, 0.0)) @ vecs.conj().T)

    @pytest.mark.parametrize("n", [3, 65, 128])
    def test_bytes_equal_mean_loop_on_random_matrices(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            self.assert_bytes_equal_loop(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )


class TestToeplitzPsdProject:
    def test_fixed_point(self):
        theta = 0.4
        r = rank1_cov(8, theta)
        res = toeplitz_psd_project(r, noise_power_w=0.0)
        assert res.converged
        assert np.max(np.abs(reconstruct_toeplitz(res.col).matrix - r.matrix)) <= 1e-8

    def test_identity_minus_noise_is_zero(self):
        r = SpatialCovariance(np.eye(6, dtype=complex))
        res = toeplitz_psd_project(r, noise_power_w=1.0)
        assert res.converged
        assert np.allclose(res.col, 0.0)

    def test_output_in_both_cones(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        r = SpatialCovariance(a @ a.conj().T)
        m = projected(r, noise_power_w=0.5)
        scale = np.linalg.norm(m)
        # Toeplitz: constant along every diagonal
        for d in range(1, 8):
            diag = np.diagonal(m, offset=d)
            assert np.max(np.abs(diag - diag[0])) <= 1e-10 * scale
        assert np.linalg.eigvalsh(m).min() >= -1e-7 * scale

    def test_close_to_long_run_oracle(self, monkeypatch):
        monkeypatch.setattr(covfeatures, "PROJECTION_TOL", 1e-10)
        monkeypatch.setattr(covfeatures, "PROJECTION_MAX_ITER", 2000)
        rng = np.random.default_rng(1)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            r = SpatialCovariance(a @ a.conj().T + 2.0 * np.eye(8))
            sigma = 1.0
            res = toeplitz_psd_project(r, noise_power_w=sigma)
            target = r.matrix - sigma * np.eye(8)
            oracle = projection_oracle(target)
            d_ours = np.linalg.norm(reconstruct_toeplitz(res.col).matrix - target)
            d_oracle = np.linalg.norm(oracle - target)
            assert d_ours <= 1.01 * d_oracle + 1e-9

    def test_idempotent(self, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = SpatialCovariance(a @ a.conj().T)
        tol = 1e-9
        monkeypatch.setattr(covfeatures, "PROJECTION_TOL", tol)
        once = projected(r)
        twice = projected(SpatialCovariance(once))
        scale = np.linalg.norm(once)
        assert np.linalg.norm(twice - once) <= 2 * tol * scale

    def test_matches_two_decomposition_reference(self, monkeypatch):
        branches = set()
        for r, sigma, tol, max_iter in indefinite_cases():
            x, converged, iterations, branch = two_decomposition_projection(
                r, sigma, tol, max_iter
            )
            monkeypatch.setattr(covfeatures, "PROJECTION_TOL", tol)
            monkeypatch.setattr(covfeatures, "PROJECTION_MAX_ITER", max_iter)
            res = toeplitz_psd_project(r, sigma)
            assert np.array_equal(reconstruct_toeplitz(res.col).matrix, x)
            assert res.iterations == iterations
            assert res.converged == converged
            branches.add((branch, converged))
        assert branches == {("psd", True), ("stall", True), ("stall", False), ("max_iter", False)}

    def test_col_is_first_column_of_projected_matrix(self, monkeypatch):
        """The returned column has the bytes that checking the projected
        matrix for Toeplitz form and reading its first column gives."""
        for r, sigma, tol, max_iter in indefinite_cases():
            x = two_decomposition_projection(r, sigma, tol, max_iter)[0]
            monkeypatch.setattr(covfeatures, "PROJECTION_TOL", tol)
            monkeypatch.setattr(covfeatures, "PROJECTION_MAX_ITER", max_iter)
            col = toeplitz_psd_project(r, sigma).col
            assert col.tobytes() == cov_vector(SpatialCovariance(x)).tobytes()


class TestApsFromCovariance:
    def test_identity_flat(self):
        aps = aps_from_covariance(SpatialCovariance(np.eye(8, dtype=complex)))
        assert np.allclose(aps, 1.0)

    def test_dft_column_one_hot(self):
        f = dft_matrix(16)
        k = 5
        r = SpatialCovariance(np.outer(f[:, k], f[:, k].conj()))
        aps = aps_from_covariance(r)
        assert aps[k] == pytest.approx(1.0)
        others = np.delete(aps, k)
        assert np.max(others) <= 1e-12

    def test_off_grid_peak_at_nearest_bin(self):
        n = 32
        rng = np.random.default_rng(3)
        f = dft_matrix(n)
        for _ in range(5):
            theta = float(rng.uniform(-1.2, 1.2))
            r = rank1_cov(n, theta)
            aps = aps_from_covariance(r)
            # brute force: project the steering vector on every DFT bin
            a = steering_vector(n, theta)
            gains = np.abs(f.conj().T @ a) ** 2
            assert int(np.argmax(aps)) == int(np.argmax(gains))

    def test_trace_conservation(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        r = SpatialCovariance(a @ a.conj().T)
        aps = aps_from_covariance(r)
        assert np.sum(aps) == pytest.approx(r.trace, rel=1e-10)


class TestApsFromVector:
    def test_zero_vector(self):
        assert np.allclose(aps_from_vector(np.zeros(8, dtype=complex)), 0.0)

    def test_dft_column_no_window(self):
        n = 16
        f = dft_matrix(n)
        aps = aps_from_vector(f[:, 3], window=False)
        assert aps[3] == pytest.approx(n)
        assert np.max(np.delete(aps, 3)) <= 1e-12

    def test_windowed_sidelobes(self):
        n = 64
        a = steering_vector(n, 0.0) / np.sqrt(n)
        aps = aps_from_vector(a)
        peak_bin = int(np.argmax(aps))
        level = 10 * np.log10(np.maximum(aps / aps[peak_bin], 1e-30))
        # outside the mainlobe (a few bins), all sidelobes below -35 dB
        outside = [i for i in range(n) if min(abs(i - peak_bin), n - abs(i - peak_bin)) > 3]
        assert np.all(level[outside] <= -35.0 + 0.5)

    def test_window_does_not_move_single_peak(self):
        n = 32
        rng = np.random.default_rng(5)
        for _ in range(5):
            theta = float(rng.uniform(-1.0, 1.0))
            a = steering_vector(n, theta)
            r = rank1_cov(n, theta)
            assert int(np.argmax(aps_from_vector(a))) == int(
                np.argmax(aps_from_covariance(r))
            )


class TestCovVector:
    """The covariance vector is the projection's returned column, and
    reconstruct_toeplitz turns it back into a matrix."""

    def test_identity(self):
        r = SpatialCovariance(np.eye(5, dtype=complex))
        v = toeplitz_psd_project(r).col
        assert np.allclose(v, [1, 0, 0, 0, 0])

    def test_rank1_structure(self):
        # Toeplitz rank-1 ULA covariance: entries are conjugate phase steps
        theta = 0.3
        n = 6
        a = steering_vector(n, theta)
        r = SpatialCovariance(np.outer(a, a.conj()))
        v = toeplitz_psd_project(r).col
        phase = 2 * np.pi * 0.5 * np.sin(theta)
        expected = np.exp(1j * phase * np.arange(n))
        np.testing.assert_allclose(v, expected, atol=1e-12)
        assert np.allclose(np.abs(v), 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        # diagonally dominant, so its Toeplitz matrix is already PSD
        col[0] = np.sum(np.abs(col[1:])) + 1.0
        r = reconstruct_toeplitz(col)
        assert np.array_equal(r.matrix[:, 0], col)
        back = toeplitz_psd_project(r).col
        assert np.max(np.abs(back - col)) <= 1e-12
        again = reconstruct_toeplitz(back)
        assert np.linalg.norm(again.matrix - r.matrix) <= 1e-12
        # an unconstrained first entry still gives a real diagonal
        col[0] += 0.5j
        diagonal = np.diagonal(reconstruct_toeplitz(col).matrix)
        assert np.array_equal(diagonal, np.full(8, col[0].real))

    def test_rejects_non_toeplitz(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = SpatialCovariance(a @ a.conj().T)
        # the oracle the projection's column is checked with
        with pytest.raises(ValueError, match="Toeplitz"):
            cov_vector(r)
        with pytest.raises(ValueError, match="expected a vector"):
            reconstruct_toeplitz(r.matrix)


class TestToeplitzApsMatrices:
    def test_matches_explicit_construction(self):
        n = 16
        rng = np.random.default_rng(8)
        j_re, j_im = toeplitz_aps_matrices(n)
        for _ in range(5):
            col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            col[0] = col[0].real
            direct = aps_diag(reconstruct_toeplitz(col))
            linear = j_re @ col.real + j_im @ col.imag
            np.testing.assert_allclose(linear, direct, atol=1e-10)
