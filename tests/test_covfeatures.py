"""Tests for Toeplitz-PSD projection, APS extraction, covariance vectors."""

import numpy as np
import pytest

from radarlink import covfeatures
from radarlink.channel import steering_vector
from radarlink.covariance import SpatialCovariance
from radarlink.covfeatures import (
    PROJECTION_MAX_ITER,
    PROJECTION_TOL,
    _hermitian_toeplitz,
    _real_form,
    _real_form_column,
    _toeplitz_average,
    aps_diag,
    aps_from_covariance,
    reconstruct_toeplitz,
    toeplitz_aps_matrices,
    toeplitz_psd_project,
)
from radarlink.numerics import dft_matrix

from oracles import (
    aps_diag_einsum,
    aps_from_vector,
    centro_unitary,
    cov_vector,
    toeplitz_average_loop,
)

# relative column deviation allowed between the real-form projection and
# the complex-eigh reference: both run the same iterations in float64, so
# they differ by rounding alone (observed below 3e-14)
PROJECTION_RTOL = 1e-12

# array sizes the real form is checked at: every small size, odd and even,
# the default arrays and one odd size beyond them
REAL_FORM_SIZES = [*range(1, 10), 16, 64, 65]


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


def toeplitz_matrix(x):
    """The Hermitian Toeplitz matrix nearest x, by diagonal averaging."""
    return reconstruct_toeplitz(_toeplitz_average(x)).matrix


def two_decomposition_projection(r_hat, tol=PROJECTION_TOL, max_iter=PROJECTION_MAX_ITER):
    """Reference alternating-projection loop on the complex iterate: it
    tests PSD-ness with eigvalsh and clips with a separate eigh of the
    symmetrized iterate, then lifts the diagonal by the last tested
    iterate's most negative eigenvalue.

    Returns (matrix, converged, iterations, branch, lift_rel) where branch
    names the exit that ended the loop: "psd", "stall" or "max_iter", and
    lift_rel is the lift relative to ||R||_F.
    """
    scale = float(np.linalg.norm(r_hat.matrix))
    tol *= scale
    x = toeplitz_matrix(r_hat.matrix)
    moved = np.inf
    converged, branch = False, "max_iter"
    for iterations in range(1, max_iter + 1):
        lam = float(np.linalg.eigvalsh(x).min())
        if lam >= -tol or moved <= tol:
            converged, branch = True, "psd" if lam >= -tol else "stall"
            break
        vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
        x_next = toeplitz_matrix((vecs * np.maximum(vals, 0.0)) @ vecs.conj().T)
        moved = float(np.linalg.norm(x_next - x))
        x = x_next
    else:
        lam = float(np.linalg.eigvalsh(x).min())
    lift = max(0.0, -lam)
    return x + lift * np.eye(r_hat.n), converged, iterations, branch, lift / scale


def rank1_cov(n, theta):
    a = steering_vector(n, theta)
    return SpatialCovariance(np.outer(a, a.conj()))


def projected(r):
    """The Toeplitz matrix of the projection's returned column."""
    return reconstruct_toeplitz(toeplitz_psd_project(r).col).matrix


def minus_identity(r, sigma):
    """R - sigma I: a PSD covariance minus a floor, indefinite for sigma
    above its smallest eigenvalue."""
    return SpatialCovariance(r.matrix - sigma * np.eye(r.n))


def indefinite_cases():
    """(covariance, tol, max_iter) that reach every exit of the projection
    loop: few-snapshot sample covariances, as such and minus a floor, which
    makes them indefinite."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for n in (8, 16, 64):
            r = few_snapshot_cov(rng, n)
            for sigma in (0.0, 0.5, 1.0):
                for tol, max_iter in ((1e-8, 200), (1e-8, 3), (1e-3, 200)):
                    yield minus_identity(r, sigma), tol, max_iter


def few_snapshot_cov(rng, n):
    """Sample covariance of max(1, n // 2) complex Gaussian snapshots."""
    m = max(1, n // 2)
    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return SpatialCovariance(y @ y.conj().T / m)


def random_column(rng, n):
    col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    col[0] = col[0].real
    return col


def assert_matches_reference(res, reference):
    """Equal iterations and converged flag, the same lift to rounding, a
    real first entry, and a column within PROJECTION_RTOL of the
    reference's, which is checked to be Toeplitz."""
    x, converged, iterations, _, lift_rel = reference
    assert res.iterations == iterations
    assert res.converged == converged
    assert res.lift_rel == pytest.approx(lift_rel, rel=0.0, abs=1e-12)
    assert res.col[0].imag == 0.0
    ref = cov_vector(SpatialCovariance(x))
    assert np.linalg.norm(res.col - ref) <= PROJECTION_RTOL * np.linalg.norm(ref)


class TestToeplitzAverage:
    @staticmethod
    def assert_bytes_equal_loop(x):
        col = _toeplitz_average(x)
        ref_col = toeplitz_average_loop(x)
        ref_col[0] = ref_col[0].real
        assert col.tobytes() == ref_col.tobytes()
        assert _hermitian_toeplitz(col).tobytes() == toeplitz_average_oracle(x).tobytes()

    def test_bytes_equal_mean_loop_on_projection_inputs(self):
        """The start and the first clipped iterate of every indefinite case:
        the two kinds of matrix the projection averages."""
        for r, _, _ in indefinite_cases():
            self.assert_bytes_equal_loop(r.matrix)
            vals, vecs = np.linalg.eigh(toeplitz_matrix(r.matrix))
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
        res = toeplitz_psd_project(r)
        assert res.converged
        assert np.max(np.abs(reconstruct_toeplitz(res.col).matrix - r.matrix)) <= 1e-8

    def test_identity_minus_noise_is_zero(self):
        r = minus_identity(SpatialCovariance(np.eye(6, dtype=complex)), 1.0)
        res = toeplitz_psd_project(r)
        assert res.converged
        assert np.allclose(res.col, 0.0)

    def test_output_in_both_cones(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        r = minus_identity(SpatialCovariance(a @ a.conj().T), 0.5)
        m = projected(r)
        scale = np.linalg.norm(m)
        # Toeplitz: constant along every diagonal
        for d in range(1, 8):
            diag = np.diagonal(m, offset=d)
            assert np.max(np.abs(diag - diag[0])) <= 1e-10 * scale
        assert np.linalg.eigvalsh(m).min() >= -1e-12 * scale

    def test_close_to_long_run_oracle(self, monkeypatch):
        monkeypatch.setattr(covfeatures, "PROJECTION_TOL", 1e-10)
        monkeypatch.setattr(covfeatures, "PROJECTION_MAX_ITER", 2000)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            r = SpatialCovariance(a @ a.conj().T + 2.0 * np.eye(8))
            target = minus_identity(r, 1.0)
            res = toeplitz_psd_project(target)
            oracle = projection_oracle(target.matrix)
            d_ours = np.linalg.norm(reconstruct_toeplitz(res.col).matrix - target.matrix)
            d_oracle = np.linalg.norm(oracle - target.matrix)
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
        branches, lifted = set(), set()
        for r, tol, max_iter in indefinite_cases():
            reference = two_decomposition_projection(r, tol, max_iter)
            monkeypatch.setattr(covfeatures, "PROJECTION_TOL", tol)
            monkeypatch.setattr(covfeatures, "PROJECTION_MAX_ITER", max_iter)
            assert_matches_reference(toeplitz_psd_project(r), reference)
            branches.add((reference[3], reference[1]))
            lifted.add(reference[4] > 0.0)
        assert branches == {("psd", True), ("stall", True), ("max_iter", False)}
        assert lifted == {True, False}

    def test_col_is_first_column_of_projected_matrix(self, monkeypatch):
        """The Toeplitz matrix of the returned column is the reference's
        projected matrix, entry by entry within PROJECTION_RTOL."""
        for r, tol, max_iter in indefinite_cases():
            x = two_decomposition_projection(r, tol, max_iter)[0]
            monkeypatch.setattr(covfeatures, "PROJECTION_TOL", tol)
            monkeypatch.setattr(covfeatures, "PROJECTION_MAX_ITER", max_iter)
            m = projected(r)
            assert np.linalg.norm(m - x) <= PROJECTION_RTOL * np.linalg.norm(x)

    @pytest.mark.parametrize("n", REAL_FORM_SIZES)
    def test_matches_reference_at_every_size(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            r = few_snapshot_cov(rng, n)
            for sigma in (0.5, 1.0):
                r_sigma = minus_identity(r, sigma)
                assert_matches_reference(
                    toeplitz_psd_project(r_sigma), two_decomposition_projection(r_sigma)
                )

    def test_every_exit_ends_psd(self, monkeypatch):
        """The closing lift leaves every returned column's Toeplitz matrix
        PSD to rounding, whichever exit ended the loop: every indefinite
        case, and every real-form size at the default cap and at 3 steps."""
        cases = list(indefinite_cases())
        for n in REAL_FORM_SIZES:
            r = few_snapshot_cov(np.random.default_rng(100 + n), n)
            cases += [
                (minus_identity(r, sigma), PROJECTION_TOL, max_iter)
                for sigma in (0.0, 0.5, 1.0)
                for max_iter in (PROJECTION_MAX_ITER, 3)
            ]
        exits = set()
        for r, tol, max_iter in cases:
            monkeypatch.setattr(covfeatures, "PROJECTION_TOL", tol)
            monkeypatch.setattr(covfeatures, "PROJECTION_MAX_ITER", max_iter)
            res = toeplitz_psd_project(r)
            exits.add(res.converged)
            m = reconstruct_toeplitz(res.col).matrix
            assert np.linalg.eigvalsh(m).min() >= -1e-12 * np.linalg.norm(r.matrix)
        assert exits == {True, False}


class TestRealForm:
    """S(c) = Q^H T(c) Q, and the column read back from Q s Q^H."""

    @pytest.mark.parametrize("n", REAL_FORM_SIZES)
    def test_is_q_similarity_of_toeplitz(self, n):
        rng = np.random.default_rng(n)
        q = centro_unitary(n)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(n), atol=1e-15)
        for _ in range(3):
            col = random_column(rng, n)
            t = reconstruct_toeplitz(col).matrix
            dense = q.conj().T @ t @ q
            s = _real_form(col)
            scale = np.linalg.norm(t)
            assert np.abs(dense.imag).max() <= 1e-14 * scale
            assert np.abs(s - dense.real).max() <= 1e-14 * scale
            assert np.array_equal(s, s.T)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(s), np.linalg.eigvalsh(t), rtol=0, atol=1e-13 * scale
            )

    @pytest.mark.parametrize("n", REAL_FORM_SIZES)
    def test_column_is_diagonal_means_of_q_form(self, n):
        rng = np.random.default_rng(n)
        q = centro_unitary(n)
        for _ in range(3):
            s = rng.standard_normal((n, n))
            s = s + s.T
            expected = toeplitz_average_loop(q @ s @ q.conj().T)
            expected[0] = expected[0].real
            col = _real_form_column(s)
            assert col[0].imag == 0.0
            assert np.linalg.norm(col - expected) <= 1e-14 * np.linalg.norm(s)

    @pytest.mark.parametrize("n", REAL_FORM_SIZES)
    def test_column_inverts_real_form(self, n):
        col = random_column(np.random.default_rng(n), n)
        np.testing.assert_allclose(_real_form_column(_real_form(col)), col, rtol=0, atol=1e-14)


class TestApsFromCovariance:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 65])
    def test_diag_matches_einsum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r = SpatialCovariance(a @ a.conj().T - 0.5 * n * np.eye(n))
            expected = aps_diag_einsum(r)
            got = aps_diag(r)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

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
