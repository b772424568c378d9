"""Tests for the network engine: packing, forward, losses, gradients, training."""

import struct

import numpy as np
import pytest

from radarlink import neural
from radarlink.config import TrainConfig
from radarlink.covfeatures import aps_diag, reconstruct_toeplitz
from radarlink.neural import (
    BUILDERS,
    VARIANT_WIDTHS,
    DenseLayer,
    _ApsLoss,
    _CovvecApsLoss,
    _EigvecApsLoss,
    MlpModel,
    build_aps_model,
    build_covvec_model,
    build_eigvec_model,
    forward,
    gradient,
    load_checkpoint,
    make_dropout_masks,
    pack_complex,
    pack_feature,
    predict_variant,
    prepare_training_arrays,
    save_checkpoint,
    train,
    unpack_complex,
)

from oracles import aps_from_vector, conv_net_forward, conv_net_gradient


class TestPackComplex:
    def test_magphase(self):
        v = np.array([1.0, 1j])
        np.testing.assert_allclose(
            pack_complex(v, "magphase"), [1, 1, 0, np.pi / 2], atol=1e-15
        )

    def test_realimag(self):
        v = np.array([1.0, 1j])
        np.testing.assert_allclose(pack_complex(v, "realimag"), [1, 0, 0, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for mode in ("realimag", "magphase"):
            back = unpack_complex(pack_complex(v, mode), mode)
            assert np.max(np.abs(back - v)) <= 1e-14

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            pack_complex(np.ones(2, dtype=complex), "polar")


class TestForward:
    def test_identity_linear_layer(self):
        # leaky ReLU is the identity on nonnegative inputs
        layer = DenseLayer(weights=np.eye(4), biases=np.zeros(4), activation="leaky_relu")
        model = MlpModel(layers=[layer], variant="aps")
        x = np.array([0.3, 1.2, 4.0, 0.0])
        np.testing.assert_allclose(forward(model, x)[0], x)

    def test_leaky_relu(self):
        layer = DenseLayer(weights=np.eye(2), biases=np.zeros(2), activation="leaky_relu")
        model = MlpModel(layers=[layer], variant="aps")
        np.testing.assert_allclose(forward(model, np.array([-1.0, 2.0]))[0], [-0.1, 2.0])

    def test_unit_norm_output(self):
        rng = np.random.default_rng(1)
        model = build_eigvec_model(8, seed=0)
        x = rng.standard_normal((5, 16))
        out = forward(model, x)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        model = build_eigvec_model(8)
        with pytest.raises(ValueError):
            forward(model, np.ones(7))

    def test_dropout_only_in_training(self):
        model = build_eigvec_model(8, seed=2)
        x = np.ones((1, 16))
        a = forward(model, x)
        b = forward(model, x)
        assert np.array_equal(a, b)
        assert np.array_equal(a, neural._forward_cached(model, x)[0])

        def training_pass(seed):
            masks = make_dropout_masks(model, x.shape[0], np.random.default_rng(seed))
            return neural._forward_cached(model, x, masks)[0]

        c = training_pass(1)
        d = training_pass(1)
        assert np.array_equal(c, d)
        e = training_pass(2)
        assert not np.array_equal(c, e)


def packed(v):
    """One-record batch in the training layout: real rows as is, complex
    vectors as [Re; Im]."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        v = pack_complex(v, "realimag")
    return v[np.newaxis, :]


def aps_loss(pred, target):
    return _ApsLoss(len(pred)).value(packed(pred), packed(target))


def eigvec_loss(pred, target):
    return _EigvecApsLoss(len(pred)).value(packed(pred), packed(target))


def covvec_loss(pred, target):
    return _CovvecApsLoss(len(pred), 1.0).value(packed(pred), packed(target))


class TestLossFunctions:
    """The loss objects training uses, on one packed record at norm_const 1."""

    def test_aps_mse_basics(self):
        a = np.array([1.0, 2.0, 3.0])
        assert aps_loss(a, a) == 0.0
        assert aps_loss(a + 1.0, a) == pytest.approx(1.0)

    def test_aps_mse_matches_hand_computation(self):
        rng = np.random.default_rng(2)
        p, t = rng.random(8), rng.random(8)
        assert aps_loss(p, t) == pytest.approx(np.sum((p - t) ** 2) / 8)

    def test_eigvec_phase_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        for gamma in (0.0, 0.7, -2.1, np.pi):
            assert eigvec_loss(v * np.exp(1j * gamma), v) <= 1e-18

    def test_eigvec_zero_pred(self):
        from radarlink.numerics import dft_matrix

        n = 16
        v = dft_matrix(n)[:, 4]
        z_true = aps_from_vector(v)
        expected = np.sum(z_true**2) / n
        assert eigvec_loss(np.zeros(n, dtype=complex), v) == pytest.approx(expected)

    def test_eigvec_matches_composition(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        z_a, z_b = aps_from_vector(a), aps_from_vector(b)
        assert eigvec_loss(a, b) == pytest.approx(np.mean((z_a - z_b) ** 2))

    def test_covvec_zero_when_matched(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        col[0] = abs(col[0])
        assert covvec_loss(col, col) <= 1e-20

    def test_covvec_zero_pred(self):
        rng = np.random.default_rng(6)
        target = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        true_aps = aps_diag(reconstruct_toeplitz(target))
        assert covvec_loss(np.zeros(8, dtype=complex), target) == pytest.approx(
            np.mean(true_aps**2)
        )

    def test_covvec_matches_composition(self):
        rng = np.random.default_rng(7)
        col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        target = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        true_aps = aps_diag(reconstruct_toeplitz(target))
        aps = aps_diag(reconstruct_toeplitz(col))
        assert covvec_loss(col, target) == pytest.approx(np.mean((aps - true_aps) ** 2))


def toy_model(variant, n=6, seed=0):
    """Small 3-dense-layer model for gradient checks."""
    rng = np.random.default_rng(seed)
    sizes = {"aps": (n, 10, 8, n), "eigvec": (2 * n, 10, 8, 2 * n), "covvec": (2 * n, 10, 8, 2 * n)}[variant]
    act = "tanh" if variant == "covvec" else "leaky_relu"
    layers = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / n_in)
        layers.append(
            DenseLayer(
                weights=rng.uniform(-limit, limit, (n_out, n_in)),
                biases=rng.uniform(-0.1, 0.1, n_out),
                activation=act,
            )
        )
    # eigvec models normalize their output to unit norm
    return MlpModel(layers=layers, variant=variant, norm_const=1.3)


def finite_difference_grads(model, x, y, variant, step=1e-5, masks=None):
    grads = []
    for layer in model.layers:
        dw = np.zeros_like(layer.weights)
        it = np.nditer(layer.weights, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            up = gradient(model, x, y, variant, masks)[0]
            layer.weights[idx] = orig - step
            down = gradient(model, x, y, variant, masks)[0]
            layer.weights[idx] = orig
            dw[idx] = (up - down) / (2 * step)
            it.iternext()
        db = np.zeros_like(layer.biases)
        for i in range(len(layer.biases)):
            orig = layer.biases[i]
            layer.biases[i] = orig + step
            up = gradient(model, x, y, variant, masks)[0]
            layer.biases[i] = orig - step
            down = gradient(model, x, y, variant, masks)[0]
            layer.biases[i] = orig
            db[i] = (up - down) / (2 * step)
        grads.append((dw, db))
    return grads


class TestGradient:
    @pytest.mark.parametrize("variant", ["aps", "eigvec", "covvec"])
    def test_matches_finite_differences(self, variant):
        n = 6
        model = toy_model(variant, n)
        rng = np.random.default_rng(10)
        b = 3
        d_in = 2 * n if variant != "aps" else n
        d_out = d_in
        x = rng.standard_normal((b, d_in))
        y = rng.standard_normal((b, d_out))
        if variant == "aps":
            y = np.abs(y)
        _, analytic = gradient(model, x, y, variant)
        numeric = finite_difference_grads(model, x, y, variant)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            scale = max(np.max(np.abs(nw)), 1e-8)
            assert np.max(np.abs(aw - nw)) / scale <= 1e-4
            scale_b = max(np.max(np.abs(nb)), 1e-8)
            assert np.max(np.abs(ab - nb)) / scale_b <= 1e-4

    def test_conv_model_matches_finite_differences(self):
        n = 8
        model = build_aps_model(n, seed=3)
        rng = np.random.default_rng(11)
        x = np.abs(rng.standard_normal((2, n)))
        y = np.abs(rng.standard_normal((2, n)))
        _, analytic = gradient(model, x, y, "aps")
        numeric = finite_difference_grads(model, x, y, "aps")
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            scale = max(np.max(np.abs(nw)), 1e-8)
            assert np.max(np.abs(aw - nw)) / scale <= 1e-4
            scale_b = max(np.max(np.abs(nb)), 1e-8)
            assert np.max(np.abs(ab - nb)) / scale_b <= 1e-4

    def test_gradient_with_dropout_masks(self):
        model = build_eigvec_model(4, seed=4)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 8))
        y = rng.standard_normal((2, 8))
        masks = make_dropout_masks(model, 2, np.random.default_rng(5))
        _, analytic = gradient(model, x, y, "eigvec", masks=masks)
        numeric = finite_difference_grads(model, x, y, "eigvec", masks=masks)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            scale = max(np.max(np.abs(nw)), 1e-8)
            assert np.max(np.abs(aw - nw)) / scale <= 1e-4

    def test_zero_loss_zero_gradient(self):
        n = 6
        model = toy_model("aps", n)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, n))
        y = forward(model, x)
        _, grads = gradient(model, x, y, "aps")
        for gw, gb in grads:
            assert np.max(np.abs(gw)) <= 1e-10
            assert np.max(np.abs(gb)) <= 1e-10

    def test_duplicated_batch_same_mean_gradient(self):
        n = 6
        model = toy_model("covvec", n)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 2 * n))
        y = rng.standard_normal((2, 2 * n))
        _, g1 = gradient(model, x, y, "covvec")
        _, g2 = gradient(model, np.vstack([x, x]), np.vstack([y, y]), "covvec")
        for (aw, _), (bw, _) in zip(g1, g2):
            assert np.max(np.abs(aw - bw)) <= 1e-12

    @pytest.mark.parametrize("variant", ["aps", "eigvec", "covvec"])
    def test_loss_is_the_batch_loss(self, variant):
        model = toy_model(variant, 4)
        rng = np.random.default_rng(15)
        width = 4 * VARIANT_WIDTHS[variant]
        x, y = rng.standard_normal((3, width)), rng.standard_normal((3, width))
        loss, _ = gradient(model, x, y, variant)
        assert loss == neural._make_loss(variant, model, y.shape[1]).value(forward(model, x), y)

    def test_empty_batch_rejected(self):
        model = toy_model("aps")
        with pytest.raises(ValueError):
            gradient(model, np.zeros((0, 6)), np.zeros((0, 6)), "aps")


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestConvOracle:
    """The channels-last GEMM convolutions against the channel-major,
    tap-by-tap loop forward and einsum backward they replace."""

    def batch(self, n):
        model = build_aps_model(n, seed=n)
        rng = np.random.default_rng(n)
        for layer in model.layers:
            layer.biases = rng.uniform(-0.1, 0.1, layer.biases.shape)
        x = np.abs(rng.standard_normal((64, n)))
        y = np.abs(rng.standard_normal((64, n)))
        return model, x, y

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_forward_matches_loop_oracle(self, n):
        model, x, _ = self.batch(n)
        assert max_rel(forward(model, x), conv_net_forward(model, x)[0]) <= 1e-12

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_gradient_matches_loop_oracle(self, n):
        model, x, y = self.batch(n)
        loss, grads = gradient(model, x, y, "aps")
        oracle_loss, oracle_grads = conv_net_gradient(model, x, y)
        assert loss == pytest.approx(oracle_loss, rel=1e-12)
        for (dw, db), (odw, odb) in zip(grads, oracle_grads):
            assert dw.shape == odw.shape
            assert max_rel(dw, odw) <= 1e-12
            assert max_rel(db, odb) <= 1e-12


class TestTrain:
    def make_linear_problem(self, n=8, n_train=256, n_val=64, seed=0):
        """Targets are a fixed unitary map (DFT-basis permutation) of
        eigenvector-like inputs drawn from the DFT directions."""
        from radarlink.numerics import dft_matrix

        rng = np.random.default_rng(seed)
        f = dft_matrix(n)
        perm = rng.permutation(n)
        xs, ys = [], []
        for _ in range(n_train + n_val):
            k = int(rng.integers(0, n))
            xs.append(pack_complex(f[:, k], "magphase"))
            ys.append(pack_complex(f[:, perm[k]], "realimag"))
        x = np.array(xs)
        y = np.array(ys)
        return (x[:n_train], y[:n_train]), (x[n_train:], y[n_train:])

    def test_zero_epochs_returns_initial(self):
        model = build_eigvec_model(4, seed=0)
        w_before = model.copy_weights()
        (tr, va) = self.make_linear_problem(4, 16, 8)
        cfg = TrainConfig(max_epochs=0, batch_size=8, seed=0)
        model, history = train(model, tr, va, cfg, "eigvec")
        assert history == []
        for (w0, b0), layer in zip(w_before, model.layers):
            assert np.array_equal(w0, layer.weights)
            assert np.array_equal(b0, layer.biases)

    def test_deterministic_history(self):
        tr, va = self.make_linear_problem(4, 32, 16)
        cfg = TrainConfig(max_epochs=5, batch_size=8, seed=7)
        m1, h1 = train(build_eigvec_model(4, seed=1), tr, va, cfg, "eigvec")
        m2, h2 = train(build_eigvec_model(4, seed=1), tr, va, cfg, "eigvec")
        assert h1 == h2
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.weights, l2.weights)

    def test_learns_linear_map(self):
        tr, va = self.make_linear_problem(16, 1024, 128, seed=3)
        model = build_eigvec_model(16, seed=2)
        initial = gradient(model, va[0], va[1], "eigvec")[0]
        cfg = TrainConfig(max_epochs=400, batch_size=64, seed=0, learning_rate=1e-3)
        model, history = train(model, tr, va, cfg, "eigvec")
        best = min(h.val_loss for h in history)
        assert best <= 0.01 * initial
        assert gradient(model, va[0], va[1], "eigvec")[0] == pytest.approx(best, rel=1e-9)

    def test_never_returns_worse_than_best(self):
        tr, va = self.make_linear_problem(4, 64, 32, seed=4)
        model = build_covvec_model(4, seed=5)
        cfg = TrainConfig(max_epochs=30, batch_size=16, seed=1)
        model, history = train(model, tr, va, cfg, "covvec")
        best = min(h.val_loss for h in history)
        assert gradient(model, va[0], va[1], "covvec")[0] <= best * (1 + 1e-12)

    def test_lr_follows_plateau_rule(self, monkeypatch):
        # noise targets plateau quickly; replay the recorded val losses
        # through the plateau rule and check the recorded lr trajectory
        rng = np.random.default_rng(6)
        x = rng.standard_normal((48, 8))
        y = rng.standard_normal((48, 8))
        # a new minimum must halve the loss to count as improvement, so
        # plateaus (and lr halvings) are guaranteed to occur
        rtol = 0.5
        monkeypatch.setattr(neural, "IMPROVEMENT_RTOL", rtol)
        cfg = TrainConfig(
            max_epochs=60, batch_size=16, seed=0, lr_halve_patience=3,
            early_stop_patience=100,
        )
        model = toy_model("aps", 8, seed=8)
        model, history = train(model, (x, y), (x.copy(), y.copy()), cfg, "aps")
        lr, best, stall = cfg.learning_rate, np.inf, 0
        for rec in history:
            assert rec.learning_rate == lr
            if rec.val_loss < best * (1 - rtol):
                best, stall = rec.val_loss, 0
            else:
                stall += 1
                if stall >= cfg.lr_halve_patience:
                    lr = max(lr / 2.0, cfg.lr_min)
                    stall = 0
        assert min(h.learning_rate for h in history) < cfg.learning_rate
        assert min(h.learning_rate for h in history) >= cfg.lr_min

    def test_early_stop(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((16, 6))
        y = rng.standard_normal((16, 6))
        cfg = TrainConfig(max_epochs=500, batch_size=16, seed=0, learning_rate=0.0, lr_min=1e-12)
        model = toy_model("aps", 6, seed=9)
        model, history = train(model, (x, y), (x, y), cfg, "aps")
        # zero learning rate: no improvement ever; stops after patience+1 epochs
        assert len(history) == cfg.early_stop_patience + 1

    @pytest.mark.parametrize("variant", ["aps", "eigvec", "covvec"])
    def test_val_loss_is_whole_set_loss(self, variant):
        """Validation runs forward in batch-size chunks; 37 records in
        chunks of 16 give the loss of one whole-set pass.  At the default
        array size OpenBLAS gives each row of a dense product the same bits
        whatever the row count, so the dense variants match exactly; at
        n <= 32 some row counts move the loss in its last bit."""
        n = 64
        width = VARIANT_WIDTHS[variant] * n
        rng = np.random.default_rng(16)
        x_tr, y_tr = rng.standard_normal((40, width)), rng.standard_normal((40, width))
        x_va, y_va = rng.standard_normal((37, width)), rng.standard_normal((37, width))
        model = BUILDERS[variant](n, seed=3)
        cfg = TrainConfig(max_epochs=1, batch_size=16, seed=2)
        model, history = train(model, (x_tr, y_tr), (x_va, y_va), cfg, variant)
        whole = gradient(model, x_va, y_va, variant)[0]
        if variant == "aps":
            assert history[0].val_loss == pytest.approx(whole, rel=1e-12)
        else:
            assert history[0].val_loss == whole

    def test_empty_sets_rejected(self):
        model = toy_model("aps", 6)
        with pytest.raises(ValueError):
            train(model, (np.zeros((0, 6)), np.zeros((0, 6))), (np.ones((1, 6)), np.ones((1, 6))), TrainConfig(), "aps")


class TestPredictVariant:
    def test_aps_nonnegative(self):
        model = build_aps_model(8, seed=0)
        rng = np.random.default_rng(0)
        out = predict_variant(model, np.abs(rng.standard_normal(8)))
        assert np.all(out >= 0)

    def test_eigvec_unit_norm_complex(self):
        model = build_eigvec_model(8, seed=1)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        out = predict_variant(model, v)
        assert out.shape == (8,)
        assert np.iscomplexobj(out)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_covvec_scaling(self):
        model = build_covvec_model(8, seed=2)
        model.norm_const = 2.5
        rng = np.random.default_rng(2)
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = predict_variant(model, r)
        assert out.shape == (8,)
        # tanh outputs bounded: physical outputs bounded by norm_const
        assert np.max(np.abs(out.real)) <= 2.5
        assert np.max(np.abs(out.imag)) <= 2.5

    def test_variant_mismatch(self):
        model = build_aps_model(8)
        with pytest.raises(ValueError):
            predict_variant(model, np.ones(8, dtype=complex))
        model2 = build_eigvec_model(8)
        with pytest.raises(ValueError):
            predict_variant(model2, np.ones(8))


class TestNetworkInput:
    @pytest.mark.parametrize("variant", ["aps", "eigvec", "covvec"])
    def test_prediction_sees_the_training_row(self, monkeypatch, variant):
        """predict_variant hands forward exactly the row that
        prepare_training_arrays builds from the same stored record."""
        n = 8
        rng = np.random.default_rng(8)
        if variant == "aps":
            features = np.abs(rng.standard_normal((5, n)))
        else:
            features = 3.0 * (rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)))
        stored = np.array([pack_feature(f) for f in features])
        targets = 0.5 * stored[::-1]
        train_idx, val_idx = np.array([0, 2, 3]), np.array([1, 4])
        (x_tr, _), (x_va, _), norm_const = prepare_training_arrays(
            variant, stored, targets, train_idx, val_idx
        )
        assert (norm_const != 1.0) == (variant == "covvec")
        model = BUILDERS[variant](n, seed=0)
        model.norm_const = norm_const
        seen = []
        real_forward = neural.forward

        def recording(m, x, *args, **kwargs):
            seen.append(np.array(x))
            return real_forward(m, x, *args, **kwargs)

        monkeypatch.setattr(neural, "forward", recording)
        for record, row in ((0, x_tr[0]), (3, x_tr[2]), (1, x_va[0])):
            predict_variant(model, features[record])
            assert seen[-1].shape == (1, VARIANT_WIDTHS[variant] * n)
            assert np.array_equal(seen[-1][0], row)

    def test_pack_feature(self):
        np.testing.assert_array_equal(pack_feature(np.array([0.5, 2.0])), [0.5, 2.0])
        np.testing.assert_array_equal(pack_feature(np.array([1.0, 2j])), [1.0, 0.0, 0.0, 2.0])


class TestCheckpoint:
    @pytest.mark.parametrize("builder,variant", [
        (build_aps_model, "aps"),
        (build_eigvec_model, "eigvec"),
        (build_covvec_model, "covvec"),
    ])
    def test_round_trip(self, tmp_path, builder, variant):
        model = builder(64, seed=3)
        model.norm_const = 1.75
        path = tmp_path / f"{variant}.ckpt"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        assert back.variant == variant
        assert back.norm_const == 1.75
        for l1, l2 in zip(model.layers, back.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.biases, l2.biases)
        # behavioral equivalence
        rng = np.random.default_rng(4)
        if variant == "aps":
            x = np.abs(rng.standard_normal(64))
        else:
            x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            if variant == "eigvec":
                x /= np.linalg.norm(x)
        np.testing.assert_array_equal(
            predict_variant(model, x), predict_variant(back, x)
        )

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("builder,variant", [
        (build_aps_model, "aps"),
        (build_eigvec_model, "eigvec"),
        (build_covvec_model, "covvec"),
    ])
    def test_round_trip_any_array_size(self, tmp_path, builder, variant, n):
        model = builder(n, seed=5)
        path = tmp_path / f"{variant}-{n}.ckpt"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        assert back.variant == variant
        assert len(back.layers) == len(model.layers)
        for l1, l2 in zip(model.layers, back.layers):
            assert l2.weights.shape == l1.weights.shape
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.biases, l2.biases)
        x = np.abs(np.random.default_rng(6).standard_normal(n))
        if variant != "aps":
            x = x * np.exp(1j * np.linspace(0.0, 3.0, n))
            x /= np.linalg.norm(x)
        np.testing.assert_array_equal(predict_variant(model, x), predict_variant(back, x))

    def test_odd_eigvec_width_rejected(self, tmp_path):
        model = build_eigvec_model(4, seed=0)
        model.layers[-1].weights = model.layers[-1].weights[:7]
        model.layers[-1].biases = model.layers[-1].biases[:7]
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(ValueError, match="output width 7"):
            load_checkpoint(path)

    def test_header_layout(self, tmp_path):
        model = build_covvec_model(4, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw[:4] == b"MLPC"
        assert int.from_bytes(raw[4:8], "little") == 3
        assert int.from_bytes(raw[8:12], "little") == len(model.layers)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_covvec_model(4, seed=0))
        raw = path.read_bytes()
        # empty, header cut, header only, inside layer 0's shape and weights,
        # inside the last layer's biases and the normalization constant
        for size, where in (
            (0, "its header"),
            (4, "its header"),
            (12, "layer 0"),
            (15, "layer 0"),
            (12 + 8 + 5, "layer 0"),
            (len(raw) - 8 - 3, f"layer {len(build_covvec_model(4).layers) - 1}"),
            (len(raw) - 3, "its normalization constant"),
        ):
            path.write_bytes(raw[:size])
            with pytest.raises(ValueError, match=f"truncated in {where}"):
                load_checkpoint(path)
        # a corrupt layer shape larger than any file
        path.write_bytes(raw[:12] + struct.pack("<II", 2**32 - 1, 2**32 - 1))
        with pytest.raises(ValueError, match="truncated in layer 0"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_covvec_model(4, seed=0))
        raw = path.read_bytes()
        for extra in (b"\0", bytes(8)):
            path.write_bytes(raw + extra)
            with pytest.raises(
                ValueError, match=f"{len(extra)} bytes after its normalization constant"
            ):
                load_checkpoint(path)
