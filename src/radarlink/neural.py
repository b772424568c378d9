"""Dense-network engine and the three radar-to-communication translators.

Plain-numpy networks with analytic backpropagation: an APS predictor with
a 1-D convolutional front end, a dominant-eigenvector predictor with a
unit-norm output, and a covariance-vector predictor with tanh-bounded
outputs.  Losses include the windowed-periodogram eigenvector loss and the
Toeplitz-APS covariance-vector loss, both differentiated exactly.
Conv activations are channels-last (batch, width, channels), and each conv
layer is im2col plus one GEMM forward, one for the weight gradient and one
for the input gradient (a convolution with the flipped kernel).  train()
builds its loss once, steps Adam on the loss-and-gradient pass that
gradient() exposes, halves the learning rate on validation plateaus and
stops early; the validation set runs forward in batch-size chunks.  All
randomness derives from explicit seeds.  Each variant's format lives here:
pack_feature and VARIANT_WIDTHS define the stored dataset rows, and
network_input encodes them for training and prediction alike.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import TrainConfig
from .covfeatures import APS_WINDOW_ATTENUATION_DB, toeplitz_aps_matrices
from .numerics import chebyshev_window

CHECKPOINT_MAGIC = b"MLPC"
LEAKY_ALPHA = 0.1

VARIANT_IDS = {"aps": 1, "eigvec": 2, "covvec": 3}
VARIANT_NAMES = {v: k for k, v in VARIANT_IDS.items()}
# stored row width in units of the array size n: see pack_feature
VARIANT_WIDTHS = {"aps": 1, "eigvec": 2, "covvec": 2}

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# a validation loss improves on the best only by this relative margin
IMPROVEMENT_RTOL = 1e-6


# ---------------------------------------------------------------------------
# complex packing
# ---------------------------------------------------------------------------

def pack_complex(v: np.ndarray, mode: str) -> np.ndarray:
    """Stack complex vectors (last axis) into 2N reals: |v| then angle, or
    Re then Im."""
    v = np.asarray(v, dtype=complex)
    if mode == "magphase":
        return np.concatenate([np.abs(v), np.angle(v)], axis=-1)
    if mode == "realimag":
        return np.concatenate([v.real, v.imag], axis=-1)
    raise ValueError(f"unknown packing mode {mode!r}")


def unpack_complex(x: np.ndarray, mode: str) -> np.ndarray:
    """Inverse of pack_complex."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2 != 0:
        raise ValueError("packed vector length must be even")
    n = x.shape[-1] // 2
    a, b = x[..., :n], x[..., n:]
    if mode == "magphase":
        return a * np.exp(1j * b)
    if mode == "realimag":
        return a + 1j * b
    raise ValueError(f"unknown packing mode {mode!r}")


def pack_feature(v: np.ndarray) -> np.ndarray:
    """A feature as dataset records store it: real as is, complex as [Re; Im]."""
    v = np.asarray(v)
    return pack_complex(v, "realimag") if np.iscomplexobj(v) else v


# ---------------------------------------------------------------------------
# layers and models
# ---------------------------------------------------------------------------

def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "leaky_relu":
        # LEAKY_ALPHA < 1: the larger of z and alpha*z is z where z >= 0
        return np.maximum(z, LEAKY_ALPHA * z)
    if name == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "leaky_relu":
        return np.where(z >= 0, 1.0, LEAKY_ALPHA)
    if name == "tanh":
        return 1.0 - a * a
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray  # (out,)
    activation: str = "leaky_relu"
    dropout: float = 0.0


@dataclass
class Conv1dLayer:
    """Same-padded 1-D convolution over channels-last (batch, width, channels)."""

    weights: np.ndarray  # (out_ch, in_ch, kernel)
    biases: np.ndarray  # (out_ch,)
    activation: str = "leaky_relu"


@dataclass
class MlpModel:
    layers: list
    variant: str  # eigvec models normalize their output to unit norm
    norm_const: float = 1.0
    input_width: int = 0  # conv front ends reshape flat input to (1, width)

    def copy_weights(self) -> list:
        return [(l.weights.copy(), l.biases.copy()) for l in self.layers]

    def set_weights(self, weights: list) -> None:
        for layer, (w, b) in zip(self.layers, weights):
            layer.weights = w.copy()
            layer.biases = b.copy()


def _init_dense(rng, n_out: int, n_in: int, activation: str, dropout=0.0) -> DenseLayer:
    limit = np.sqrt(6.0 / n_in)
    return DenseLayer(
        weights=rng.uniform(-limit, limit, size=(n_out, n_in)),
        biases=np.zeros(n_out),
        activation=activation,
        dropout=dropout,
    )


def _init_conv(rng, out_ch: int, in_ch: int, kernel: int, activation: str) -> Conv1dLayer:
    limit = np.sqrt(6.0 / (in_ch * kernel))
    return Conv1dLayer(
        weights=rng.uniform(-limit, limit, size=(out_ch, in_ch, kernel)),
        biases=np.zeros(out_ch),
        activation=activation,
    )


def build_aps_model(n: int, seed: int = 0) -> MlpModel:
    """APS predictor on an n-bin input: conv(5,16) -> conv(5,32) -> conv(5,16) -> dense(n)."""
    rng = np.random.default_rng(seed)
    layers = [
        _init_conv(rng, 16, 1, 5, "leaky_relu"),
        _init_conv(rng, 32, 16, 5, "leaky_relu"),
        _init_conv(rng, 16, 32, 5, "leaky_relu"),
        _init_dense(rng, n, 16 * n, "leaky_relu"),
    ]
    return MlpModel(layers=layers, variant="aps", input_width=n)


def build_eigvec_model(n: int, seed: int = 0) -> MlpModel:
    """Eigenvector predictor: 5 dense layers 2n-4n-8n-4n-2n on a 2n input,
    LeakyReLU(0.1), 50% dropout after the 3rd, unit-norm output."""
    rng = np.random.default_rng(seed)
    sizes = [2 * n, 2 * n, 4 * n, 8 * n, 4 * n, 2 * n]
    layers = []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        dropout = 0.5 if i == 2 else 0.0
        layers.append(_init_dense(rng, n_out, n_in, "leaky_relu", dropout))
    return MlpModel(layers=layers, variant="eigvec")


def build_covvec_model(n: int, seed: int = 0) -> MlpModel:
    """Covariance-vector predictor: dense 2n-4n-4n-2n on a 2n input, tanh, no dropout."""
    rng = np.random.default_rng(seed)
    sizes = [2 * n, 2 * n, 4 * n, 4 * n, 2 * n]
    layers = [
        _init_dense(rng, n_out, n_in, "tanh")
        for n_in, n_out in zip(sizes, sizes[1:])
    ]
    return MlpModel(layers=layers, variant="covvec")


BUILDERS = {"aps": build_aps_model, "eigvec": build_eigvec_model, "covvec": build_covvec_model}


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _conv(h: np.ndarray, weights: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 1-D convolution of channels-last h (B, W, C) as one GEMM.

    Output position w reads inputs w - pad + m at taps m < kernel, zero
    outside [0, W).  Returns the im2col matrix (B*W, kernel*C), tap-major
    and C-contiguous, and the (B*W, out) product with the (out, C, kernel)
    weights.
    """
    b, w, c = h.shape
    out_ch, _, kernel = weights.shape
    hp = np.zeros((b, w + kernel - 1, c))
    hp[:, pad : pad + w] = h
    # each window hp[b, w : w + kernel] is one contiguous run of kernel*C
    windows = sliding_window_view(hp, kernel, axis=1).transpose(0, 1, 3, 2)
    cols = np.ascontiguousarray(windows).reshape(b * w, kernel * c)
    return cols, cols @ weights.transpose(0, 2, 1).reshape(out_ch, kernel * c).T


def make_dropout_masks(model: MlpModel, batch_size: int, rng) -> list:
    """Inverted-dropout masks for one batch (None for keep-all layers)."""
    masks = []
    for layer in model.layers:
        if isinstance(layer, DenseLayer) and layer.dropout > 0.0:
            keep = 1.0 - layer.dropout
            masks.append((rng.random((batch_size, layer.weights.shape[0])) < keep) / keep)
        else:
            masks.append(None)
    return masks


def _forward_cached(model: MlpModel, x: np.ndarray, masks=None):
    """Forward pass keeping per-layer caches for backprop.

    x: (B, d_in) flat input.  Returns (output (B, d_out), caches).  Conv
    activations are channels-last (B, W, C); flat vectors crossing the
    conv boundary are channel-major.  Each layer caches the 2-D matrix its
    weights multiply (the im2col columns for conv layers) and the
    pre-mask activation, so activation gradients are exact under dropout.
    """
    h = x
    caches = []
    if isinstance(model.layers[0], Conv1dLayer):
        h = h.reshape(h.shape[0], -1, model.input_width).transpose(0, 2, 1)
    for idx, layer in enumerate(model.layers):
        mask = masks[idx] if masks is not None else None
        if isinstance(layer, Conv1dLayer):
            kernel = layer.weights.shape[2]
            layer_in, z = _conv(h, layer.weights, kernel // 2)
            z += layer.biases
            z = z.reshape(h.shape[0], h.shape[1], -1)
        else:
            if h.ndim == 3:
                h = h.transpose(0, 2, 1).reshape(h.shape[0], -1)
            layer_in = h
            z = h @ layer.weights.T + layer.biases
        a_pre = _act(layer.activation, z)
        caches.append((layer_in, z, a_pre, mask))
        h = a_pre if mask is None else a_pre * mask
    if h.ndim == 3:
        h = h.transpose(0, 2, 1).reshape(h.shape[0], -1)
    norm_cache = None
    if model.variant == "eigvec":
        norms = np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-300)
        out = h / norms
        norm_cache = (norms, out)
        h = out
    return h, (caches, norm_cache)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Layer-wise forward pass with dropout off (inference)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    expected = _input_dim(model)
    if x.shape[1] != expected:
        raise ValueError(f"input dimension {x.shape[1]} != expected {expected}")
    out, _ = _forward_cached(model, x)
    return out


def _input_dim(model: MlpModel) -> int:
    first = model.layers[0]
    if isinstance(first, Conv1dLayer):
        return model.input_width * first.weights.shape[1]
    return first.weights.shape[1]


def _backward(model: MlpModel, caches, d_out: np.ndarray) -> list:
    """Backpropagate dL/d(output) into per-layer (dW, db) gradients.

    Each layer's weight gradient is one GEMM against its cached input
    matrix; a conv layer's input gradient is the same-padded convolution
    of dz with the flipped kernel.  Layer 0's input gradient is skipped.
    """
    layer_caches, norm_cache = caches
    g = d_out
    if norm_cache is not None:
        norms, out = norm_cache
        dot = np.sum(g * out, axis=1, keepdims=True)
        g = (g - out * dot) / norms
    grads: list = [None] * len(model.layers)
    for idx in range(len(model.layers) - 1, -1, -1):
        layer_in, z, a_pre, mask = layer_caches[idx]
        layer = model.layers[idx]
        if mask is not None:
            g = g * mask
        if isinstance(layer, Conv1dLayer):
            b, w, out_ch = z.shape
            if g.ndim == 2:  # from a dense layer: channel-major flat
                g = g.reshape(b, out_ch, w).transpose(0, 2, 1)
            dz = g * _act_grad(layer.activation, z, a_pre)
            dz2 = dz.reshape(b * w, out_ch)
            _, in_ch, kernel = layer.weights.shape
            dw = (dz2.T @ layer_in).reshape(out_ch, kernel, in_ch).transpose(0, 2, 1)
            grads[idx] = (dw, dz2.sum(axis=0))
            if idx > 0:
                flipped = layer.weights.transpose(1, 0, 2)[:, :, ::-1]
                _, g = _conv(dz, flipped, kernel - 1 - kernel // 2)
                g = g.reshape(b, w, in_ch)
        else:
            dz = g * _act_grad(layer.activation, z, a_pre)
            grads[idx] = (dz.T @ layer_in, dz.sum(axis=0))
            if idx > 0:
                g = dz @ layer.weights
    return grads


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class _ApsLoss:
    """Plain MSE on the network output."""

    def __init__(self, n: int):
        self.n = n

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        return float(np.mean((pred - target) ** 2))

    def grad(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        return 2.0 * (pred - target) / pred.size


class _EigvecApsLoss:
    """Windowed-periodogram APS loss on [Re; Im]-packed unit vectors."""

    def __init__(self, n: int):
        self.n = n
        self.window = chebyshev_window(n, APS_WINDOW_ATTENUATION_DB)

    def _aps(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = packed[:, : self.n] + 1j * packed[:, self.n :]
        y = np.fft.fft(self.window * v, axis=1)
        return np.abs(y) ** 2, y

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        z_pred, _ = self._aps(pred)
        z_true, _ = self._aps(target)
        return float(np.mean(np.mean((z_pred - z_true) ** 2, axis=1)))

    def grad(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        b = pred.shape[0]
        z_pred, y = self._aps(pred)
        z_true, _ = self._aps(target)
        g_z = (2.0 / self.n) * (z_pred - z_true) / b
        # adjoint of v -> |FFT(c v)|^2:  u = c * N * ifft(g_z * y)
        u = self.window * (self.n * np.fft.ifft(g_z * y, axis=1))
        return np.concatenate([2.0 * u.real, 2.0 * u.imag], axis=1)


class _CovvecApsLoss:
    """Toeplitz-APS loss on [Re; Im]-packed, norm-scaled covariance vectors.

    Both prediction and target are in normalized units; the stored scale
    converts to physical covariance vectors.  The APS map is linear, so
    gradients are a fixed matrix product.
    """

    def __init__(self, n: int, norm_const: float):
        self.n = n
        self.norm_const = norm_const
        self.j_re, self.j_im = toeplitz_aps_matrices(n)

    def _aps(self, packed: np.ndarray) -> np.ndarray:
        re = packed[:, : self.n] * self.norm_const
        im = packed[:, self.n :] * self.norm_const
        return re @ self.j_re.T + im @ self.j_im.T

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        diff = self._aps(pred) - self._aps(target)
        return float(np.mean(np.mean(diff * diff, axis=1)))

    def grad(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        b = pred.shape[0]
        g_aps = (2.0 / self.n) * (self._aps(pred) - self._aps(target)) / b
        g_re = self.norm_const * (g_aps @ self.j_re)
        g_im = self.norm_const * (g_aps @ self.j_im)
        return np.concatenate([g_re, g_im], axis=1)


def _make_loss(variant: str, model: MlpModel, n_out: int):
    if variant == "aps":
        return _ApsLoss(n_out)
    if variant == "eigvec":
        return _EigvecApsLoss(n_out // 2)
    if variant == "covvec":
        return _CovvecApsLoss(n_out // 2, model.norm_const)
    raise ValueError(f"unknown loss variant {variant!r}")


def _loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray, loss, masks) -> tuple:
    out, caches = _forward_cached(model, x, masks)
    return loss.value(out, y), _backward(model, caches, loss.grad(out, y))


def gradient(model: MlpModel, x: np.ndarray, y: np.ndarray, loss_variant: str, masks=None) -> tuple:
    """Batch-mean loss and its exact parameter gradients.

    Returns (loss, one (dW, db) pair per layer).  masks, when given, are
    the dropout masks of the forward pass.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    return _loss_and_grads(model, x, y, _make_loss(loss_variant, model, y.shape[1]), masks)


# ---------------------------------------------------------------------------
# network input
# ---------------------------------------------------------------------------

def network_input(variant: str, stored_rows: np.ndarray, norm_const: float) -> np.ndarray:
    """Network input rows from stored dataset rows (see pack_feature).

    Eigenvectors are repacked from [Re; Im] to magnitude/phase; the other
    variants are divided by the norm constant, which is 1 for aps.
    """
    rows = np.asarray(stored_rows, dtype=float)
    if variant == "eigvec":
        return pack_complex(unpack_complex(rows, "realimag"), "magphase")
    return rows / norm_const


def prepare_training_arrays(variant: str, inputs, targets, train_idx, val_idx):
    """Dataset records -> network arrays plus the normalization constant.

    Covariance vectors are scaled by the train split's largest entry
    magnitude, inputs and targets alike; the other variants keep scale 1.
    """
    norm_const = 1.0
    if variant == "covvec":
        stored = np.concatenate([inputs[train_idx], targets[train_idx]])
        norm_const = float(np.abs(unpack_complex(stored, "realimag")).max(initial=0.0)) or 1.0

    def arrays(idx):
        return network_input(variant, inputs[idx], norm_const), targets[idx] / norm_const

    return arrays(train_idx), arrays(val_idx), norm_const


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    learning_rate: float


class _Adam:
    def __init__(self, model: MlpModel):
        self.t = 0
        self.m = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in model.layers]
        self.v = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in model.layers]

    def step(self, model: MlpModel, grads: list, lr: float) -> None:
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for layer, (mw, mb), (vw, vb), (gw, gb) in zip(model.layers, self.m, self.v, grads):
            mw *= b1
            mw += (1 - b1) * gw
            vw *= b2
            vw += (1 - b2) * gw * gw
            layer.weights -= lr * (mw / bc1) / (np.sqrt(vw / bc2) + eps)
            mb *= b1
            mb += (1 - b1) * gb
            vb *= b2
            vb += (1 - b2) * gb * gb
            layer.biases -= lr * (mb / bc1) / (np.sqrt(vb / bc2) + eps)


def train(
    model: MlpModel,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    loss_variant: str,
) -> tuple[MlpModel, list[EpochRecord]]:
    """Adam training with validation-plateau LR halving and early stop.

    Validation is evaluated with dropout off every epoch, forward in
    cfg.batch_size chunks and then one loss over the whole set; the
    returned model carries the weights of the best validation epoch.  All
    randomness (shuffling, dropout) derives from cfg.seed.
    """
    x_tr, y_tr = (np.asarray(a, dtype=float) for a in train_set)
    x_va, y_va = (np.asarray(a, dtype=float) for a in val_set)
    if x_tr.shape[0] == 0 or x_va.shape[0] == 0:
        raise ValueError("train and validation sets must be non-empty")

    loss = _make_loss(loss_variant, model, y_tr.shape[1])
    rng = np.random.default_rng(cfg.seed)
    adam = _Adam(model)
    lr = cfg.learning_rate
    best_val = np.inf
    best_weights = model.copy_weights()
    stall_stop = 0
    stall_lr = 0
    history: list[EpochRecord] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(x_tr.shape[0])
        train_losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            masks = make_dropout_masks(model, len(idx), rng)
            step_loss, grads = _loss_and_grads(model, x_tr[idx], y_tr[idx], loss, masks)
            train_losses.append(step_loss)
            adam.step(model, grads, lr)

        val_out = np.concatenate([
            _forward_cached(model, x_va[start : start + cfg.batch_size])[0]
            for start in range(0, x_va.shape[0], cfg.batch_size)
        ])
        val_loss = loss.value(val_out, y_va)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(train_losses)),
                val_loss=float(val_loss),
                learning_rate=lr,
            )
        )
        if val_loss < best_val * (1.0 - IMPROVEMENT_RTOL):
            best_val = val_loss
            best_weights = model.copy_weights()
            stall_stop = 0
            stall_lr = 0
        else:
            stall_stop += 1
            stall_lr += 1
            if stall_lr >= cfg.lr_halve_patience:
                lr = max(lr / 2.0, cfg.lr_min)
                stall_lr = 0
            if stall_stop >= cfg.early_stop_patience:
                break

    model.set_weights(best_weights)
    return model, history


def write_history_csv(path, history: list[EpochRecord], header_lines=()) -> None:
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write("epoch,train_loss,val_loss,learning_rate\n")
        for rec in history:
            f.write(
                f"{rec.epoch},{rec.train_loss:.12e},{rec.val_loss:.12e},"
                f"{rec.learning_rate:.12e}\n"
            )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_variant(model: MlpModel, radar_feature: np.ndarray) -> np.ndarray:
    """Map a radar feature through the trained translator.

    The feature is encoded like a stored training row, so a feature of
    the wrong kind fails forward's width check.  aps: clamped nonnegative
    APS out; eigvec and covvec: complex vector out, in the units of the
    stored rows.
    """
    x = network_input(model.variant, pack_feature(radar_feature)[np.newaxis, :], model.norm_const)
    out = forward(model, x)[0]
    if model.variant == "aps":
        return np.maximum(out, 0.0)
    return unpack_complex(model.norm_const * out, "realimag")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: MlpModel) -> None:
    """Binary checkpoint: magic "MLPC", u32 variant id, u32 layer count,
    per layer {u32 rows, u32 cols, f64 weights row-major, f64 biases},
    then one f64 normalization constant.  Little-endian throughout."""
    with open(path, "wb") as f:
        f.write(
            struct.pack(
                "<4sII", CHECKPOINT_MAGIC, VARIANT_IDS[model.variant], len(model.layers)
            )
        )
        for layer in model.layers:
            w2 = layer.weights.reshape(layer.weights.shape[0], -1)
            f.write(struct.pack("<II", w2.shape[0], w2.shape[1]))
            f.write(w2.astype("<f8").tobytes())
            f.write(layer.biases.astype("<f8").tobytes())
        f.write(struct.pack("<d", model.norm_const))


def _read_exact(f, size: int, what: str) -> bytes:
    # sized against the file first: a corrupt shape must not size the read
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise ValueError(f"checkpoint truncated in {what}: {left} of {size} bytes")
    return f.read(size)


def load_checkpoint(path) -> MlpModel:
    """Rebuild the variant architecture and fill it from a checkpoint.

    The array size n is read from the last layer's output width,
    VARIANT_WIDTHS[variant] times n.  A short file, or one with bytes after
    the normalization constant, is a ValueError.
    """
    with open(path, "rb") as f:
        magic, variant_id, n_layers = struct.unpack("<4sII", _read_exact(f, 12, "its header"))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        if variant_id not in VARIANT_NAMES:
            raise ValueError(f"unknown checkpoint variant id {variant_id}")
        variant = VARIANT_NAMES[variant_id]
        stored = []
        for i in range(n_layers):
            rows, cols = struct.unpack("<II", _read_exact(f, 8, f"layer {i}"))
            w = np.frombuffer(_read_exact(f, 8 * rows * cols, f"layer {i}"), dtype="<f8")
            b = np.frombuffer(_read_exact(f, 8 * rows, f"layer {i}"), dtype="<f8")
            stored.append((w.reshape(rows, cols), b))
        (norm_const,) = struct.unpack("<d", _read_exact(f, 8, "its normalization constant"))
        trailing = len(f.read())
    if trailing:
        raise ValueError(f"checkpoint has {trailing} bytes after its normalization constant")
    out_width = stored[-1][0].shape[0] if stored else 0
    n, odd = divmod(out_width, VARIANT_WIDTHS[variant])
    if n < 1 or odd:
        raise ValueError(f"checkpoint output width {out_width} fits no {variant} model")
    model = BUILDERS[variant](n)
    if n_layers != len(model.layers):
        raise ValueError(
            f"checkpoint has {n_layers} layers, {variant} expects {len(model.layers)}"
        )
    for layer, (w, b) in zip(model.layers, stored):
        expected = layer.weights.reshape(layer.weights.shape[0], -1).shape
        if w.shape != expected:
            raise ValueError(f"checkpoint layer shape {w.shape} != expected {expected}")
        layer.weights = w.reshape(layer.weights.shape).copy()
        layer.biases = b.copy()
    model.norm_const = float(norm_const)
    return model
