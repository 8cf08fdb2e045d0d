"""Model zoo: three small classifiers and the convolutional autoencoder.

Parameters live in frozen dataclasses as ordered (name, Tensor) pairs; the
order is canonical per architecture and everything downstream (gradient
vectors, serialization, fingerprints) relies on it.  All tensors are leaf
variables so any forward pass can be differentiated with respect to them.

Classifier architectures:
  dense1   flatten -> fc                                  [w, b]
  mlp2     flatten -> fc+relu -> fc+relu -> fc            [w1, b1, w2, b2, w3, b3]
  convnet  3 x (conv k3 s2 p1 + relu) -> flatten -> fc    [conv{i}_w, conv{i}_b, fc_w, fc_b]

Autoencoder (input spatial dims must be divisible by 4):
  encoder  conv k3 s2 p1 + relu, twice        C -> widths[0] -> widths[1]
  decoder  2 x (nearest-upsample x2 + conv k3 s1 p1), relu between, sigmoid out

The attack and prior training run on numpy passes over these models, never
on a graph.  ``ClassifierGradient`` gives the classifier's parameter
gradient and its x-adjoint; ``AutoEncoderPass`` gives the reconstruction
and its two adjoints, each decoder layer being ``tensor.upsample2_conv2d``'s
kernels, four sub-pixel k2 convs of the low-resolution input, so the
upsampled tensor is never built.  ``forward_classifier`` composes engine
nodes: it is the reference the tests hold ``ClassifierGradient`` to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import tensor as tt
from .errors import ArgumentError, DimensionError
from .tensor import Tensor

CLASSIFIER_ARCHS = ("dense1", "mlp2", "convnet")


@dataclass(frozen=True)
class InitScheme:
    """How to draw initial weights.

    kind 'kaiming_uniform' draws U(+-sqrt(6/fan_in)); 'normal' draws
    N(0, sigma^2).  Biases start at zero either way.  The seed here is the
    default; init functions may override it per call.
    """

    kind: str = "kaiming_uniform"
    sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("kaiming_uniform", "normal"):
            raise ArgumentError(f"unknown init kind '{self.kind}'")
        if self.sigma < 0:
            raise ArgumentError("init sigma must be >= 0")


def _draw(rng, scheme: InitScheme, fan_in: int, shape) -> np.ndarray:
    if scheme.kind == "normal":
        return rng.normal(0.0, scheme.sigma, shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape)


class _ParamOps:
    """Shared helpers for the parameter dataclasses."""

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.items)

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        return tuple(t for _, t in self.items)

    def tensor(self, name: str) -> Tensor:
        for n, t in self.items:
            if n == name:
                return t
        raise ArgumentError(f"no parameter named '{name}'")

    def to_arrays(self) -> list[np.ndarray]:
        return [t.data.copy() for _, t in self.items]

    def with_values(self, arrays):
        """Same structure, new values (used by optimizers and loaders)."""
        arrays = list(arrays)
        if len(arrays) != len(self.items):
            raise ArgumentError(f"expected {len(self.items)} arrays, got {len(arrays)}")
        new_items = []
        for (name, old), arr in zip(self.items, arrays):
            arr = np.asarray(arr)
            if arr.shape != old.shape:
                raise DimensionError(f"parameter '{name}': shape {arr.shape} "
                                     f"does not match {old.shape}")
            new_items.append((name, tt.variable(arr)))
        return replace(self, items=tuple(new_items))


@dataclass(frozen=True)
class ClassifierParams(_ParamOps):
    arch: str
    in_shape: tuple[int, int, int]
    num_classes: int
    items: tuple[tuple[str, Tensor], ...]


@dataclass(frozen=True)
class AutoEncoderParams(_ParamOps):
    in_channels: int
    widths: tuple[int, int]
    items: tuple[tuple[str, Tensor], ...]

    @cached_property
    def phase_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """The decoder layers' [4*O, 4*C] sub-pixel kernels, computed once:
        every attack step of a run uses the same parameters."""
        return tuple(tt._phase_kernels(self.tensor(f"{name}_w").data)
                     for name in ("dec1", "dec2"))


def _conv_out(h: int, k: int, s: int, p: int) -> int:
    return (h + 2 * p - k) // s + 1


def init_classifier(arch: str,
                    in_shape: tuple[int, int, int] = (3, 32, 32),
                    num_classes: int = 10,
                    seed: int | None = None,
                    scheme: InitScheme = InitScheme(),
                    hidden: int = 64,
                    channels: tuple[int, int, int] = (8, 16, 32)) -> ClassifierParams:
    """Build a classifier with freshly drawn parameters.

    Same (arch, shapes, seed, scheme) always yields bit-identical values:
    a single generator is consumed in canonical parameter order.
    """
    if arch not in CLASSIFIER_ARCHS:
        raise ArgumentError(f"unknown architecture '{arch}', expected one of {CLASSIFIER_ARCHS}")
    c, h, w = (int(v) for v in in_shape)
    if c < 1 or h < 1 or w < 1 or num_classes < 2:
        raise ArgumentError(f"bad model geometry: in_shape={in_shape}, classes={num_classes}")
    rng = np.random.default_rng(scheme.seed if seed is None else seed)
    d = c * h * w
    items: list[tuple[str, Tensor]] = []

    def fc(name, n_out, n_in):
        items.append((f"{name}_w", tt.variable(_draw(rng, scheme, n_in, (n_out, n_in)))))
        items.append((f"{name}_b", tt.variable(np.zeros(n_out))))

    if arch == "dense1":
        fc("fc", num_classes, d)
    elif arch == "mlp2":
        fc("fc1", hidden, d)
        fc("fc2", hidden, hidden)
        fc("fc3", num_classes, hidden)
    else:
        c_in = c
        hh, ww = h, w
        for i, c_out in enumerate(channels, start=1):
            fan = c_in * 9
            items.append((f"conv{i}_w",
                          tt.variable(_draw(rng, scheme, fan, (c_out, c_in, 3, 3)))))
            items.append((f"conv{i}_b", tt.variable(np.zeros(c_out))))
            hh, ww = _conv_out(hh, 3, 2, 1), _conv_out(ww, 3, 2, 1)
            if hh < 1 or ww < 1:
                raise DimensionError(f"input {in_shape} too small for convnet stage {i}")
            c_in = c_out
        fc("fc", num_classes, c_in * hh * ww)

    return ClassifierParams(arch=arch, in_shape=(c, h, w), num_classes=num_classes,
                            items=tuple(items))


def _check_images(images: np.ndarray, in_shape) -> None:
    if not isinstance(images, np.ndarray):
        raise ArgumentError("images must be an array")
    if images.ndim != 4:
        raise DimensionError(f"images must be NCHW, got rank {images.ndim}")
    if tuple(images.shape[1:]) != tuple(in_shape):
        raise DimensionError(f"images {images.shape} do not match model input {in_shape}")
    if images.shape[0] < 1:
        raise DimensionError("empty batch")


def _affine_layers(params: ClassifierParams) -> list[tuple[Tensor, Tensor]]:
    # every classifier is a chain of affine layers in canonical parameter
    # order, [w, b] per layer: a 4-d w is a conv k3 s2 p1, a 2-d one an fc
    # on the flattened input; a relu follows each layer but the last
    t = params.tensors
    return list(zip(t[0::2], t[1::2]))


def forward_classifier(params: ClassifierParams, images: Tensor) -> Tensor:
    """Logits [N, num_classes] for a batch of images."""
    if not isinstance(images, Tensor):
        raise ArgumentError("images must be a Tensor")
    _check_images(images.data, params.in_shape)
    n = images.shape[0]
    layers = _affine_layers(params)
    x = images
    for i, (w, b) in enumerate(layers):
        if w.ndim == 4:
            x = tt.conv2d(x, w, stride=2, padding=1, bias=b)
        else:
            if x.ndim != 2:
                x = tt.reshape(x, (n, x.size // n))
            x = tt.linear(x, w, b)
        if i < len(layers) - 1:
            x = tt.relu(x)
    return x


class ClassifierGradient:
    """g'(x): the batch-mean cross-entropy's gradient wrt every classifier
    parameter, by one forward and one backward pass in numpy.

    ``arrays`` holds g' in canonical parameter order.  The object keeps what
    its reverse sweep needs: each layer's input (a conv's as its patch
    matrix), the relu masks, each layer's output cotangent and the softmax.
    ``input_vjp(v)`` then gives d/dx <g'(x), v> for a fixed v, a mixed
    Hessian-vector product, by one reverse sweep through the backward pass
    (Pearlmutter, Neural Computation 1994).  The relu masks are constants
    there, as in the engine.
    """

    def __init__(self, params: ClassifierParams, x: np.ndarray, labels):
        _check_images(x, params.in_shape)
        n = x.shape[0]
        self.layers = [(w.data, b.data) for w, b in _affine_layers(params)]
        self.shapes, self.ins, self.masks = [], [], []
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            self.shapes.append(x.shape)
            if w.ndim == 4:
                self.ins.append(tt._im2col_data(x, 3, 2, 1))
            else:
                self.ins.append(x.reshape(n, -1))
            x = self._affine(i, w, b)
            if i < last:
                self.masks.append(x > 0)
                x = np.maximum(x, 0.0)
        onehot = tt._onehot(labels, n, x.shape[1])
        e = np.exp(x - x.max(axis=1, keepdims=True))
        self.probs = e / e.sum(axis=1, keepdims=True)
        delta = (self.probs - onehot) / n
        self.deltas = [None] * len(self.layers)
        arrays = []
        for i in range(last, -1, -1):
            self.deltas[i] = delta
            arrays[:0] = self._param_adjoint(i, delta)
            if i:
                delta = self._input_adjoint(i, delta, self.layers[i][0]) * self.masks[i - 1]
        self.arrays = arrays

    # one affine layer and its adjoints, on arrays

    def _affine(self, i: int, w: np.ndarray, b: np.ndarray | None = None,
                x: np.ndarray | None = None) -> np.ndarray:
        # layer i's map with weights w (and bias b) applied to x, by default
        # to the layer's own input
        shape = self.shapes[i]
        if w.ndim == 4:
            cols = self.ins[i] if x is None else tt._im2col_data(x, 3, 2, 1)
            return tt._conv2d_data(cols, w, (shape[0],) + shape[2:], 2, 1, b)
        rows = self.ins[i] if x is None else x.reshape(shape[0], -1)
        out = rows @ w.T
        if b is not None:
            out += b
        return out

    def _input_adjoint(self, i: int, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        # transpose of layer i's map with weights w, onto its input's shape
        shape = self.shapes[i]
        if w.ndim == 4:
            return tt._conv2d_dx_data(g, w, shape[2:], 2, 1)
        return (g @ w).reshape(shape)

    def _param_adjoint(self, i: int, g: np.ndarray) -> list[np.ndarray]:
        w = self.layers[i][0]
        if w.ndim == 4:
            return [tt._conv2d_dw_data(self.ins[i], g, w.shape[1], 3), g.sum(axis=(0, 2, 3))]
        return [g.T @ self.ins[i], g.sum(axis=0)]

    def input_vjp(self, v) -> np.ndarray:
        """d/dx <g'(x), v> for arrays ``v`` shaped like ``arrays``."""
        # sweep 1, up the backward pass: the adjoint of each layer's output
        # cotangent, from <dW, vW> + <db, vb> and from the next layer's input
        # adjoint, which reads it through the relu mask
        bar = None
        for i, (w, _) in enumerate(self.layers):
            d = self._affine(i, v[2 * i], v[2 * i + 1])
            if i:
                d += self._affine(i, w, x=bar * self.masks[i - 1])
            bar = d
        # through the softmax: delta = (p - onehot) / n, with a symmetric
        # Jacobian (diag(p) - p p^T) / n per row
        u = bar / len(self.probs)
        bar = self.probs * (u - (self.probs * u).sum(axis=1, keepdims=True))
        # sweep 2, down the forward pass: each layer's input gets the adjoint
        # of its output (weights w) plus that of its dW term (cotangent delta,
        # weights vW), as one transposed map of both stacked on the channel axis
        for i in range(len(self.layers) - 1, -1, -1):
            w = self.layers[i][0]
            bar = self._input_adjoint(i, np.concatenate((bar, self.deltas[i]), axis=1),
                                      np.concatenate((w, v[2 * i])))
            if i:
                bar = bar * self.masks[i - 1]
        return bar


def init_autoencoder(in_channels: int = 3,
                     seed: int | None = None,
                     scheme: InitScheme = InitScheme(),
                     widths: tuple[int, int] = (16, 32)) -> AutoEncoderParams:
    """Build the reconstruction autoencoder with fresh parameters."""
    if in_channels < 1:
        raise ArgumentError(f"in_channels must be positive, got {in_channels}")
    w1, w2 = (int(v) for v in widths)
    if w1 < 1 or w2 < 1:
        raise ArgumentError(f"widths must be positive, got {widths}")
    rng = np.random.default_rng(scheme.seed if seed is None else seed)
    items: list[tuple[str, Tensor]] = []

    def conv(name, c_out, c_in):
        items.append((f"{name}_w", tt.variable(_draw(rng, scheme, c_in * 9, (c_out, c_in, 3, 3)))))
        items.append((f"{name}_b", tt.variable(np.zeros(c_out))))

    conv("enc1", w1, in_channels)
    conv("enc2", w2, w1)
    conv("dec1", w1, w2)
    conv("dec2", in_channels, w1)
    return AutoEncoderParams(in_channels=in_channels, widths=(w1, w2), items=tuple(items))


def _check_autoencoder_input(params: AutoEncoderParams, images: np.ndarray) -> None:
    if not isinstance(images, np.ndarray):
        raise ArgumentError("images must be an array")
    if images.ndim != 4:
        raise DimensionError(f"images must be NCHW, got rank {images.ndim}")
    n, c, h, w = images.shape
    if c != params.in_channels:
        raise DimensionError(f"autoencoder expects {params.in_channels} channels, got {c}")
    if h % 4 != 0 or w % 4 != 0:
        raise DimensionError(f"autoencoder needs spatial dims divisible by 4, got {h}x{w}")


def _relu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the activation (z's array, overwritten) and its mask
    mask = z > 0
    return np.maximum(z, 0.0, out=z), mask


class AutoEncoderPass:
    """The autoencoder's forward pass in numpy, and its two adjoints.

    It keeps the input ``x``, the hidden activations ``a1..a3``, their relu
    masks and the reconstruction ``out``, never a patch matrix: each layer
    unfolds its input again in the parameter sweep.  The decoder layers are
    ``tensor.upsample2_conv2d``'s kernels on the parameters' cached phase
    kernels.  ``input_vjp(g)`` maps a cotangent of ``out`` to x (the
    attack's adjoint); ``param_grads(g)`` maps it to every parameter by one
    sweep from the decoder down (prior training's).  The relu masks are
    constants there, as in the engine.
    """

    def __init__(self, params: AutoEncoderParams, x: np.ndarray):
        _check_autoencoder_input(params, x)
        self.x = x
        w1, b1, w2, b2, _, b3, _, b4 = (t.data for t in params.tensors)
        self.kernels = (w1, w2) + params.phase_kernels
        self.a1, self.m1 = _relu(self._encode(x, w1, b1))
        self.a2, self.m2 = _relu(self._encode(self.a1, w2, b2))
        self.a3, self.m3 = _relu(tt._upsample2_conv2d_data(self.a2, self.kernels[2], b3))
        z = tt._upsample2_conv2d_data(self.a3, self.kernels[3], b4)
        # sigmoid, exp(-|z|) on either branch so neither overflows
        e = np.exp(-np.abs(z))
        self.out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    @staticmethod
    def _encode(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        # conv k3 s2 p1; the patch matrix lives only for this call
        n, _, h, wd = x.shape
        return tt._conv2d_data(tt._im2col_data(x, 3, 2, 1), w, (n, h, wd), 2, 1, b)

    def input_vjp(self, g: np.ndarray) -> np.ndarray:
        """Cotangent of x for a cotangent ``g`` of the reconstruction."""
        w1, w2, k3, k4 = self.kernels
        g = g * (self.out * (1.0 - self.out))
        g = tt._upsample2_conv2d_dx_data(g, k4) * self.m3
        g = tt._upsample2_conv2d_dx_data(g, k3) * self.m2
        g = tt._conv2d_dx_data(g, w2, self.a1.shape[2:], 2, 1) * self.m1
        return tt._conv2d_dx_data(g, w1, self.x.shape[2:], 2, 1)

    def param_grads(self, g: np.ndarray) -> list[np.ndarray]:
        """Cotangents of the parameters, in canonical order, for a cotangent
        ``g`` of the reconstruction."""
        w1, w2, k3, k4 = self.kernels
        g = g * (self.out * (1.0 - self.out))
        dec2 = [tt._upsample2_conv2d_dw_data(self.a3, g), g.sum(axis=(0, 2, 3))]
        g = tt._upsample2_conv2d_dx_data(g, k4) * self.m3
        dec1 = [tt._upsample2_conv2d_dw_data(self.a2, g), g.sum(axis=(0, 2, 3))]
        g = tt._upsample2_conv2d_dx_data(g, k3) * self.m2
        enc2 = [tt._conv2d_dw_data(tt._im2col_data(self.a1, 3, 2, 1), g, w2.shape[1], 3),
                g.sum(axis=(0, 2, 3))]
        g = tt._conv2d_dx_data(g, w2, self.a1.shape[2:], 2, 1) * self.m1
        enc1 = [tt._conv2d_dw_data(tt._im2col_data(self.x, 3, 2, 1), g, w1.shape[1], 3),
                g.sum(axis=(0, 2, 3))]
        return enc1 + enc2 + dec1 + dec2


def forward_autoencoder(params: AutoEncoderParams, images: np.ndarray) -> np.ndarray:
    """Reconstruction of the batch, same shape as input, values in (0, 1)."""
    return AutoEncoderPass(params, images).out
