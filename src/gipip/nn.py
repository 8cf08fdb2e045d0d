"""Model zoo: three small classifiers and the convolutional autoencoder.

Parameters live in frozen ``NamedArrays`` dataclasses, a tuple of names
and a tuple of arrays; the order is canonical per architecture and
everything downstream (gradient vectors, serialization, fingerprints)
relies on it.  Every array is ``kernels.frozen``: read-only, C-ordered
float64.  Weights are drawn kaiming-uniform, U(+-sqrt(6/fan_in)), and
biases start at zero.

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
and its two adjoints, each decoder layer being ``kernels.upsample2_conv2d``,
four sub-pixel k2 convs of the low-resolution input, so the upsampled
tensor is never built.  ``forward_classifier`` composes engine nodes, on
parameters a test may make engine variables: it is the reference the tests
hold ``ClassifierGradient`` to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import kernels as kn
from . import tensor as tt
from .errors import ArgumentError, DimensionError
from .tensor import Tensor

CLASSIFIER_ARCHS = ("dense1", "mlp2", "convnet")


def _draw(rng, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape)


@dataclass(frozen=True)
class NamedArrays:
    """Ordered, uniquely named arrays: the base of every parameter bundle and
    of ``losses.GradientVector``."""

    names: tuple[str, ...]
    arrays: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.names) != len(self.arrays):
            raise ArgumentError(f"{type(self).__name__}: names and arrays differ in length")
        if len(set(self.names)) != len(self.names):
            raise ArgumentError(f"{type(self).__name__}: duplicate names")

    def __setstate__(self, state):
        # numpy does not keep the writeable flag through pickle
        for a in state["arrays"]:
            a.setflags(write=False)
        self.__dict__.update(state)

    def array(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise ArgumentError(f"no array named '{name}'")
        return self.arrays[self.names.index(name)]

    def with_values(self, arrays):
        """Same structure, new frozen values (used by optimizers and loaders)."""
        arrays = [np.asarray(a) for a in arrays]
        if len(arrays) != len(self.arrays):
            raise ArgumentError(f"expected {len(self.arrays)} arrays, got {len(arrays)}")
        for name, old, arr in zip(self.names, self.arrays, arrays):
            if arr.shape != old.shape:
                raise DimensionError(f"parameter '{name}': shape {arr.shape} "
                                     f"does not match {old.shape}")
        return replace(self, arrays=tuple(map(kn.frozen, arrays)))


@dataclass(frozen=True)
class ClassifierParams(NamedArrays):
    arch: str
    in_shape: tuple[int, int, int]
    num_classes: int


@dataclass(frozen=True)
class AutoEncoderParams(NamedArrays):
    in_channels: int
    widths: tuple[int, int]

    @cached_property
    def phase_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """The decoder layers' [4*O, 4*C] sub-pixel kernels, computed once:
        every attack step of a run uses the same parameters."""
        return tuple(kn.phase_kernels(self.array(f"{name}_w")) for name in ("dec1", "dec2"))


def init_classifier(arch: str,
                    in_shape: tuple[int, int, int] = (3, 32, 32),
                    num_classes: int = 10,
                    seed: int = 0,
                    hidden: int = 64,
                    channels: tuple[int, int, int] = (8, 16, 32)) -> ClassifierParams:
    """Build a classifier with freshly drawn parameters.

    Same (arch, shapes, seed) always yields bit-identical values: a single
    generator is consumed in canonical parameter order.  ``hidden`` is
    mlp2's width.
    """
    if arch not in CLASSIFIER_ARCHS:
        raise ArgumentError(f"unknown architecture '{arch}', expected one of {CLASSIFIER_ARCHS}")
    c, h, w = (int(v) for v in in_shape)
    if c < 1 or h < 1 or w < 1 or num_classes < 2:
        raise ArgumentError(f"bad model geometry: in_shape={in_shape}, classes={num_classes}")
    rng = np.random.default_rng(seed)
    d = c * h * w
    items: list[tuple[str, np.ndarray]] = []

    def fc(name, n_out, n_in):
        items.append((f"{name}_w", _draw(rng, n_in, (n_out, n_in))))
        items.append((f"{name}_b", np.zeros(n_out)))

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
            items.append((f"conv{i}_w", _draw(rng, fan, (c_out, c_in, 3, 3))))
            items.append((f"conv{i}_b", np.zeros(c_out)))
            hh, ww = kn.conv_out_hw(hh, ww, 3, 2, 1)
            if hh < 1 or ww < 1:
                raise DimensionError(f"input {in_shape} too small for convnet stage {i}")
            c_in = c_out
        fc("fc", num_classes, c_in * hh * ww)

    names, arrays = zip(*items)
    return ClassifierParams(names=names, arrays=tuple(map(kn.frozen, arrays)), arch=arch,
                            in_shape=(c, h, w), num_classes=num_classes)


def _check_images(images: np.ndarray, in_shape) -> None:
    if not isinstance(images, np.ndarray):
        raise ArgumentError("images must be an array")
    if images.ndim != 4:
        raise DimensionError(f"images must be NCHW, got rank {images.ndim}")
    if tuple(images.shape[1:]) != tuple(in_shape):
        raise DimensionError(f"images {images.shape} do not match model input {in_shape}")
    if images.shape[0] < 1:
        raise DimensionError("empty batch")


def _affine_layers(params: ClassifierParams) -> list[tuple[np.ndarray, np.ndarray]]:
    # every classifier is a chain of affine layers in canonical parameter
    # order, [w, b] per layer: a 4-d w is a conv k3 s2 p1, a 2-d one an fc
    # on the flattened input; a relu follows each layer but the last
    a = params.arrays
    return list(zip(a[0::2], a[1::2]))


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
        self.layers = _affine_layers(params)
        self.shapes, self.ins, self.masks = [], [], []
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            self.shapes.append(x.shape)
            if w.ndim == 4:
                self.ins.append(kn.im2col(x, 3, 2, 1))
            else:
                self.ins.append(x.reshape(n, -1))
            x = self._affine(i, w, b)
            if i < last:
                self.masks.append(x > 0)
                x = np.maximum(x, 0.0)
        onehot = kn.onehot(labels, n, x.shape[1])
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
            cols = self.ins[i] if x is None else kn.im2col(x, 3, 2, 1)
            return kn.conv2d(cols, w, (shape[0],) + shape[2:], 2, 1, b)
        rows = self.ins[i] if x is None else x.reshape(shape[0], -1)
        out = rows @ w.T
        if b is not None:
            out += b
        return out

    def _input_adjoint(self, i: int, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        # transpose of layer i's map with weights w, onto its input's shape
        shape = self.shapes[i]
        if w.ndim == 4:
            return kn.conv2d_dx(g, w, shape[2:], 2, 1)
        return (g @ w).reshape(shape)

    def _param_adjoint(self, i: int, g: np.ndarray) -> list[np.ndarray]:
        w = self.layers[i][0]
        if w.ndim == 4:
            return [kn.conv2d_dw(self.ins[i], g, w.shape[1], 3), g.sum(axis=(0, 2, 3))]
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
                     seed: int = 0,
                     widths: tuple[int, int] = (16, 32)) -> AutoEncoderParams:
    """Build the reconstruction autoencoder with fresh parameters."""
    if in_channels < 1:
        raise ArgumentError(f"in_channels must be positive, got {in_channels}")
    w1, w2 = (int(v) for v in widths)
    if w1 < 1 or w2 < 1:
        raise ArgumentError(f"widths must be positive, got {widths}")
    rng = np.random.default_rng(seed)
    items: list[tuple[str, np.ndarray]] = []

    def conv(name, c_out, c_in):
        items.append((f"{name}_w", _draw(rng, c_in * 9, (c_out, c_in, 3, 3))))
        items.append((f"{name}_b", np.zeros(c_out)))

    conv("enc1", w1, in_channels)
    conv("enc2", w2, w1)
    conv("dec1", w1, w2)
    conv("dec2", in_channels, w1)
    names, arrays = zip(*items)
    return AutoEncoderParams(names=names, arrays=tuple(map(kn.frozen, arrays)),
                             in_channels=in_channels, widths=(w1, w2))


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
    ``kernels.upsample2_conv2d`` on the parameters' cached phase kernels.  ``input_vjp(g)`` maps a cotangent of ``out`` to x (the
    attack's adjoint); ``param_grads(g)`` maps it to every parameter by one
    sweep from the decoder down (prior training's).  The relu masks are
    constants there, as in the engine.
    """

    def __init__(self, params: AutoEncoderParams, x: np.ndarray):
        _check_autoencoder_input(params, x)
        self.x = x
        w1, b1, w2, b2, _, b3, _, b4 = params.arrays
        self.kernels = (w1, w2) + params.phase_kernels
        self.a1, self.m1 = _relu(self._encode(x, w1, b1))
        self.a2, self.m2 = _relu(self._encode(self.a1, w2, b2))
        self.a3, self.m3 = _relu(kn.upsample2_conv2d(self.a2, self.kernels[2], b3))
        z = kn.upsample2_conv2d(self.a3, self.kernels[3], b4)
        # sigmoid, exp(-|z|) on either branch so neither overflows
        e = np.exp(-np.abs(z))
        self.out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    @staticmethod
    def _encode(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        # conv k3 s2 p1; the patch matrix lives only for this call
        n, _, h, wd = x.shape
        return kn.conv2d(kn.im2col(x, 3, 2, 1), w, (n, h, wd), 2, 1, b)

    def input_vjp(self, g: np.ndarray) -> np.ndarray:
        """Cotangent of x for a cotangent ``g`` of the reconstruction."""
        w1, w2, k3, k4 = self.kernels
        g = g * (self.out * (1.0 - self.out))
        g = kn.upsample2_conv2d_dx(g, k4) * self.m3
        g = kn.upsample2_conv2d_dx(g, k3) * self.m2
        g = kn.conv2d_dx(g, w2, self.a1.shape[2:], 2, 1) * self.m1
        return kn.conv2d_dx(g, w1, self.x.shape[2:], 2, 1)

    def param_grads(self, g: np.ndarray) -> list[np.ndarray]:
        """Cotangents of the parameters, in canonical order, for a cotangent
        ``g`` of the reconstruction."""
        w1, w2, k3, k4 = self.kernels
        g = g * (self.out * (1.0 - self.out))
        dec2 = [kn.upsample2_conv2d_dw(self.a3, g), g.sum(axis=(0, 2, 3))]
        g = kn.upsample2_conv2d_dx(g, k4) * self.m3
        dec1 = [kn.upsample2_conv2d_dw(self.a2, g), g.sum(axis=(0, 2, 3))]
        g = kn.upsample2_conv2d_dx(g, k3) * self.m2
        enc2 = [kn.conv2d_dw(kn.im2col(self.a1, 3, 2, 1), g, w2.shape[1], 3),
                g.sum(axis=(0, 2, 3))]
        g = kn.conv2d_dx(g, w2, self.a1.shape[2:], 2, 1) * self.m1
        enc1 = [kn.conv2d_dw(kn.im2col(self.x, 3, 2, 1), g, w1.shape[1], 3),
                g.sum(axis=(0, 2, 3))]
        return enc1 + enc2 + dec1 + dec2


def forward_autoencoder(params: AutoEncoderParams, images: np.ndarray) -> np.ndarray:
    """Reconstruction of the batch, same shape as input, values in (0, 1)."""
    return AutoEncoderPass(params, images).out
