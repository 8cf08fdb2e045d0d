"""Objective terms for gradient inversion.

The recovery objective is

    total(x) = D(g'(x), g) + lambda_as * R_as(x) + lambda_tv * R_tv(x)

where g'(x) is the gradient the classifier would share if x were its batch,
D is cosine distance or squared error over the whole gradient vector,
R_as is the autoencoder reconstruction error (anomaly score) and R_tv the
squared total variation.  Everything here returns graph tensors.

The matching term D(g'(x), g) is one fused node whose only parent is x
(``matching_loss``): g'(x) comes from a numpy forward and backward pass of
the classifier (``nn.ClassifierGradient``), and its vjp is
grad_x <g'(x), v> with v = dD/dg' in closed form, one hand-written reverse
sweep through that backward pass.  The vjp runs only when the objective is
differentiated, and only to first order.  The two priors are ordinary graph
terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import ArgumentError, ConfigurationError, DimensionError
from .nn import AutoEncoderParams, ClassifierGradient, ClassifierParams, forward_autoencoder
from .tensor import GradientVector, Tensor

MATCHING_KINDS = ("cosine", "mse")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the two image priors in the total objective."""

    lambda_as: float = 1e-4
    lambda_tv: float = 1e-2

    def __post_init__(self):
        if self.lambda_as < 0 or self.lambda_tv < 0:
            raise ConfigurationError(f"loss weights must be >= 0, got {self}")


def _check_pair(names, tensors, target: GradientVector) -> None:
    # the prediction's segment names and tensors against the target's
    if not tensors or not target.tensors:
        raise ArgumentError("gradient vectors must be non-empty")
    if names != target.names:
        raise ArgumentError(f"gradient segments differ: {names} vs {target.names}")
    for n, p, t in zip(names, tensors, target.tensors):
        if p.shape != t.shape:
            raise DimensionError(f"segment '{n}': shapes {p.shape} vs {t.shape}")


def gradient_matching(pred: GradientVector, target: GradientVector,
                      kind: str = "cosine") -> Tensor:
    """Distance between two gradient vectors, as a scalar graph tensor.

    'cosine' is 1 - <g', g> / (|g'| |g|) over the concatenation of all
    segments; 'mse' is the plain sum of squared differences.  Each inner
    product is one ``dot`` node over all segments, reduced per segment and
    accumulated in segment order, which is algebraically identical to
    flattening first.  The target's squared norm is a constant, computed once
    per target vector (``GradientVector.sq_norm``).

    A zero-norm prediction would make the cosine undefined; the guard
    returns the neutral distance 1 as a detached constant (zero gradient),
    so a degenerate iterate stalls instead of going NaN.  A zero-norm
    target is a caller bug and raises.
    """
    _check_pair(pred.names, pred.tensors, target)
    if kind == "mse":
        d = tuple(tt.sub(p, t) for p, t in zip(pred.tensors, target.tensors))
        return tt.dot(d, d)
    if kind == "cosine":
        n_tgt = target.sq_norm
        if n_tgt == 0.0:
            raise ArgumentError("cosine matching against a zero-norm target")
        dot = tt.dot(pred.tensors, target.tensors)
        n_pred = tt.dot(pred.tensors, pred.tensors)
        if float(n_pred.data) == 0.0:
            return tt.constant(1.0)
        return tt.sub(1.0, tt.div(dot, tt.sqrt(tt.mul(n_pred, n_tgt))))
    raise ArgumentError(f"unknown matching kind '{kind}', expected one of {MATCHING_KINDS}")


def tv_loss(x: Tensor) -> Tensor:
    """Squared total variation: sum of squared neighbor differences.

    Only valid neighbor pairs count (no wrap-around), both axes:
    sum_ij |x[i, j+1] - x[i, j]|^2 + |x[i+1, j] - x[i, j]|^2.
    """
    if not isinstance(x, Tensor):
        x = tt.constant(x)
    if x.ndim != 4:
        raise DimensionError(f"tv_loss expects NCHW, got rank {x.ndim}")
    n, c, h, w = x.shape
    dx = tt.sub(tt.slice_hw(x, 0, h, 1, w), tt.slice_hw(x, 0, h, 0, w - 1))
    dy = tt.sub(tt.slice_hw(x, 1, h, 0, w), tt.slice_hw(x, 0, h - 1, 0, w))
    return tt.add(tt.dot(dx, dx), tt.dot(dy, dy))


def as_loss(x: Tensor, theta_a: AutoEncoderParams) -> Tensor:
    """Anomaly score of the batch: reconstruction error under the prior.

    The residual is reduced per image first and the per-image scores are
    then summed, so the batch loss is exactly the sum of anomaly scores.
    """
    recon = forward_autoencoder(theta_a, x)
    r = tt.sub(recon, x)
    n = x.shape[0]
    per_image = tt.sum_to(tt.mul(r, r), (n, 1, 1, 1))
    return per_image.sum()


def classifier_gradient(theta_g: ClassifierParams, x: Tensor, labels) -> GradientVector:
    """Gradient of the batch-mean cross-entropy wrt every model parameter,
    as constants (``nn.ClassifierGradient``)."""
    pred = ClassifierGradient(theta_g, x, labels)
    return GradientVector(theta_g.names, tuple(tt.constant(a) for a in pred.arrays))


def matching_loss(x: Tensor, theta_g: ClassifierParams, labels,
                  target: GradientVector, kind: str = "cosine") -> Tensor:
    """D(g'(x), g) as one node with parent x: the value
    ``gradient_matching(classifier_gradient(theta_g, x, labels), target, kind)``
    has, computed in the same operations and order.

    Its vjp forms v = dD/dg' in closed form (mse: 2 (g' - g); cosine:
    (<g', g>/|g'|^2 g' - g) / (|g'| |g|)) and returns grad_x <g'(x), v>.
    The guards are gradient_matching's: a zero-norm prediction gives the
    detached constant 1, a zero-norm target raises.
    """
    if kind not in MATCHING_KINDS:
        raise ArgumentError(f"unknown matching kind '{kind}', expected one of {MATCHING_KINDS}")
    _check_pair(theta_g.names, theta_g.tensors, target)
    tgt = [t.data for t in target.tensors]
    if kind == "cosine":
        n_tgt = target.sq_norm
        if n_tgt == 0.0:
            raise ArgumentError("cosine matching against a zero-norm target")
    pred = ClassifierGradient(theta_g, x, labels)
    if kind == "mse":
        d = [p - t for p, t in zip(pred.arrays, tgt)]
        return tt.first_order("matching", tt._dot_data(d, d), (x,),
                              (lambda g: g * pred.input_vjp([2.0 * e for e in d]),))
    dot = tt._dot_data(pred.arrays, tgt)
    n_pred = tt._dot_data(pred.arrays, pred.arrays)
    if n_pred == 0.0:
        return tt.constant(1.0)
    norm = np.sqrt(n_pred * n_tgt)

    def vjp(g):
        c = dot / n_pred
        return g * pred.input_vjp([(c * p - t) / norm for p, t in zip(pred.arrays, tgt)])

    return tt.first_order("matching", 1.0 - dot / norm, (x,), (vjp,))


def total_objective(x: Tensor,
                    theta_g: ClassifierParams,
                    labels,
                    target: GradientVector,
                    weights: LossWeights,
                    theta_a: AutoEncoderParams | None = None,
                    matching: str = "cosine") -> tuple[Tensor, dict[str, float]]:
    """Full recovery objective and its per-term breakdown.

    A zero weight skips its term entirely (no graph nodes), so a gipip run
    with lambda_as=0 follows bit-for-bit the same trajectory as ig.  The
    breakdown dict holds raw (unweighted) term values plus the total; terms
    recombine to the total exactly when accumulated in grad, as, tv order.
    """
    total = matching_loss(x, theta_g, labels, target, kind=matching)
    parts = {"grad": float(total.data), "as": 0.0, "tv": 0.0}
    if weights.lambda_as > 0:
        if theta_a is None:
            raise ArgumentError("lambda_as > 0 needs autoencoder parameters")
        a = as_loss(x, theta_a)
        parts["as"] = float(a.data)
        total = tt.add(total, tt.mul(a, weights.lambda_as))
    if weights.lambda_tv > 0:
        t = tv_loss(x)
        parts["tv"] = float(t.data)
        total = tt.add(total, tt.mul(t, weights.lambda_tv))
    parts["total"] = float(total.data)
    return total, parts
