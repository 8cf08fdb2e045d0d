"""Objective terms for gradient inversion.

The recovery objective is

    total(x) = D(g'(x), g) + lambda_as * R_as(x) + lambda_tv * R_tv(x)

where g'(x) is the gradient the classifier would share if x were its batch,
D is cosine distance or squared error over the whole gradient vector,
R_as is the autoencoder reconstruction error (anomaly score) and R_tv the
squared total variation.

Each term is a numpy pair: its value, and a map from a cotangent of that
value to the parts of x's cotangent.  The matching term's comes from
``nn.ClassifierGradient``: grad_x <g'(x), v> with v = dD/dg' in closed form,
one hand-written reverse sweep through the classifier's backward pass.  The
anomaly score's is the residual's plus the input adjoint of an
``nn.AutoEncoderPass``, and TV's is closed form.  ``total_objective`` returns
the terms' values and a function that runs the maps for grad_x total, so
they run only when the gradient is asked for.  ``as_loss`` and ``tv_loss``
are the values alone.  ``gradient_matching`` is D on two gradient vectors,
built of graph nodes: with the engine's double backward it is the
reference the tests hold the matching term to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as tt
from .errors import ArgumentError, DimensionError
from .nn import AutoEncoderParams, AutoEncoderPass, ClassifierGradient, ClassifierParams
from .tensor import GradientVector, Tensor

if TYPE_CHECKING:
    from .attack import AttackConfig

MATCHING_KINDS = ("cosine", "mse")


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


def _fold(cots: list[np.ndarray]) -> np.ndarray:
    # x's cotangent parts added left to right, as the engine's sweep adds them;
    # every part is a fresh array, so the sum accumulates into the first
    acc = cots[0]
    for c in cots[1:]:
        acc += c
    return acc


def _tv_term(xd: np.ndarray):
    """R_tv(x) as (value, x_cots): x_cots(g) is x's cotangent for a cotangent
    g of the value, as one part.

    The engine's sweep over the slice/dot composition of TV adds four parts,
    each a difference term on a zero canvas: rows 0:h-1, rows 1:h, columns
    0:w-1, columns 1:w.  They are added here in that order, in place on one
    canvas; the row or column a part leaves out gets its +0.0, which turns a
    -0.0 there into +0.0, so the sum is the sweep's to the last bit."""
    dx = xd[:, :, :, 1:] - xd[:, :, :, :-1]
    dy = xd[:, :, 1:, :] - xd[:, :, :-1, :]

    def x_cots(g):
        gx, gy = g * dx, g * dy
        gx += gx
        gy += gy
        acc = np.zeros_like(xd)
        np.negative(gy, out=acc[:, :, :-1])
        acc[:, :, 1:] += gy
        acc[:, :, :1] += 0.0
        acc[:, :, :, :-1] -= gx
        acc[:, :, :, -1:] += 0.0
        acc[:, :, :, 1:] += gx
        acc[:, :, :, :1] += 0.0
        return [acc]

    return tt._dot_data([dx], [dx]) + tt._dot_data([dy], [dy]), x_cots


def tv_loss(x: np.ndarray) -> float:
    """Squared total variation: sum of squared neighbor differences.

    Only valid neighbor pairs count (no wrap-around), both axes:
    sum_ij |x[i, j+1] - x[i, j]|^2 + |x[i+1, j] - x[i, j]|^2.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise DimensionError(f"tv_loss expects NCHW, got rank {x.ndim}")
    return _tv_term(x)[0]


def _as_term(x: np.ndarray, theta_a: AutoEncoderParams):
    """R_as(x) as (value, x_cots): x_cots lists x's parts, the residual's and
    then the encoder's, in the order the engine's sweep adds them over the
    residual's composition."""
    ae = AutoEncoderPass(theta_a, x)
    r = ae.out - x

    def x_cots(g):
        gr = g * r
        gr = gr + gr
        return [-gr, ae.input_vjp(gr)]

    # per-image sums first, then their sum: exactly the sum of anomaly scores
    return float((r * r).sum(axis=(1, 2, 3), keepdims=True).sum()), x_cots


def as_loss(x: np.ndarray, theta_a: AutoEncoderParams) -> float:
    """Anomaly score of the batch: reconstruction error under the prior.

    The residual is reduced per image first and the per-image scores are
    then summed, so the batch loss is exactly the sum of anomaly scores.
    """
    return _as_term(x, theta_a)[0]


def classifier_gradient(theta_g: ClassifierParams, x: np.ndarray, labels) -> GradientVector:
    """Gradient of the batch-mean cross-entropy wrt every model parameter,
    as constants (``nn.ClassifierGradient``)."""
    pred = ClassifierGradient(theta_g, x, labels)
    return GradientVector(theta_g.names, tuple(tt.constant(a) for a in pred.arrays))


def _matching_term(x: np.ndarray, theta_g: ClassifierParams, labels,
                   target: GradientVector, kind: str):
    """D(g'(x), g) as (value, x_cots), the value ``gradient_matching`` has on
    ``classifier_gradient(theta_g, x, labels)``, computed in the same
    operations and order.  x_cots forms v = dD/dg' in closed form (mse:
    2 (g' - g); cosine: (<g', g>/|g'|^2 g' - g) / (|g'| |g|)) and returns
    grad_x <g'(x), v>.  The guards are gradient_matching's: a zero-norm
    target raises, and a zero-norm prediction under cosine gives the value
    1 with x_cots None, a constant."""
    _check_pair(theta_g.names, theta_g.tensors, target)
    tgt = [t.data for t in target.tensors]
    if kind == "cosine":
        n_tgt = target.sq_norm
        if n_tgt == 0.0:
            raise ArgumentError("cosine matching against a zero-norm target")
    pred = ClassifierGradient(theta_g, x, labels)
    if kind == "mse":
        d = [p - t for p, t in zip(pred.arrays, tgt)]
        return tt._dot_data(d, d), lambda g: [g * pred.input_vjp([2.0 * e for e in d])]
    dot = tt._dot_data(pred.arrays, tgt)
    n_pred = tt._dot_data(pred.arrays, pred.arrays)
    if n_pred == 0.0:
        return 1.0, None
    norm = np.sqrt(n_pred * n_tgt)

    def x_cots(g):
        c = dot / n_pred
        return [g * pred.input_vjp([(c * p - t) / norm for p, t in zip(pred.arrays, tgt)])]

    return float(1.0 - dot / norm), x_cots


def total_objective(x: np.ndarray,
                    theta_g: ClassifierParams,
                    labels,
                    target: GradientVector,
                    config: AttackConfig,
                    theta_a: AutoEncoderParams | None = None):
    """Full recovery objective at x: ``(parts, grad)``.

    The weights and the matching kind are the run's ``AttackConfig``'s.
    ``parts`` holds the raw (unweighted) term values "grad", "as" and "tv"
    and the total (grad + lambda_as * as) + lambda_tv * tv; the terms
    recombine to the total exactly when accumulated in that order.  A zero
    weight skips its term entirely, so a gipip run with lambda_as=0 follows
    bit-for-bit the same trajectory as ig.

    ``grad()`` returns grad_x total as a fresh array; the reverse sweeps run
    only when it is called.  It adds x's cotangent parts in the order the
    engine's sweep adds them over the same objective composed of graph
    nodes: TV's, the AS term's, then the matching term's.  The two agree to
    the last bit; the tests keep that composition as the reference.
    """
    value, x_cots = _matching_term(x, theta_g, labels, target, config.matching)
    parts = {"grad": value, "as": 0.0, "tv": 0.0}
    # (weight, x_cots) in the engine's sweep order: TV, AS, matching
    terms = [] if x_cots is None else [(1.0, x_cots)]
    if config.lambda_as > 0:
        if theta_a is None:
            raise ArgumentError("lambda_as > 0 needs autoencoder parameters")
        parts["as"], x_cots = _as_term(x, theta_a)
        value = value + parts["as"] * config.lambda_as
        terms.insert(0, (config.lambda_as, x_cots))
    if config.lambda_tv > 0:
        parts["tv"], x_cots = _tv_term(x)
        value = value + parts["tv"] * config.lambda_tv
        terms.insert(0, (config.lambda_tv, x_cots))
    parts["total"] = value

    def grad() -> np.ndarray:
        if not terms:
            return np.zeros_like(x)
        return _fold([c for w, cots in terms for c in cots(w)])

    return parts, grad
