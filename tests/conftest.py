"""Shared test helpers: finite-difference oracles and small cached models."""

import os
from dataclasses import replace

# one BLAS thread, unless the caller chose otherwise: the matrices here are
# small, and a second thread per process oversubscribes the cores when the
# tests start worker pools.  OpenBLAS reads these when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gipip import nn, prior  # noqa: E402
from gipip import tensor as tt  # noqa: E402
from gipip.data import synthetic_textures  # noqa: E402


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Relative error with a unit floor, the scale the gradient checks use."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / denom


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function over every element."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def grad_of(build, *arrays):
    """Autodiff gradients of build(*tensors) -> scalar, one per input array."""
    tensors = [tt.variable(a) for a in arrays]
    out = build(*tensors)
    return [g.data for g in tt.grad(out, tensors)]


def variables(params):
    """``params`` with every array an engine variable, to differentiate by."""
    return replace(params, items=tuple((n, tt.variable(a)) for n, a in params.items))


def check_grads(build, arrays, tol: float = 1e-6, h: float = 1e-5):
    """Assert autodiff matches finite differences for every input."""
    got = grad_of(build, *arrays)
    for k in range(len(arrays)):
        def scalar(x, k=k):
            ts = [tt.constant(a) for a in arrays]
            ts[k] = tt.constant(x)
            return build(*ts).item()

        want = fd_grad(scalar, np.array(arrays[k], dtype=np.float64), h=h)
        err = rel_err(got[k], want)
        assert err <= tol, f"input {k}: rel err {err:.3e} > {tol:g}"


@pytest.fixture(scope="session")
def tiny_corpus():
    """Small 32x32 texture dataset shared by the slower tests."""
    return synthetic_textures(60, seed=404)


@pytest.fixture(scope="session")
def tiny_prior(tiny_corpus):
    """A briefly trained autoencoder; enough structure for behavior tests."""
    aux = tiny_corpus.images[tiny_corpus.eval_split]
    params, trace = prior.train_autoencoder(
        aux, prior.PriorTrainConfig(epochs=8, batch_size=8, seed=31))
    return params, trace


@pytest.fixture(scope="session")
def small_convnet():
    return nn.init_classifier("convnet", in_shape=(3, 16, 16), num_classes=10,
                              seed=77, channels=(4, 8, 8), hidden=16)
