"""Gradient inversion: recover the client batch from its shared gradient.

Three methods share one loop:
  dlg     squared-error matching, L-BFGS, no priors
  ig      cosine matching + TV prior, Adam
  gipip   cosine matching + TV prior + anomaly-score prior, Adam

The dummy batch starts from a standard normal draw and is optimized until
the gradient it would produce matches the shared one.  Nothing in this
module can see the ground-truth pixels; it consumes SharedGradient only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgumentError, ConfigurationError, ContractError,
                     DimensionError, NumericError, OracleInapplicableError)
from .flsim import SharedGradient, model_fingerprint
from .losses import total_objective
from .nn import AutoEncoderParams, ClassifierParams

METHODS = ("dlg", "ig", "gipip")


# ---------------------------------------------------------------------------
# optimizers

@dataclass(frozen=True)
class AdamState:
    """Functional Adam state; adam_step returns a new one each call."""

    step: int
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]


def adam_init(arrays) -> AdamState:
    return AdamState(step=0,
                     m=tuple(np.zeros_like(a) for a in arrays),
                     v=tuple(np.zeros_like(a) for a in arrays))


def adam_step(state: AdamState, arrays, grads, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update over a list of arrays."""
    arrays, grads = list(arrays), list(grads)
    if len(arrays) != len(state.m) or len(grads) != len(arrays):
        raise ArgumentError("adam_step: arrays, grads and state disagree in length")
    if lr <= 0:
        raise ArgumentError(f"learning rate must be positive, got {lr}")
    t = state.step + 1
    new_arrays, new_m, new_v = [], [], []
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        g = np.asarray(g)
        if g.shape != a.shape:
            raise DimensionError(f"adam_step: gradient {g.shape} vs array {a.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient entering adam step {t}")
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        new_arrays.append(a - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_arrays, AdamState(step=t, m=tuple(new_m), v=tuple(new_v))


@dataclass
class LbfgsState:
    """Limited-memory quasi-Newton state (two-loop recursion, Armijo)."""

    memory: int = 10
    s_list: list = field(default_factory=list)
    y_list: list = field(default_factory=list)
    prev_x: np.ndarray | None = None
    prev_g: np.ndarray | None = None


def _two_loop(g: np.ndarray, s_list, y_list) -> np.ndarray:
    q = g.copy()
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_list, y_list)]
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rhos)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rhos), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _backtrack(x: np.ndarray, f: float, g: np.ndarray, d: np.ndarray,
               gd: float, closure, max_backtracks: int, c1: float):
    alpha = 1.0
    for _ in range(max_backtracks + 1):
        x_try = x + alpha * d
        f_try, g_try = closure(x_try)
        if np.isfinite(f_try) and f_try <= f + c1 * alpha * gd:
            return x_try, f_try, np.asarray(g_try, dtype=np.float64).ravel(), True
        alpha *= 0.5
    return x, f, g, False


def lbfgs_step(state: LbfgsState, x: np.ndarray, f: float, g: np.ndarray,
               closure, max_backtracks: int = 20, c1: float = 1e-4
               ) -> tuple[np.ndarray, float, np.ndarray, LbfgsState, bool]:
    """One L-BFGS step from (x, f, g) using closure(x) -> (f, g).

    Returns (x_new, f_new, g_new, state, stalled).  A curvature pair is
    recorded from the previous accepted point when it is usable.  The
    direction falls back to steepest descent if the two-loop result is not
    a descent direction, and again if Armijo backtracking fails along the
    two-loop direction (which happens at relu kinks, where the directional
    derivative is one-sided).  The step stalls (x unchanged) only when the
    line search fails after ``max_backtracks`` halvings along steepest
    descent too.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    g = np.asarray(g, dtype=np.float64).ravel()
    if x.shape != g.shape:
        raise DimensionError(f"lbfgs_step: x {x.shape} vs gradient {g.shape}")
    if not np.all(np.isfinite(g)) or not np.isfinite(f):
        raise NumericError("non-finite objective or gradient entering lbfgs step")

    if state.prev_x is not None:
        s = x - state.prev_x
        y = g - state.prev_g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            state.s_list.append(s)
            state.y_list.append(y)
            if len(state.s_list) > state.memory:
                state.s_list.pop(0)
                state.y_list.pop(0)
    state.prev_x, state.prev_g = x.copy(), g.copy()

    gg = -float(g @ g)
    if gg == 0.0:  # zero gradient: already stationary
        return x, f, g, state, True
    d = -_two_loop(g, state.s_list, state.y_list)
    gd = float(g @ d)
    steepest = gd >= 0.0
    if steepest:
        d, gd = -g, gg
    x2, f2, g2, ok = _backtrack(x, f, g, d, gd, closure, max_backtracks, c1)
    if not ok and not steepest:
        x2, f2, g2, ok = _backtrack(x, f, g, -g, gg, closure, max_backtracks, c1)
    return x2, f2, g2, state, not ok


# ---------------------------------------------------------------------------
# the attack

@dataclass(frozen=True)
class AttackConfig:
    """Everything a single inversion run depends on."""

    method: str = "gipip"
    learning_rate: float = 0.1
    iterations: int = 4000
    lambda_as: float = 1e-4
    lambda_tv: float = 1e-2
    restarts: int = 1
    clamp: bool = True
    record_every: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method '{self.method}', "
                                     f"expected one of {METHODS}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning rates must be positive, got {self.learning_rate}")
        if self.iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {self.iterations}")
        if self.restarts < 1:
            raise ConfigurationError(f"restarts must be >= 1, got {self.restarts}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")
        if self.lambda_as < 0 or self.lambda_tv < 0:
            raise ConfigurationError("lambda weights must be >= 0")
        if self.method == "ig" and self.lambda_as != 0:
            raise ConfigurationError("method 'ig' requires lambda_as = 0")
        if self.method == "dlg" and (self.lambda_as != 0 or self.lambda_tv != 0):
            raise ConfigurationError("method 'dlg' requires lambda_as = 0 and lambda_tv = 0")

    @property
    def matching(self) -> str:
        return "mse" if self.method == "dlg" else "cosine"


@dataclass(frozen=True)
class AttackResult:
    """Output of run_attack: the reconstruction plus its optimization story."""

    recovered: np.ndarray               # [N, C, H, W]
    method: str
    iterations: int
    trace: tuple[tuple[int, float, float, float, float], ...]
    # (iteration, grad_loss, as_loss, tv_loss, total) for the best restart
    final_grad_loss: float
    final_as_loss: float
    final_tv_loss: float
    final_total_loss: float
    best_restart: int
    restart_grad_losses: tuple[float, ...]
    stalled: bool
    steps: int                          # optimizer steps of the best restart
    wall_time_s: float


def init_dummy(shape, seed: int) -> np.ndarray:
    """Standard-normal dummy batch, the optimization starting point."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 4 or any(s < 1 for s in shape):
        raise ArgumentError(f"dummy shape must be NCHW, got {shape}")
    return np.random.default_rng(seed).standard_normal(shape)


def restart_seed(seed: int, restart: int) -> int:
    """Per-restart seed, stable under reordering of restarts."""
    ss = np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, int(restart)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _finite_or_raise(value: float, what: str, trace) -> None:
    if not np.isfinite(value):
        tail = ", ".join(f"it={r[0]} total={r[4]:.6g}" for r in trace[-3:]) or "no records"
        raise NumericError(f"{what} became non-finite; recent trace: {tail}")


def run_attack(shared: SharedGradient, theta_g: ClassifierParams,
               config: AttackConfig,
               theta_a: AutoEncoderParams | None = None) -> AttackResult:
    """Invert one shared gradient back to an image batch.

    Runs ``config.restarts`` independent seeded starts and keeps the one
    with the lowest final gradient-matching loss.  The trace records the
    objective breakdown at iteration 0 and every record_every-th iteration.
    Adam methods decay the learning rate by 10x at 3/8, 5/8 and 7/8 of the
    iteration budget; dlg's L-BFGS needs no schedule.
    """
    if config.method == "gipip":
        if theta_a is None:
            raise ConfigurationError("method 'gipip' needs trained autoencoder parameters")
    elif theta_a is not None:
        raise ConfigurationError(f"method '{config.method}' does not take a prior; "
                                 "theta_a must be None")
    fp = model_fingerprint(theta_g)
    if fp != shared.model_fingerprint:
        raise ContractError("shared gradient was computed against a different model "
                            f"(fingerprint {shared.model_fingerprint[:12]}... vs {fp[:12]}...)")
    if shared.gradient.names != theta_g.names:
        raise ContractError("gradient segments do not match the model's parameters")
    if shared.gradient.sq_norm == 0.0:
        raise NumericError("target gradient has zero norm; nothing to match")

    n = shared.batch_size
    c, h, w = theta_g.in_shape

    def objective(x_arr: np.ndarray):
        return total_objective(x_arr, theta_g, shared.labels, shared.gradient, config, theta_a)

    t_start = time.monotonic()
    best = None
    restart_finals = []
    for r in range(config.restarts):
        x = init_dummy((n, c, h, w), restart_seed(config.seed, r))
        trace: list[tuple[int, float, float, float, float]] = []
        stalled = False
        steps = config.iterations

        if config.method == "dlg":
            state = LbfgsState()

            def closure(flat):
                parts, grad = objective(flat.reshape(n, c, h, w))
                return parts["total"], grad().ravel()

            xf = x.ravel().copy()
            f, g = closure(xf)
            for t in range(config.iterations):
                if t % config.record_every == 0:
                    # f is the closure's value at xf; dlg has no prior terms
                    trace.append((t, f, 0.0, 0.0, f))
                    _finite_or_raise(f, "objective", trace)
                xf, f, g, state, step_stalled = lbfgs_step(state, xf, f, g, closure)
                if config.clamp:
                    clipped = np.clip(xf, 0.0, 1.0)
                    if not np.array_equal(clipped, xf):
                        xf = clipped
                        f, g = closure(xf)
                if step_stalled:
                    stalled, steps = True, t + 1
                    break
            x = xf.reshape(n, c, h, w)
        else:
            state = adam_init([x])
            # step decay: x0.1 at 3/8, 5/8 and 7/8 of the run, the usual
            # schedule for this attack family; the last eighth runs at
            # lr/1000 so the iterate settles instead of orbiting
            drops = {int(config.iterations * f) for f in (0.375, 0.625, 0.875)}
            lr = config.learning_rate
            for t in range(config.iterations):
                if t > 0 and t in drops:
                    lr *= 0.1
                parts, grad = objective(x)
                if t % config.record_every == 0:
                    trace.append((t, parts["grad"], parts["as"], parts["tv"], parts["total"]))
                _finite_or_raise(parts["total"], "objective", trace)
                (x,), state = adam_step(state, (x,), (grad(),), lr)
                if config.clamp:
                    x = np.clip(x, 0.0, 1.0)

        # final breakdown at the last iterate
        final_parts = objective(x)[0]
        _finite_or_raise(final_parts["total"], "final objective", trace)
        if config.iterations % config.record_every == 0:
            trace.append((config.iterations, final_parts["grad"], final_parts["as"],
                          final_parts["tv"], final_parts["total"]))
        restart_finals.append(final_parts["grad"])
        if best is None or final_parts["grad"] < best[0]:
            best = (final_parts["grad"], r, x, tuple(trace), final_parts, stalled, steps)

    grad_final, best_r, x_best, trace_best, parts_best, stalled_best, steps_best = best
    return AttackResult(recovered=x_best,
                        method=config.method,
                        iterations=config.iterations,
                        trace=trace_best,
                        final_grad_loss=float(parts_best["grad"]),
                        final_as_loss=float(parts_best["as"]),
                        final_tv_loss=float(parts_best["tv"]),
                        final_total_loss=float(parts_best["total"]),
                        best_restart=best_r,
                        restart_grad_losses=tuple(restart_finals),
                        stalled=stalled_best,
                        steps=steps_best,
                        wall_time_s=time.monotonic() - t_start)


def closed_form_dense_leak(shared: SharedGradient,
                           theta_g: ClassifierParams) -> np.ndarray:
    """Exact single-image recovery from a dense1 gradient.

    For logits W x + b the weight gradient of any loss is an outer product
    d_i * x, and the bias gradient is d_i, so each row with a non-negligible
    bias entry yields x = grad_W[i] / grad_b[i] exactly.
    """
    if theta_g.arch != "dense1":
        raise ArgumentError(f"closed form needs the dense1 model, got '{theta_g.arch}'")
    if shared.batch_size != 1:
        raise ArgumentError("closed form recovers single-image batches only, "
                            f"got batch_size {shared.batch_size}")
    if model_fingerprint(theta_g) != shared.model_fingerprint:
        raise ContractError("gradient does not belong to this model")
    gw = shared.gradient.segment("fc_w").data
    gb = shared.gradient.segment("fc_b").data
    i = int(np.argmax(np.abs(gb)))
    if abs(gb[i]) <= 1e-12:
        raise OracleInapplicableError("every bias gradient entry is below 1e-12; "
                                      "no usable row for the closed form")
    x = gw[i] / gb[i]
    c, h, w = theta_g.in_shape
    return x.reshape(1, c, h, w)
