"""The inversion loop: optimizers, restarts, config rules, closed-form leak."""

import numpy as np
import pytest

from gipip import attack, flsim, losses, nn
from gipip.errors import (ArgumentError, ConfigurationError, ContractError,
                          NumericError, OracleInapplicableError)
from gipip.losses import GradientVector


# ---------------------------------------------------------------- adam

def test_adam_zero_gradient_leaves_arrays_unchanged():
    a = np.array([1.0, -2.0, 3.0])
    state = attack.adam_init([a])
    (out,), _ = attack.adam_step(state, [a], [np.zeros(3)], lr=0.1)
    assert np.array_equal(out, a)


def test_adam_first_step_is_signed_learning_rate():
    a = np.zeros(4)
    g = np.array([3.0, -0.5, 10.0, -2e-3])
    (out,), state = attack.adam_step(attack.adam_init([a]), [a], [g], lr=0.1)
    assert state.step == 1
    # m_hat = g and sqrt(v_hat) = |g| at t=1, so the move is lr*sign(g)
    # up to the epsilon in the denominator
    assert np.allclose(out, -0.1 * np.sign(g), rtol=1e-5)


def test_adam_validation():
    a = np.zeros(2)
    state = attack.adam_init([a])
    with pytest.raises(ArgumentError):
        attack.adam_step(state, [a], [np.zeros(2)], lr=0.0)
    with pytest.raises(ArgumentError):
        attack.adam_step(state, [a, a], [np.zeros(2)], lr=0.1)
    with pytest.raises(NumericError):
        attack.adam_step(state, [a], [np.array([np.nan, 0.0])], lr=0.1)


def test_adam_descends_on_quadratic():
    x = np.array([4.0, -3.0])
    state = attack.adam_init([x])
    for _ in range(300):
        (x,), state = attack.adam_step(state, [x], [2.0 * x], lr=0.05)
    assert np.max(np.abs(x)) < 1e-2


# ---------------------------------------------------------------- lbfgs

def _quadratic(scales):
    scales = np.asarray(scales)

    def closure(x):
        return 0.5 * float(x @ (scales * x)), lambda: scales * x

    return closure


def test_lbfgs_first_direction_is_steepest_descent():
    # with no history the two-loop recursion returns the gradient, so the
    # first move on 0.5|x|^2 lands exactly at the origin (full Armijo step)
    closure = _quadratic(np.ones(3))
    x = np.array([1.0, -2.0, 0.5])
    f, grad = closure(x)
    x2, f2, grad2, state, stalled = attack.lbfgs_step(attack.LbfgsState(), x, f, grad(),
                                                      closure)
    assert not stalled
    assert np.array_equal(x2, np.zeros(3))
    assert f2 == 0.0
    assert np.array_equal(grad2(), np.zeros(3))


def test_lbfgs_converges_on_anisotropic_quadratic():
    closure = _quadratic(np.array([100.0, 25.0, 4.0, 1.0, 0.04]))
    x = np.array([1.0, -1.5, 2.0, -2.5, 3.0])
    f, grad = closure(x)
    g = grad()
    state = attack.LbfgsState()
    for _ in range(50):
        x, f, grad, state, stalled = attack.lbfgs_step(state, x, f, g, closure)
        g = grad()
        if np.linalg.norm(g) <= 1e-8:
            break
    assert np.linalg.norm(g) <= 1e-8
    assert len(state.s_list) <= attack.LBFGS_MEMORY


def test_lbfgs_never_accepts_an_increase():
    rng = np.random.default_rng(0)
    scales = rng.uniform(0.5, 50.0, 8)
    closure = _quadratic(scales)
    x = rng.standard_normal(8)
    f, grad = closure(x)
    state = attack.LbfgsState()
    for _ in range(30):
        x, f2, grad, state, stalled = attack.lbfgs_step(state, x, f, grad(), closure)
        assert f2 <= f
        f = f2


def test_lbfgs_stalls_when_no_descent_exists():
    x0 = np.array([0.0])

    def closure(x):
        # a cliff: every point except the start is worse, gradient lies
        return (1.0 if x[0] == 0.0 else 2.0), lambda: np.array([1.0])

    f, grad = closure(x0)
    g = grad()
    x2, f2, grad2, _, stalled = attack.lbfgs_step(attack.LbfgsState(), x0, f, g, closure)
    assert stalled
    assert np.array_equal(x2, x0) and f2 == f
    assert np.array_equal(grad2(), g)  # a stall hands back the gradient it was given


def test_lbfgs_stationary_point_stalls():
    closure = _quadratic(np.ones(2))
    x = np.zeros(2)
    f, grad = closure(x)
    _, _, _, _, stalled = attack.lbfgs_step(attack.LbfgsState(), x, f, grad(), closure)
    assert stalled


def test_lbfgs_input_validation():
    closure = _quadratic(np.ones(2))
    with pytest.raises(NumericError):
        attack.lbfgs_step(attack.LbfgsState(), np.zeros(2), np.nan, np.ones(2), closure)


# ---------------------------------------------------------------- dummy init

def test_init_dummy_deterministic():
    a = attack.init_dummy((2, 3, 4, 4), seed=5)
    b = attack.init_dummy((2, 3, 4, 4), seed=5)
    assert a.tobytes() == b.tobytes()
    assert a.shape == (2, 3, 4, 4)
    assert attack.init_dummy((2, 3, 4, 4), seed=6).tobytes() != a.tobytes()


def test_init_dummy_is_standard_normal():
    x = attack.init_dummy((1, 1, 1000, 1000), seed=7)
    assert abs(float(x.mean())) <= 0.01
    assert abs(float(x.std()) - 1.0) <= 0.01


def test_init_dummy_validation():
    with pytest.raises(ArgumentError):
        attack.init_dummy((3, 4, 4), seed=0)
    with pytest.raises(ArgumentError):
        attack.init_dummy((0, 3, 4, 4), seed=0)


def test_restart_seeds_are_stable_and_distinct():
    seeds = [attack.restart_seed(42, r) for r in range(8)]
    assert seeds == [attack.restart_seed(42, r) for r in range(8)]
    assert len(set(seeds)) == 8


# ---------------------------------------------------------------- config

def test_attack_config_validation():
    with pytest.raises(ConfigurationError):
        attack.AttackConfig(method="gan")
    with pytest.raises(ConfigurationError):
        attack.AttackConfig(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        attack.AttackConfig(iterations=-1)
    with pytest.raises(ConfigurationError):
        attack.AttackConfig(restarts=0)
    with pytest.raises(ConfigurationError):
        attack.AttackConfig(record_every=0)
    with pytest.raises(ConfigurationError):
        attack.AttackConfig(lambda_as=-1e-4)
    with pytest.raises(ConfigurationError):
        attack.AttackConfig(lambda_tv=-1.0)
    with pytest.raises(ConfigurationError, match="ig"):
        attack.AttackConfig(method="ig", lambda_as=1e-4)
    with pytest.raises(ConfigurationError, match="dlg"):
        attack.AttackConfig(method="dlg", lambda_as=0.0, lambda_tv=1e-2)
    assert attack.AttackConfig(method="dlg", lambda_as=0, lambda_tv=0).matching == "mse"
    assert attack.AttackConfig(method="gipip").matching == "cosine"


# ---------------------------------------------------------------- run_attack

def _scene(arch="dense1", shape=(2, 4, 4), seed=0, n=1):
    theta = nn.init_classifier(arch, in_shape=shape, num_classes=3, seed=seed,
                               channels=(2, 2, 2), hidden=4)
    rng = np.random.default_rng(seed + 100)
    truth = rng.random((n,) + shape)
    labels = rng.integers(0, 3, n)
    batch = flsim.ClientBatch(images=truth, labels=labels)
    shared = flsim.client_compute_gradient(theta, batch)
    return theta, truth, shared


def test_run_attack_zero_iterations_returns_dummy_init():
    theta, _, shared = _scene()
    cfg = attack.AttackConfig(method="ig", lambda_as=0.0, iterations=0,
                              record_every=10, seed=3)
    res = attack.run_attack(shared, theta, cfg)
    want = attack.init_dummy((1, 2, 4, 4), attack.restart_seed(3, 0))
    assert res.recovered.tobytes() == want.tobytes()
    assert len(res.trace) == 1 and res.trace[0][0] == 0


def test_run_attack_is_deterministic():
    theta, _, shared = _scene(seed=1)
    cfg = attack.AttackConfig(method="ig", lambda_as=0.0, iterations=20,
                              record_every=5, seed=9)
    a = attack.run_attack(shared, theta, cfg)
    b = attack.run_attack(shared, theta, cfg)
    assert a.recovered.tobytes() == b.recovered.tobytes()
    assert a.trace == b.trace


def test_gipip_with_zero_as_weight_matches_ig_exactly():
    theta, _, shared = _scene(seed=2)
    ae = nn.init_autoencoder(in_channels=2, seed=4, widths=(2, 2))
    ig = attack.run_attack(shared, theta, attack.AttackConfig(
        method="ig", lambda_as=0.0, iterations=25, record_every=5, seed=11))
    gp = attack.run_attack(shared, theta, attack.AttackConfig(
        method="gipip", lambda_as=0.0, iterations=25, record_every=5, seed=11),
        theta_a=ae)
    assert gp.recovered.tobytes() == ig.recovered.tobytes()
    assert gp.trace == ig.trace


def test_run_attack_decreases_matching_loss():
    theta, _, shared = _scene(seed=5)
    cfg = attack.AttackConfig(method="ig", lambda_as=0.0, lambda_tv=1e-3,
                              iterations=120, record_every=120, seed=2)
    res = attack.run_attack(shared, theta, cfg)
    assert res.final_grad_loss < res.trace[0][1] * 0.5
    assert res.steps == cfg.iterations
    assert 0.0 <= res.recovered.min() and res.recovered.max() <= 1.0  # clamped


def test_run_attack_trace_schedule():
    theta, _, shared = _scene(seed=6)
    cfg = attack.AttackConfig(method="ig", lambda_as=0.0, iterations=10,
                              record_every=4, seed=1)
    res = attack.run_attack(shared, theta, cfg)
    assert [r[0] for r in res.trace] == [0, 4, 8]  # 10 not divisible by 4
    cfg2 = attack.AttackConfig(method="ig", lambda_as=0.0, iterations=10,
                               record_every=5, seed=1)
    res2 = attack.run_attack(shared, theta, cfg2)
    assert [r[0] for r in res2.trace] == [0, 5, 10]


def test_run_attack_unclamped_when_disabled():
    theta, _, shared = _scene(seed=7)
    cfg = attack.AttackConfig(method="ig", lambda_as=0.0, iterations=0,
                              clamp=False, seed=5)
    res = attack.run_attack(shared, theta, cfg)
    assert res.recovered.min() < 0.0  # raw normal draw left alone


def test_run_attack_picks_best_restart():
    theta, _, shared = _scene(seed=8)
    cfg = attack.AttackConfig(method="ig", lambda_as=0.0, iterations=30,
                              restarts=3, record_every=30, seed=21)
    res = attack.run_attack(shared, theta, cfg)
    assert len(res.restart_grad_losses) == 3
    assert res.best_restart == int(np.argmin(res.restart_grad_losses))
    assert res.final_grad_loss == min(res.restart_grad_losses)


def test_run_attack_method_prior_pairing_rules():
    theta, _, shared = _scene(seed=9)
    ae = nn.init_autoencoder(in_channels=2, seed=1, widths=(2, 2))
    with pytest.raises(ConfigurationError, match="gipip"):
        attack.run_attack(shared, theta, attack.AttackConfig(method="gipip", iterations=1))
    with pytest.raises(ConfigurationError, match="theta_a"):
        attack.run_attack(shared, theta,
                          attack.AttackConfig(method="ig", lambda_as=0.0, iterations=1),
                          theta_a=ae)


def test_run_attack_rejects_zero_norm_target():
    theta, _, shared = _scene(seed=10)
    zeros = GradientVector(shared.gradient.names,
                           tuple(np.zeros_like(a) for a in shared.gradient.arrays))
    fake = flsim.SharedGradient(gradient=zeros, batch_size=1,
                                labels=shared.labels,
                                model_fingerprint=shared.model_fingerprint)
    with pytest.raises(NumericError, match="zero norm"):
        attack.run_attack(fake, theta, attack.AttackConfig(
            method="ig", lambda_as=0.0, iterations=1))


def test_run_attack_reports_the_steps_it_took():
    theta, _, shared = _scene(seed=11)
    # an exact dense1 match leaves no descent for the line search: dlg
    # stalls, and its step count says where
    dlg = attack.run_attack(shared, theta, attack.AttackConfig(
        method="dlg", lambda_as=0.0, lambda_tv=0.0, iterations=400,
        record_every=400, seed=0))
    assert dlg.stalled
    assert 0 < dlg.steps < 400
    ig = attack.run_attack(shared, theta, attack.AttackConfig(
        method="ig", lambda_as=0.0, iterations=7, seed=0))
    assert not ig.stalled and ig.steps == 7


def test_dlg_lbfgs_drives_mse_matching_down():
    theta, _, shared = _scene(seed=12)
    cfg = attack.AttackConfig(method="dlg", lambda_as=0.0, lambda_tv=0.0,
                              iterations=60, record_every=60, seed=4)
    res = attack.run_attack(shared, theta, cfg)
    assert res.final_grad_loss < res.trace[0][1] * 1e-3


def _eager_dlg(shared, theta, cfg):
    """dlg's loop with an eager closure: grad_x is swept at every trial and
    wrapped as ``lambda: g``.  Returns (recovered, trace, clipped steps)."""
    n = shared.batch_size
    c, h, w = theta.in_shape

    def closure(flat):
        parts, grad = losses.total_objective(flat.reshape(n, c, h, w), theta,
                                             shared.labels, shared.gradient, cfg)
        g = grad().ravel()
        return parts["total"], lambda: g

    x = attack.init_dummy((n, c, h, w), attack.restart_seed(cfg.seed, 0)).ravel()
    f, grad = closure(x)
    state, trace, clips = attack.LbfgsState(), [], 0
    for t in range(cfg.iterations):
        if t % cfg.record_every == 0:
            trace.append((t, f, 0.0, 0.0, f))
        x, f, grad, state, stalled = attack.lbfgs_step(state, x, f, grad(), closure)
        clipped = np.clip(x, 0.0, 1.0)
        if not np.array_equal(clipped, x):
            x, clips = clipped, clips + 1
            f, grad = closure(x)
        if stalled:
            break
    f, _ = closure(x)
    if cfg.iterations % cfg.record_every == 0:
        trace.append((cfg.iterations, f, 0.0, 0.0, f))
    return x.reshape(n, c, h, w), tuple(trace), clips


def test_dlg_sweeps_grad_x_only_at_kept_points(monkeypatch):
    theta, _, shared = _scene(arch="convnet", shape=(2, 8, 8), seed=1)
    cfg = attack.AttackConfig(method="dlg", lambda_as=0.0, lambda_tv=0.0,
                              iterations=40, record_every=5, seed=1)
    want, want_trace, clips = _eager_dlg(shared, theta, cfg)
    assert clips >= 5

    sweeps = []
    input_vjp = nn.ClassifierGradient.input_vjp

    def counted(self, v):
        sweeps.append(1)
        return input_vjp(self, v)

    monkeypatch.setattr(nn.ClassifierGradient, "input_vjp", counted)
    res = attack.run_attack(shared, theta, cfg)
    # one sweep per step, at the point it starts from; the line search's
    # trials and the clipped re-evaluations are values only
    assert len(sweeps) == res.gradients == res.steps
    assert res.gradients < res.evaluations
    assert res.recovered.tobytes() == want.tobytes()
    assert res.trace == want_trace


# ---------------------------------------------------------------- closed form

def test_closed_form_leak_is_exact():
    theta, truth, shared = _scene(arch="dense1", shape=(3, 8, 8), seed=13)
    leak = attack.closed_form_dense_leak(shared, theta)
    assert leak.shape == truth.shape
    assert np.max(np.abs(leak - truth)) <= 1e-9


def test_closed_form_rows_agree():
    theta, truth, shared = _scene(arch="dense1", shape=(2, 4, 4), seed=14)
    gw = shared.gradient.segment("fc_w")
    gb = shared.gradient.segment("fc_b")
    xs = [gw[i] / gb[i] for i in range(len(gb)) if abs(gb[i]) > 1e-8]
    assert len(xs) >= 2
    for x in xs[1:]:
        assert np.max(np.abs(x - xs[0])) <= 1e-9


def test_closed_form_applicability_rules():
    theta, _, shared = _scene(arch="convnet", shape=(2, 4, 4), seed=15)
    with pytest.raises(ArgumentError, match="dense1"):
        attack.closed_form_dense_leak(shared, theta)

    theta2, _, shared2 = _scene(arch="dense1", seed=16, n=2)
    with pytest.raises(ArgumentError, match="batch"):
        attack.closed_form_dense_leak(shared2, theta2)

    theta3, _, shared3 = _scene(arch="dense1", seed=17)
    other = nn.init_classifier("dense1", in_shape=(2, 4, 4), num_classes=3, seed=99)
    with pytest.raises(ContractError):
        attack.closed_form_dense_leak(shared3, other)


def test_closed_form_rejects_vanished_bias_gradient():
    theta, _, shared = _scene(arch="dense1", seed=18)
    zeros = GradientVector(shared.gradient.names,
                           tuple(np.zeros_like(a) for a in shared.gradient.arrays))
    fake = flsim.SharedGradient(gradient=zeros, batch_size=1,
                                labels=shared.labels,
                                model_fingerprint=shared.model_fingerprint)
    with pytest.raises(OracleInapplicableError, match="bias"):
        attack.closed_form_dense_leak(fake, theta)
