"""Optimizer identities, schedule shape, loop behaviour, and the
learning-rate estimator against analytic optima and an independent
interpolation oracle."""

import itertools
import json

import numpy as np
import pytest
from scipy.interpolate import Akima1DInterpolator

from energyformer.cli import TASK_KEYS
from energyformer.data import GpKernelSpec, gp_sample
from energyformer.model import (
    BlockConfig,
    ModelConfig,
    build_model,
    load_checkpoint,
    named_parameters,
)
from energyformer.tensor import Tensor, global_norm
from energyformer.train import (
    AdamState,
    InterpolationError,
    OptimConfig,
    TrainingError,
    adamw_step,
    akima_interpolate,
    clip_gradients,
    estimate_lr_optimum,
    init_adam_state,
    lm_eval,
    lm_loss,
    lr_schedule,
    lr_sweep_points,
    regression_eval,
    regression_loss,
    train_loop,
    wants_decay,
    warmup_steps,
)

# ---------------------------------------------------------------------------
# schedule


def test_schedule_endpoints_and_warmup():
    cfg = OptimConfig(lr=0.002, total_steps=1000)
    w = warmup_steps(cfg)
    assert w == 50
    assert lr_schedule(0, cfg) == 0.0
    for k in range(1, w + 1):
        assert lr_schedule(k, cfg) == pytest.approx(0.002 * k / w, abs=0)
    assert lr_schedule(w, cfg) == pytest.approx(0.002, abs=1e-18)
    assert lr_schedule(1000, cfg) == pytest.approx(0.0002, abs=1e-18)
    assert lr_schedule(5000, cfg) == pytest.approx(0.0002, abs=1e-18)


def test_schedule_monotone_after_warmup():
    cfg = OptimConfig(lr=0.01, total_steps=400)
    w = warmup_steps(cfg)
    rates = [lr_schedule(t, cfg) for t in range(w, 401)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert min(rates) == rates[-1] == pytest.approx(0.001)


def test_schedule_rejects_bad_steps():
    cfg = OptimConfig(total_steps=10)
    with pytest.raises(TrainingError):
        lr_schedule(-1, cfg)
    with pytest.raises(TrainingError):
        lr_schedule(0, OptimConfig(total_steps=0))


def test_optim_config_validation():
    OptimConfig().validate()
    for kwargs in [
        {"lr": 0.0},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"eps": 0.0},
        {"weight_decay": -1.0},
        {"clip": 0.0},
        {"total_steps": -1},
        {"warmup_fraction": 0.0},
        {"warmup_fraction": 1.0},
        {"final_lr_factor": 0.0},
        {"final_lr_factor": 1.5},
        {"batch_size": 0},
    ]:
        with pytest.raises(TrainingError):
            OptimConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# optimizer


def _constant_lr_cfg(lr, steps=1000):
    # one-step warmup and a flat cosine: the rate is lr from step 1 on
    return OptimConfig(
        lr=lr, total_steps=steps, warmup_fraction=1e-9, final_lr_factor=1.0,
        weight_decay=0.0,
    )


def test_zero_grads_leave_params_unchanged():
    params = {"w": Tensor(np.ones((3, 3))), "b": Tensor(np.zeros(3))}
    state = init_adam_state(params)
    before = {k: v.data.copy() for k, v in params.items()}
    adamw_step(params, {"w": np.zeros((3, 3)), "b": np.zeros(3)}, state, _constant_lr_cfg(0.1))
    for k in params:
        np.testing.assert_array_equal(params[k].data, before[k])


def test_decay_shrinks_only_matrices():
    cfg = OptimConfig(
        lr=0.1, total_steps=10, warmup_fraction=1e-9, final_lr_factor=1.0,
        weight_decay=0.5,
    )
    params = {
        "blocks.0.mlp.w": Tensor(np.full((2, 2), 4.0)),
        "blocks.0.mlp.precond.u": Tensor(np.full((2, 2), 4.0)),
        "blocks.0.attn_norm.gain": Tensor(np.full(2, 4.0)),
        "blocks.0.attn.eta": Tensor(4.0),
    }
    state = init_adam_state(params)
    zeros = {k: np.zeros_like(v.data) for k, v in params.items()}
    adamw_step(params, zeros, state, cfg)
    np.testing.assert_allclose(params["blocks.0.mlp.w"].data, 4.0 * (1 - 0.1 * 0.5))
    np.testing.assert_array_equal(params["blocks.0.mlp.precond.u"].data, 4.0)
    np.testing.assert_array_equal(params["blocks.0.attn_norm.gain"].data, 4.0)
    np.testing.assert_array_equal(params["blocks.0.attn.eta"].data, 4.0)


def test_wants_decay_rules():
    assert wants_decay("embed", Tensor(np.zeros((4, 4))))
    assert wants_decay("blocks.0.attn.w_q", Tensor(np.zeros((2, 4, 4))))
    assert not wants_decay("blocks.0.attn.precond.u", Tensor(np.zeros((2, 4, 2))))
    assert not wants_decay("blocks.0.mlp_norm.gain", Tensor(np.zeros(4)))
    assert not wants_decay("head_b", Tensor(np.zeros(4)))
    assert not wants_decay("blocks.0.attn.alibi.b_self", Tensor(0.0))
    assert not wants_decay("blocks.0.mlp.eta", Tensor(1.0))
    # K/Q diagonals are (1 or K, D_h) rows, not projection matrices
    assert not wants_decay("blocks.0.attn.diag", Tensor(np.zeros((1, 4))))
    assert not wants_decay("blocks.0.attn.diag", Tensor(np.zeros((3, 4))))


def test_first_step_moves_by_lr_in_sign_direction():
    params = {"x": Tensor(np.array([2.0, -3.0])[None, :])}
    state = init_adam_state(params)
    g = np.array([[0.7, -0.2]])
    adamw_step(params, {"x": g}, state, _constant_lr_cfg(0.01))
    moved = params["x"].data - np.array([[2.0, -3.0]])
    np.testing.assert_allclose(moved, -0.01 * np.sign(g), rtol=1e-6)


def test_quadratic_bowl_converges():
    params = {"x": Tensor(np.array([[1.0]]))}
    state = init_adam_state(params)
    cfg = _constant_lr_cfg(0.1, steps=100)
    for _ in range(50):
        g = 2.0 * params["x"].data
        adamw_step(params, {"x": g}, state, cfg)
    assert abs(float(params["x"].data[0, 0])) < 0.1


def test_non_finite_gradient_aborts():
    params = {"x": Tensor(np.ones((2, 2)))}
    state = init_adam_state(params)
    with pytest.raises(TrainingError, match="non-finite"):
        adamw_step(params, {"x": np.full((2, 2), np.nan)}, state, _constant_lr_cfg(0.1))


def test_rejected_step_leaves_params_and_state_untouched():
    # the NaN sits in the last gradient, after every other update would run
    params = {name: Tensor(np.full((2, 2), float(i + 1))) for i, name in enumerate("abc")}
    state = init_adam_state(params)
    cfg = _constant_lr_cfg(0.1)
    adamw_step(params, {n: np.full((2, 2), 0.5) for n in params}, state, cfg)
    before = ({n: p.data.copy() for n, p in params.items()},
              {n: m.copy() for n, m in state.m.items()},
              {n: v.copy() for n, v in state.v.items()}, state.t)
    grads = {n: np.full((2, 2), 0.25) for n in params}
    grads["c"] = np.array([[0.25, 0.25], [0.25, np.nan]])
    with pytest.raises(TrainingError, match="non-finite"):
        adamw_step(params, grads, state, cfg)
    assert state.t == before[3]
    for name in params:
        assert params[name].data.tobytes() == before[0][name].tobytes()
        assert state.m[name].tobytes() == before[1][name].tobytes()
        assert state.v[name].tobytes() == before[2][name].tobytes()


def test_clipped_overflowing_gradient_still_steps():
    # finite gradients whose squares overflow clip to the threshold, not
    # to zero, so the step moves the parameter; non-finite ones still abort
    params = {"x": Tensor(np.zeros(2))}
    state = init_adam_state(params)
    grads = {"x": np.array([1e200, 1.0])}
    assert clip_gradients(grads, 1.0) == 1e200
    adamw_step(params, grads, state, _constant_lr_cfg(0.1))
    assert params["x"].data[0] == pytest.approx(-0.1)
    grads = {"x": np.array([np.inf, 1.0])}
    clip_gradients(grads, 1.0)
    with pytest.raises(TrainingError, match="non-finite"):
        adamw_step(params, grads, state, _constant_lr_cfg(0.1))


def test_gradient_key_set_must_match_params():
    params = {"x": Tensor(np.ones(2)), "y": Tensor(np.ones(2))}
    state = init_adam_state(params)
    for grads in ({"x": np.zeros(2)}, {"x": np.zeros(2), "y": np.zeros(2), "z": np.zeros(2)}):
        with pytest.raises(TrainingError):
            adamw_step(params, grads, state, _constant_lr_cfg(0.1))
    assert state.t == 0


def test_state_param_mismatch_rejected():
    params = {"x": Tensor(np.ones(2))}
    with pytest.raises(TrainingError):
        adamw_step(params, {"x": np.zeros(2)}, AdamState(), _constant_lr_cfg(0.1))


def test_clip_scales_to_threshold():
    grads = {"a": np.full(8, 2.0), "b": np.full(2, 2.0)}  # norm = sqrt(40)
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(np.sqrt(40.0))
    assert global_norm(grads) <= 1.0 + 1e-9
    small = {"a": np.array([0.1, 0.2])}
    kept = small["a"]
    clip_gradients(small, 1.0)
    assert small["a"] is kept  # under the threshold: untouched


# ---------------------------------------------------------------------------
# training loop


def _tiny_regression_setup(seed=0, steps=12):
    cfg = ModelConfig(
        kind="regressor",
        in_dim=10,
        out_dim=1,
        n_layers=2,
        block=BlockConfig(d_hidden=16, d_mlp=32, attention="none", mlp="cem", mlp_steps=1),
    )
    model = build_model(cfg, seed=seed)
    train, test = gp_sample(GpKernelSpec("rbf"), n_points=80, seed=seed)
    ocfg = OptimConfig(lr=3e-3, total_steps=steps, batch_size=len(train))
    stream = itertools.repeat(train)
    return model, train, test, ocfg, stream


def test_train_loop_runs_and_logs(tmp_path):
    model, train, test, ocfg, stream = _tiny_regression_setup()
    metrics = train_loop(
        model,
        stream,
        ocfg,
        loss_fn=regression_loss,
        eval_fn=lambda m: regression_eval(m, [train, test]),
        log_every=4,
        metrics_path=tmp_path / "metrics.jsonl",
        summary_csv_path=tmp_path / "summary.csv",
        checkpoint_path=tmp_path / "model.bin",
    )
    steps = [r["step"] for r in metrics.records]
    assert steps == sorted(steps)
    assert metrics.final_train_loss < metrics.initial_train_loss
    assert set(metrics.final_eval) == {"rmse_train", "rmse_test"}
    lines = (tmp_path / "metrics.jsonl").read_text().strip().split("\n")
    assert [json.loads(line) for line in lines] == metrics.records
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "step,split,metric,value"
    reloaded = load_checkpoint(tmp_path / "model.bin")
    for name, t in named_parameters(model).items():
        np.testing.assert_array_equal(t.data, named_parameters(reloaded)[name].data)


def test_train_loop_deterministic():
    runs = []
    for _ in range(2):
        model, train, test, ocfg, stream = _tiny_regression_setup(seed=3, steps=8)
        metrics = train_loop(model, stream, ocfg, loss_fn=regression_loss, log_every=1)
        runs.append([r["value"] for r in metrics.records])
    assert runs[0] == runs[1]


def test_zero_step_run_keeps_initial_params(tmp_path):
    model, train, test, ocfg, stream = _tiny_regression_setup(steps=0)
    before = {k: v.data.copy() for k, v in named_parameters(model).items()}
    metrics = train_loop(
        model, stream, ocfg, loss_fn=regression_loss,
        checkpoint_path=tmp_path / "model.bin",
    )
    assert metrics.records == []
    reloaded = load_checkpoint(tmp_path / "model.bin")
    for name, arr in before.items():
        np.testing.assert_array_equal(named_parameters(reloaded)[name].data, arr)


def test_nan_loss_aborts_with_checkpoint(tmp_path):
    model, train, test, ocfg, stream = _tiny_regression_setup(steps=20)
    calls = {"n": 0}

    def poisoned(m, batch):
        calls["n"] += 1
        if calls["n"] == 4:
            return Tensor(np.float64("nan"))
        return regression_loss(m, batch)

    with pytest.raises(TrainingError, match="non-finite loss"):
        train_loop(
            model, stream, ocfg, loss_fn=poisoned,
            checkpoint_path=tmp_path / "model.bin",
        )
    # dump happened before the failing update, so it matches the live params
    reloaded = load_checkpoint(tmp_path / "model.bin")
    for name, t in named_parameters(model).items():
        np.testing.assert_array_equal(t.data, named_parameters(reloaded)[name].data)


def test_small_lm_run_reduces_loss():
    cfg = ModelConfig(
        kind="lm",
        vocab_size=256,
        n_layers=1,
        block=BlockConfig(d_hidden=16, n_heads=2, d_mlp=32),
    )
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    # synthetic byte windows with strong bigram structure
    base = np.tile(np.array([104, 101, 108, 108, 111, 32], dtype=np.int64), 60)
    windows = np.stack([np.roll(base, rng.integers(0, 6))[:33] for _ in range(64)])
    stream = itertools.cycle([windows[i : i + 8] for i in range(0, 64, 8)])
    ocfg = OptimConfig(lr=3e-3, total_steps=30, batch_size=8)
    metrics = train_loop(model, stream, ocfg, loss_fn=lm_loss, log_every=10)
    assert metrics.final_train_loss < metrics.initial_train_loss
    evals = lm_eval(model, windows, batch_size=16)
    assert evals["perplexity"] == pytest.approx(np.exp(evals["loss"]), rel=1e-12)


# ---------------------------------------------------------------------------
# interpolation


def test_interpolant_passes_through_knots():
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = np.sort(rng.uniform(0, 10, size=rng.integers(5, 12)))
        while np.any(np.diff(xs) < 1e-6):
            xs = np.sort(rng.uniform(0, 10, size=len(xs)))
        ys = rng.normal(size=len(xs))
        curve = akima_interpolate(xs, ys)
        np.testing.assert_allclose(curve(xs), ys, atol=1e-12)


def test_uniform_parabola_reproduced_exactly():
    xs = np.arange(0.0, 5.0)
    curve = akima_interpolate(xs, (xs - 2.0) ** 2)
    dense = np.linspace(0.0, 4.0, 777)
    np.testing.assert_allclose(curve(dense), (dense - 2.0) ** 2, atol=1e-10)
    x_min, y_min = curve.argmin()
    assert abs(x_min - 2.0) <= 1e-3
    assert abs(y_min) <= 1e-6


def test_off_grid_minimum_found_by_refinement():
    c = 1.2345678
    xs = np.linspace(0.0, 3.0, 9)
    curve = akima_interpolate(xs, (xs - c) ** 2)
    x_min, _ = curve.argmin()
    assert abs(x_min - c) <= 1e-6


def test_flat_curve_argmin_is_left_endpoint():
    curve = akima_interpolate(np.arange(5.0), np.full(5, 3.25))
    x_min, y_min = curve.argmin()
    assert x_min == 0.0
    assert y_min == pytest.approx(3.25, abs=1e-12)


def test_matches_reference_akima_implementation():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(5, 15))
        xs = np.sort(rng.uniform(-3, 3, size=n))
        while np.any(np.diff(xs) < 1e-4):
            xs = np.sort(rng.uniform(-3, 3, size=n))
        ys = np.sin(xs) + 0.3 * rng.normal(size=n)
        mine = akima_interpolate(xs, ys)
        reference = Akima1DInterpolator(xs, ys)
        dense = np.linspace(xs[0], xs[-1], 301)
        np.testing.assert_allclose(mine(dense), reference(dense), atol=1e-10)


def test_interpolation_input_errors():
    with pytest.raises(InterpolationError):
        akima_interpolate([0, 1, 2, 3], [0, 1, 2, 3])  # too few
    with pytest.raises(InterpolationError):
        akima_interpolate([0, 1, 1, 2, 3], [0, 1, 2, 3, 4])  # duplicate x
    curve = akima_interpolate(np.arange(5.0), np.arange(5.0))
    with pytest.raises(InterpolationError):
        curve(5.5)  # outside the span


def test_non_finite_knots_rejected():
    with pytest.raises(InterpolationError, match="finite"):
        akima_interpolate(np.arange(5.0), [3.0, 2.0, np.nan, 2.5, 3.0])
    with pytest.raises(InterpolationError, match="finite"):
        akima_interpolate([0.0, 1.0, np.inf, 3.0, 4.0], np.ones(5))
    with pytest.raises(InterpolationError, match="finite"):
        estimate_lr_optimum(lr_sweep_points(5e-4, 8e-3, 5), [3.0, 2.0, np.nan, 2.5, 3.0])


def test_argmin_no_higher_than_dense_grid_on_non_convex_curves():
    rng = np.random.default_rng(3)
    for _ in range(50):
        xs = np.sort(rng.uniform(0.0, 10.0, size=int(rng.integers(5, 12))))
        while np.any(np.diff(xs) < 1e-3):
            xs = np.sort(rng.uniform(0.0, 10.0, size=len(xs)))
        curve = akima_interpolate(xs, rng.normal(size=len(xs)))
        x_min, y_min = curve.argmin()
        assert xs[0] <= x_min <= xs[-1]
        assert y_min == curve(x_min)
        assert y_min <= curve(np.linspace(xs[0], xs[-1], 10_001)).min()


def test_unsorted_knots_are_sorted_internally():
    xs = np.array([3.0, 0.0, 4.0, 1.0, 2.0])
    curve = akima_interpolate(xs, (xs - 2.0) ** 2)
    assert curve(2.0) == pytest.approx(0.0, abs=1e-12)


def test_convex_curves_recover_analytic_optimum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lo, hi = 0.0, float(rng.uniform(2.0, 8.0))
        c = float(rng.uniform(lo + 0.2 * hi, hi - 0.2 * hi))
        a = float(rng.uniform(0.5, 3.0))
        xs = np.linspace(lo, hi, int(rng.integers(5, 9)))
        curve = akima_interpolate(xs, a * (xs - c) ** 2 + 1.0)
        x_min, _ = curve.argmin()
        assert abs(x_min - c) <= 1e-3 * (hi - lo)


def test_lr_sweep_points_protocol():
    opts = TASK_KEYS["lr-sweep"]["task_options"]  # the lr-sweep task's default rates
    pts = lr_sweep_points(opts["low"], opts["high"], opts["n_points"])
    assert len(pts) == 5
    assert pts[0] == pytest.approx(5e-4)
    assert pts[-1] == pytest.approx(8e-3)
    ratios = pts[1:] / pts[:-1]
    np.testing.assert_allclose(ratios, ratios[0])


def test_lr_optimum_recovered_from_sweep():
    target = 2e-3
    lrs = lr_sweep_points(5e-4, 8e-3, 5)
    losses = (np.log10(lrs) - np.log10(target)) ** 2 + 0.5
    best, loss_at_best = estimate_lr_optimum(lrs, losses)
    assert best == pytest.approx(target, rel=0.02)
    assert loss_at_best == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(InterpolationError):
        estimate_lr_optimum([-1e-3, 1e-3, 2e-3, 4e-3, 8e-3], np.ones(5))
