"""Acceptance gate.

Each test here runs one contract end to end at its stated tolerance,
instance count, and runtime budget, so the -v output reads as one
verdict line per behaviour. Most reuse the verification helpers; the
two experiment tests run the real training paths.
"""

import time

import numpy as np
import pytest

import energyformer.energy as en
import energyformer.layers as ly
import energyformer.verify as vf
from energyformer.cli import ExperimentSpec, gp_variant_config, run_spec
from energyformer.model import BlockConfig, count_parameters_config, preset
from energyformer.tensor import Tensor
from energyformer.train import akima_interpolate

# ---------------------------------------------------------------------------
# layer equivalences


def _tied_pair(rng, **fields):
    """A random equivalence-mode block and its tied reference twin."""
    cfg = BlockConfig(inner_norm=False, **fields)
    block = vf.random_block(cfg, int(rng.integers(0, 2**31)))
    return block, vf.tied_reference_block(block, cfg)


def test_tied_attention_equals_reference_mha():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    n = 120
    for c in range(n):
        d_h = int(rng.choice([8, 16]))
        n_heads = int(rng.choice([1, 2, 4]))
        n_ctx = int(rng.integers(1, 17))
        block, twin = _tied_pair(rng, d_hidden=d_h, n_heads=n_heads, d_mlp=8, alibi=bool(c % 2))
        h = Tensor(rng.normal(size=(n_ctx, d_h)))
        got = ly.cem_attention(h, block.attn).data - h.data
        want = ly.reference_mha(h, twin.attn).data
        worst = max(worst, vf.max_abs(got, want))
    elapsed = time.perf_counter() - t0
    print(f"tied attention: worst={worst:.3e} over {n} configs in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_tied_mlp_equals_reference_gated_mlp():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    n = 120
    for _ in range(n):
        d_h = int(rng.choice([8, 16]))
        d_m = int(rng.choice([8, 16, 32]))
        rows = int(rng.integers(1, 17))
        block, twin = _tied_pair(rng, d_hidden=d_h, d_mlp=d_m, attention="none")
        h = Tensor(rng.normal(size=(rows, d_h)))
        got = ly.cem_mlp(h, block.mlp).data - h.data
        want = ly.reference_gated_mlp(h, twin.mlp).data
        worst = max(worst, vf.max_abs(got, want))
    elapsed = time.perf_counter() - t0
    print(f"tied mlp: worst={worst:.3e} over {n} configs in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# gradients


def test_interaction_energy_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    n = 200
    for c in range(n):
        sub = int(rng.integers(0, 2**31))
        cfg, n_ctx = vf.random_config(sub, pure_gradient=bool(c % 2))
        spec = vf.interaction_spec_of(vf.random_block(cfg, sub).attn)
        d_h = cfg.d_hidden
        inner = np.random.default_rng(sub + 9)
        history = inner.normal(size=(n_ctx, d_h))
        x = inner.normal(size=d_h)

        def f(xv):
            return en.interaction_energy(xv, history, spec)

        analytic = en.interaction_energy_grad(x, history, spec)
        worst = max(worst, vf.rel_error(vf.finite_diff_grad(f, x), analytic))
    elapsed = time.perf_counter() - t0
    print(f"interaction grad: worst rel={worst:.3e} over {n} in {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_elementwise_energy_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    n = 200
    for _ in range(n):
        sub = int(rng.integers(0, 2**31))
        cfg, _ = vf.random_config(sub)
        spec = vf.elementwise_spec_of(vf.random_block(cfg, sub).mlp)
        d_h = cfg.d_hidden
        inner = np.random.default_rng(sub + 9)
        x = inner.normal(size=d_h)
        h = inner.normal(size=d_h)

        def f(xv):
            return en.elementwise_energy(xv, h, spec)

        analytic = en.elementwise_energy_grad(x, h, spec)
        worst = max(worst, vf.rel_error(vf.finite_diff_grad(f, x), analytic))
    elapsed = time.perf_counter() - t0
    print(f"elementwise grad: worst rel={worst:.3e} over {n} in {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_full_stack_backward_matches_finite_differences():
    t0 = time.perf_counter()
    report = vf.model_directional_fd_check(n_instances=20, seed=0, tolerance=1e-4)
    elapsed = time.perf_counter() - t0
    print(f"stack backward: worst rel={report.worst:.3e} over {report.n_cases} "
          f"in {elapsed:.1f}s")
    assert report.passed
    assert report.n_cases >= 20
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# accounting


def test_parameter_ratios_are_exact():
    ref = count_parameters_config(preset("ref-86m"))
    cem = count_parameters_config(preset("cem-86m"))
    assert 2 * cem["attention_core"] == ref["attention_core"]
    assert 3 * cem["mlp_core"] == 2 * ref["mlp_core"]

    # the same thirds at the synthetic-experiment scale, where the MLP
    # dominates and totals land near the published two-thirds ratio
    gated = count_parameters_config(gp_variant_config("gated", 16, 32, 2, 10))
    t1 = count_parameters_config(gp_variant_config("cem-t1", 16, 32, 2, 10))
    t2 = count_parameters_config(gp_variant_config("cem-t2", 16, 32, 2, 10))
    assert 3 * t1["mlp_core"] == 2 * gated["mlp_core"]
    assert t1 == t2
    ratio = t1["total"] / gated["total"]
    print(f"param ratios: halves and thirds exact; desk total ratio {ratio:.4f}")
    assert 0.60 <= ratio <= 0.75


# ---------------------------------------------------------------------------
# descent and causality


def test_energy_descent_and_mutant_detection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    n_per_kind = 50
    for kind in ("attention", "mlp"):
        for _ in range(n_per_kind):
            sub = int(rng.integers(0, 2**31))
            trace = vf.descent_trace(kind, sub, steps=8)
            assert trace.strictly_decreasing, f"{kind} seed {sub} failed to descend"
            assert trace.eta >= 1e-8
            flipped = vf.descent_trace(kind, sub, steps=8, flip_sign=True)
            assert not flipped.strictly_decreasing, f"{kind} mutant {sub} undetected"
    elapsed = time.perf_counter() - t0
    print(f"descent: {n_per_kind} traces per energy, all mutants caught, {elapsed:.1f}s")


def test_causality_is_exact():
    t0 = time.perf_counter()
    report = vf.causality_check(n_configs=50, seed=0, tolerance=1e-12)
    assert report.passed
    assert report.n_cases == 50
    # the per-token sublayer cannot mix rows either
    rng = np.random.default_rng(106)
    for _ in range(5):
        sub = int(rng.integers(0, 2**31))
        cfg, _ = vf.random_config(sub, steps=2)
        params = vf.random_block(cfg, sub).mlp
        d_h = cfg.d_hidden
        h = rng.normal(size=(6, d_h))
        pert = h.copy()
        pert[4:] += rng.normal(size=(2, d_h))
        base = ly.cem_mlp(Tensor(h), params).data
        moved = ly.cem_mlp(Tensor(pert), params).data
        assert vf.max_abs(base[:4], moved[:4]) <= 1e-12
    elapsed = time.perf_counter() - t0
    print(f"causality: worst={report.worst:.3e} over 50 configs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# experiments


def test_gp_recursion_ordering(tmp_path):
    t0 = time.perf_counter()
    optim = {"lr": 3e-3, "total_steps": 600, "batch_size": 512, "weight_decay": 0.0}
    arch = {"d_hidden": 16, "d_mlp": 32}

    rbf = run_spec(ExperimentSpec(
        task="gp-regression", seeds=(0, 1, 2, 3, 4), out=str(tmp_path / "rbf"),
        data={"kernel": "rbf", "lengthscale": 0.8},
        optim=optim,
        task_options={**arch, "variants": ["plain", "gated", "cem-t1", "cem-t2"]},
    ))["rows"]
    periodic = run_spec(ExperimentSpec(
        task="gp-regression", seeds=(0, 1, 2, 3, 4), out=str(tmp_path / "per"),
        data={"kernel": "periodic", "lengthscale": 1.5, "period": 2.0},
        optim=optim,
        task_options={**arch, "variants": ["cem-t1", "cem-t2"]},
    ))["rows"]
    elapsed = time.perf_counter() - t0

    def rmse(rows, seed, variant):
        return next(r["rmse_test"] for r in rows
                    if r["seed"] == seed and r["variant"] == variant)

    rbf_wins = sum(1 for s in range(5) if rmse(rbf, s, "cem-t2") < rmse(rbf, s, "cem-t1"))
    per_wins = sum(1 for s in range(5) if rmse(periodic, s, "cem-t2") < rmse(periodic, s, "cem-t1"))
    gated_mean = np.mean([rmse(rbf, s, "gated") for s in range(5)])
    t1_mean = np.mean([rmse(rbf, s, "cem-t1") for s in range(5)])
    print(f"gp ordering: rbf wins {rbf_wins}/5, periodic wins {per_wins}/5, "
          f"t1/gated = {t1_mean / gated_mean:.3f}, {elapsed:.0f}s")
    assert rbf_wins >= 4
    assert per_wins >= 4
    assert t1_mean <= 1.25 * gated_mean  # two-thirds the core params, competitive
    assert elapsed < 1800.0


def test_lm_smoke_stability(tmp_path):
    t0 = time.perf_counter()
    out = run_spec(ExperimentSpec(
        task="lm-smoke", seeds=(0,), out=str(tmp_path / "runs"),
        optim={"total_steps": 500, "batch_size": 8},
    ))
    elapsed = time.perf_counter() - t0
    result = out["results"][0]
    print(f"lm smoke: loss {result['initial_train_loss']:.3f} -> "
          f"{result['final_train_loss']:.3f} ({result['reduction']:.1%}) in {elapsed:.0f}s")
    assert np.isfinite(result["final_train_loss"])  # loop aborts on NaN anyway
    assert result["reduction"] >= 0.20
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# estimator and head algebra


def test_akima_argmin_and_knot_exactness():
    rng = np.random.default_rng(107)
    worst_arg = 0.0
    worst_knot = 0.0
    for c in range(40):
        if c % 2:
            # the sweep regime: a quadratic on a sparse uniform grid is
            # reproduced exactly, so only the argmin pipeline is measured
            span = float(rng.uniform(1.0, 6.0))
            xs = np.linspace(0.0, span, int(rng.integers(5, 12)))
            c_opt = float(rng.uniform(0.25 * span, 0.75 * span))
            ys = float(rng.uniform(0.5, 4.0)) * (xs - c_opt) ** 2
        else:
            # generic convex curves need density: a local cubic resolves
            # the argmin to roughly the knot spacing cubed
            span = float(rng.uniform(1.0, 3.0))
            xs = np.linspace(0.0, span, 31)
            c_opt = float(rng.uniform(0.25 * span, 0.75 * span))
            ys = float(rng.uniform(0.5, 4.0)) * (np.cosh(xs - c_opt) - 1.0)
        curve = akima_interpolate(xs, ys)
        x_min, _ = curve.argmin()
        worst_arg = max(worst_arg, abs(x_min - c_opt))
        worst_knot = max(worst_knot, float(np.max(np.abs(curve(xs) - ys))))
    print(f"akima: worst argmin err={worst_arg:.2e}, worst knot err={worst_knot:.2e}")
    assert worst_arg <= 1e-3
    assert worst_knot <= 1e-12


def test_concat_projection_equals_head_sum():
    rng = np.random.default_rng(108)
    worst = 0.0
    for c in range(50):
        d_h = int(rng.choice([8, 16]))
        n_heads = int(rng.choice([1, 2, 4]))
        d_r = d_h // n_heads
        j = int(rng.integers(2, 9))
        cfg = BlockConfig(d_hidden=d_h, n_heads=n_heads, d_mlp=8, attention="reference")
        params = vf.random_block(cfg, int(rng.integers(0, 2**31))).attn
        h = rng.normal(size=(j, d_h))
        got = ly.reference_mha(Tensor(h), params).data

        mask = np.triu(np.full((j, j), -np.inf), k=1)
        heads = []
        for k in range(n_heads):
            q = h @ params.w_q.data[k].T
            key = h @ params.w_k.data[k].T
            val = h @ params.w_v.data[k].T
            logits = q @ key.T / params.tau + mask
            z = np.exp(logits - logits.max(axis=-1, keepdims=True))
            heads.append((z / z.sum(axis=-1, keepdims=True)) @ val)
        concat = np.concatenate(heads, axis=-1)
        stacked = params.w_o.data.reshape(n_heads * d_r, d_h)  # heads concatenated along rows
        worst = max(worst, vf.max_abs(got, concat @ stacked))
    print(f"concat vs head-sum: worst={worst:.3e} over 50 instances")
    assert worst <= 1e-12
