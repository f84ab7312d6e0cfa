"""Verification oracles: finite differences, equivalence and descent checks.

This module is the referee. It recomputes gradients numerically,
rebuilds tied reference layers from recurrence parameters, traces
energies along update trajectories, and runs deliberately broken
variants to prove the checks can fail. Nothing here is needed to train
a model; everything here is needed to trust one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import energy as en
from . import layers as ly
from . import model as md
from .tensor import Tape, Tensor


def finite_diff_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    One coordinate at a time: (f(x + s e_i) - f(x - s e_i)) / 2s. Pure
    numerics, no autodiff; this is the independent route every analytic
    gradient in the package is checked against.
    """
    x = np.array(x, dtype=np.float64)  # owned contiguous copy; mutated in place
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        fp = float(f(x))
        flat[i] = keep - step
        fm = float(f(x))
        flat[i] = keep
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def rel_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-12) -> float:
    """Worst-case elementwise relative error with an absolute floor.

    denominator = max(|approx|, |exact|, floor) per element, so exact
    zeros compare absolutely at the floor scale.
    """
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(approx), np.abs(exact)), floor)
    return float(np.max(np.abs(approx - exact) / denom))


# ---------------------------------------------------------------------------
# independent energy transcriptions (test oracles, deliberately naive)


def interaction_energy_bruteforce(
    x: np.ndarray,
    history: np.ndarray,
    head_matrices: list[np.ndarray],
    tau: float,
    bias: np.ndarray | None = None,
) -> float:
    """Literal triple-loop transcription of the interaction energy.

    Energies are summed with python floats and explicit exp/log; no
    shared code with the production path. bias, if given, is
    (n_heads, n_ctx).
    """
    x = np.asarray(x, dtype=np.float64)
    history = np.asarray(history, dtype=np.float64)
    total = 0.0
    for k, a_k in enumerate(head_matrices):
        inner = 0.0
        for j in range(history.shape[0]):
            beta = a_k @ history[j]
            logit = float(beta @ x) / tau
            if bias is not None:
                logit += float(bias[k, j])
            inner += float(np.exp(logit))
        total += -tau * float(np.log(inner))
    return total


def elementwise_energy_quadrature(
    x: np.ndarray,
    h: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    n_panels: int = 4000,
    lower: float = -40.0,
) -> float:
    """Elementwise energy with phi computed by composite Simpson.

    phi(z) = integral of silu from -inf to z, truncated at `lower`
    where the integrand is below 1e-16. Independent of the closed-form
    dilogarithm route.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    z = np.asarray(v, dtype=np.float64) @ x
    gate = np.asarray(w, dtype=np.float64) @ h

    def phi_simpson(b: float) -> float:
        if b <= lower:
            return 0.0
        n = n_panels if n_panels % 2 == 0 else n_panels + 1
        t = np.linspace(lower, b, n + 1)
        y = t / (1.0 + np.exp(-np.clip(t, -700, 700)))
        weights = np.ones(n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float((b - lower) / (3.0 * n) * (weights @ y))

    phi_vals = np.array([phi_simpson(float(b)) for b in z])
    return float(-(gate @ phi_vals))


# ---------------------------------------------------------------------------
# tied rebuilds: reference layers and energy specs from recurrence params


def tied_reference_attention(
    params: ly.CemAttentionParams, untie_values: np.random.Generator | None = None
) -> ly.ReferenceMhaParams:
    """Reference attention whose weights realise the tying.

    Values reuse the key projection and the output projection reuses
    the query projection. Passing a Generator as untie_values swaps in
    fresh value matrices instead; that variant must NOT match (used as
    a negative control).
    """
    if untie_values is None:
        w_v = params.w_k
    else:
        w_v = Tensor(untie_values.normal(size=params.w_k.shape))
    return ly.ReferenceMhaParams(
        w_q=params.w_q,
        w_k=params.w_k,
        w_v=w_v,
        w_o=params.w_q,
        tau=params.tau,
        alibi=params.alibi,
    )


def tied_reference_mlp(params: ly.CemMlpParams) -> ly.GatedMlpParams:
    """Gated reference MLP with down = v.T, up = v, gate = w."""
    return ly.GatedMlpParams(
        w_gate=params.w, w_up=params.v, w_down=Tensor(params.v.data.T.copy())
    )


def interaction_spec_of(params: ly.CemAttentionParams) -> en.InteractionEnergySpec:
    """Energy spec matching a recurrent attention layer's coupling."""
    diag = None
    if params.diag is not None:
        diag = np.broadcast_to(params.diag.data, (params.n_heads, params.diag.shape[1]))
    alibi = None
    if params.alibi is not None:
        alibi = en.AlibiSpec(
            slopes=np.asarray(params.alibi.slopes, dtype=np.float64),
            b_self=float(params.alibi.b_self.data),
            b_cross=float(params.alibi.b_cross.data),
        )
    return en.InteractionEnergySpec(
        tau=params.tau,
        w_q=params.w_q.data,
        w_k=params.w_k.data,
        diag=diag,
        alibi=alibi,
    )


def elementwise_spec_of(params: ly.CemMlpParams) -> en.ElementwiseEnergySpec:
    return en.ElementwiseEnergySpec(w=params.w.data, v=params.v.data)


# ---------------------------------------------------------------------------
# random layer instances (verification scale, O(1) weights)


def random_attention_params(
    seed: int,
    steps: int = 1,
    pure_gradient: bool = True,
    with_alibi: bool | None = None,
) -> tuple[ly.CemAttentionParams, int]:
    """Random recurrence attention params plus a context length.

    pure_gradient keeps the configuration inside the regime where the
    update is exactly the negative energy gradient: no logit diagonal,
    identity preconditioner, inner norm off.
    """
    rng = np.random.default_rng(seed)
    d_h = int(rng.choice([4, 8, 16]))
    n_heads = int(rng.choice([1, 2, 4]))
    d_r = max(1, d_h // n_heads)
    n_ctx = int(rng.integers(1, 7))
    scale = 1.0 / np.sqrt(d_h)
    use_alibi = bool(rng.integers(0, 2)) if with_alibi is None else with_alibi
    alibi = None
    if use_alibi:
        alibi = ly.AlibiParams(
            slopes=en.alibi_slopes(n_heads),
            b_self=Tensor(rng.normal(scale=0.3)),
            b_cross=Tensor(rng.normal(scale=0.3)),
        )
    params = ly.CemAttentionParams(
        w_q=Tensor(rng.normal(size=(n_heads, d_r, d_h)) * scale),
        w_k=Tensor(rng.normal(size=(n_heads, d_r, d_h)) * scale),
        tau=float(np.sqrt(d_r)),
        steps=steps,
        eta=1.0,
        diag=None,
        precond=None,
        alibi=alibi,
        inner_norm=None,
    )
    if not pure_gradient:
        kind = rng.choice(["per-head", "shared"])
        n_diag = n_heads if kind == "per-head" else 1
        params = ly.CemAttentionParams(
            w_q=params.w_q,
            w_k=params.w_k,
            tau=params.tau,
            steps=steps,
            eta=1.0,
            diag=Tensor(rng.normal(size=(n_diag, d_h)) * scale),
            precond=tuple(
                random_preconditioner(rng, d_h, kind="diag_lowrank", rank=2)
                for _ in range(n_heads)
            ),
            alibi=alibi,
            inner_norm=ly.RmsNormParams(gain=Tensor(1.0 + 0.1 * rng.normal(size=d_h))),
        )
    return params, n_ctx


def random_mlp_params(seed: int, steps: int = 1, pure_gradient: bool = True) -> ly.CemMlpParams:
    rng = np.random.default_rng(seed)
    d_h = int(rng.choice([4, 8, 16]))
    d_m = int(rng.choice([8, 16, 32]))
    scale = 1.0 / np.sqrt(d_h)
    precond = None
    norm = None
    if not pure_gradient:
        precond = random_preconditioner(rng, d_h, kind="diag_lowrank", rank=4)
        norm = ly.RmsNormParams(gain=Tensor(1.0 + 0.1 * rng.normal(size=d_h)))
    return ly.CemMlpParams(
        w=Tensor(rng.normal(size=(d_m, d_h)) * scale),
        v=Tensor(rng.normal(size=(d_m, d_h)) * scale),
        steps=steps,
        eta=1.0,
        precond=precond,
        inner_norm=norm,
    )


def random_preconditioner(
    rng: np.random.Generator, dim: int, kind: str = "diag_lowrank", rank: int = 2
) -> ly.PreconditionerParams:
    p = Tensor(rng.normal(loc=1.0 / np.sqrt(dim), scale=0.1 / np.sqrt(dim), size=dim))
    if kind == "diagonal":
        return ly.PreconditionerParams(p=p)
    return ly.PreconditionerParams(
        p=p,
        u=Tensor(rng.normal(size=(dim, rank)) * 0.2),
        v=Tensor(rng.normal(size=(dim, rank)) * 0.2),
    )


# ---------------------------------------------------------------------------
# equivalence, consistency, descent, causality


@dataclass
class CheckReport:
    name: str
    passed: bool
    n_cases: int
    worst: float
    tolerance: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": bool(self.passed),
            "n_cases": self.n_cases,
            "worst_deviation": self.worst,
            "tolerance": self.tolerance,
            **self.detail,
        }


def max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def tied_equivalence_check(
    n_configs: int = 100, seed: int = 0, tolerance: float = 1e-10
) -> CheckReport:
    """Recurrent layers at one plain step must equal tied references.

    Per config: draw random weights, run the recurrence with steps=1,
    identity preconditioner, no diagonal, inner norm off; subtract the
    input; compare against the tied reference layer output.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for c in range(n_configs):
        sub = int(rng.integers(0, 2**31))
        if c % 2 == 0:
            params, n_ctx = random_attention_params(sub, steps=1, pure_gradient=True)
            d_h = params.w_q.shape[2]
            h = Tensor(np.random.default_rng(sub + 1).normal(size=(n_ctx, d_h)))
            got = ly.cem_attention(h, params).data - h.data
            want = ly.reference_mha(h, tied_reference_attention(params)).data
            kind = "attention"
        else:
            params = random_mlp_params(sub, steps=1, pure_gradient=True)
            d_h = params.w.shape[1]
            h = Tensor(np.random.default_rng(sub + 1).normal(size=(5, d_h)))
            got = ly.cem_mlp(h, params).data - h.data
            want = ly.reference_gated_mlp(h, tied_reference_mlp(params)).data
            kind = "mlp"
        dev = max_abs(got, want)
        if dev > worst:
            worst, worst_case = dev, {"kind": kind, "seed": sub}
    return CheckReport(
        name="tied_equivalence",
        passed=worst <= tolerance,
        n_cases=n_configs,
        worst=worst,
        tolerance=tolerance,
        detail={"worst_case": worst_case},
    )


def untied_deviation(seed: int = 0) -> float:
    """Deviation when value weights are deliberately re-drawn (must be large)."""
    params, n_ctx = random_attention_params(seed, steps=1, pure_gradient=True)
    n_ctx = max(n_ctx, 3)
    d_h = params.w_q.shape[2]
    h = Tensor(np.random.default_rng(seed + 1).normal(size=(n_ctx, d_h)))
    got = ly.cem_attention(h, params).data - h.data
    bad_ref = tied_reference_attention(params, untie_values=np.random.default_rng(seed + 2))
    want = ly.reference_mha(h, bad_ref).data
    return max_abs(got, want)


def single_step_consistency_check(
    n_configs: int = 100, seed: int = 0, tolerance: float = 1e-8
) -> CheckReport:
    """One recurrence step must move by exactly -eta * energy gradient.

    Runs in pure-gradient mode. Attention checks every position i with
    history rows 1..i; the MLP checks every row independently.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(n_configs):
        sub = int(rng.integers(0, 2**31))
        eta = float(rng.choice([1.0, 0.5, 0.05]))
        if c % 2 == 0:
            params, n_ctx = random_attention_params(sub, steps=1, pure_gradient=True)
            params.eta = eta
            d_h = params.w_q.shape[2]
            h = np.random.default_rng(sub + 1).normal(size=(n_ctx, d_h))
            out = ly.cem_attention(Tensor(h), params).data
            spec = interaction_spec_of(params)
            for i in range(n_ctx):
                grad = en.interaction_energy_grad(h[i], h[: i + 1], spec)
                worst = max(worst, max_abs(out[i] - h[i], -eta * grad))
        else:
            params = random_mlp_params(sub, steps=1, pure_gradient=True)
            params.eta = eta
            d_h = params.w.shape[1]
            h = np.random.default_rng(sub + 1).normal(size=(4, d_h))
            out = ly.cem_mlp(Tensor(h), params).data
            spec = elementwise_spec_of(params)
            for i in range(h.shape[0]):
                grad = en.elementwise_energy_grad(h[i], h[i], spec)
                worst = max(worst, max_abs(out[i] - h[i], -eta * grad))
    return CheckReport(
        name="single_step_consistency",
        passed=worst <= tolerance,
        n_cases=n_configs,
        worst=worst,
        tolerance=tolerance,
    )


@dataclass
class DescentTrace:
    energies: np.ndarray  # (steps + 1,)
    eta: float
    grad_norms: np.ndarray

    @property
    def strictly_decreasing(self) -> bool:
        active = self.grad_norms > 1e-8
        return bool(np.all(np.diff(self.energies)[active] < 0.0))


def descent_trace(
    kind: str,
    seed: int,
    steps: int = 8,
    eta_start: float = 1e-2,
    max_halvings: int = 30,
    flip_sign: bool = False,
) -> DescentTrace:
    """Iterate the pure-gradient recurrence layer; record the energy path.

    The state after t steps is read off the actual layer run with its
    step count set to t, so the trajectory is the layer's own, not a
    re-derivation. The step size starts at eta_start and halves until
    the energy decreases at every active step (gradient norm above
    1e-8), which must happen for a true descent direction. flip_sign
    negates the update, a mutant that must fail the decrease test.
    """
    if kind == "attention":
        params, n_ctx = random_attention_params(seed, steps=1, pure_gradient=True)
        n_ctx = max(n_ctx, 2)
        d_h = params.w_q.shape[2]
        h = np.random.default_rng(seed + 1).normal(size=(n_ctx, d_h))
        spec = interaction_spec_of(params)

        def state_after(t: int, eta: float) -> np.ndarray:
            if t == 0:
                return h[-1].copy()
            params.steps, params.eta = t, eta
            return ly.cem_attention(Tensor(h), params).data[-1]

        def e_of(x):
            return en.interaction_energy(x, h, spec)

        def g_of(x):
            return en.interaction_energy_grad(x, h, spec)

    elif kind == "mlp":
        params = random_mlp_params(seed, steps=1, pure_gradient=True)
        d_h = params.w.shape[1]
        hvec = np.random.default_rng(seed + 1).normal(size=d_h)
        spec = elementwise_spec_of(params)

        def state_after(t: int, eta: float) -> np.ndarray:
            if t == 0:
                return hvec.copy()
            params.steps, params.eta = t, eta
            return ly.cem_mlp(Tensor(hvec[None, :]), params).data[0]

        def e_of(x):
            return en.elementwise_energy(x, hvec, spec)

        def g_of(x):
            return en.elementwise_energy_grad(x, hvec, spec)

    else:
        raise ValueError(f"unknown descent kind {kind!r}")

    eta = eta_start
    for _ in range(max_halvings + 1):
        signed = -eta if flip_sign else eta
        states = [state_after(t, signed) for t in range(steps + 1)]
        energies = np.array([e_of(x) for x in states])
        norms = np.array([float(np.linalg.norm(g_of(x))) for x in states[:-1]])
        trace = DescentTrace(energies=energies, eta=eta, grad_norms=norms)
        if trace.strictly_decreasing or flip_sign:
            return trace
        eta *= 0.5
    return trace


def descent_check(
    n_instances: int = 50, seed: int = 0, steps: int = 8
) -> CheckReport:
    """Energy must go strictly downhill along the recurrence for both kinds."""
    rng = np.random.default_rng(seed)
    n_fail = 0
    worst_increase = 0.0
    for c in range(n_instances):
        sub = int(rng.integers(0, 2**31))
        kind = "attention" if c % 2 == 0 else "mlp"
        trace = descent_trace(kind, sub, steps=steps)
        if not trace.strictly_decreasing:
            n_fail += 1
            worst_increase = max(worst_increase, float(np.max(np.diff(trace.energies))))
    return CheckReport(
        name="descent",
        passed=n_fail == 0,
        n_cases=n_instances,
        worst=worst_increase,
        tolerance=0.0,
        detail={"n_failing_instances": n_fail, "steps": steps},
    )


def causality_check(
    n_configs: int = 30, seed: int = 0, tolerance: float = 1e-12
) -> CheckReport:
    """Perturbing tokens after position i must not move outputs up to i.

    Covers the recurrent attention at several step counts (features on)
    and the reference attention.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(n_configs):
        sub = int(rng.integers(0, 2**31))
        steps = [1, 2, 4][c % 3]
        pure = bool(c % 2)
        params, _ = random_attention_params(sub, steps=steps, pure_gradient=pure)
        d_h = params.w_q.shape[2]
        n_ctx = 6
        h = np.random.default_rng(sub + 1).normal(size=(n_ctx, d_h))
        cut = int(np.random.default_rng(sub + 2).integers(1, n_ctx))
        h_pert = h.copy()
        h_pert[cut:] += np.random.default_rng(sub + 3).normal(size=(n_ctx - cut, d_h))

        base = ly.cem_attention(Tensor(h), params).data
        pert = ly.cem_attention(Tensor(h_pert), params).data
        worst = max(worst, max_abs(base[:cut], pert[:cut]))

        ref = tied_reference_attention(params)
        base_r = ly.reference_mha(Tensor(h), ref).data
        pert_r = ly.reference_mha(Tensor(h_pert), ref).data
        worst = max(worst, max_abs(base_r[:cut], pert_r[:cut]))

        # prefix form: running on the truncated sequence reproduces the prefix
        pre = ly.cem_attention(Tensor(h[:cut]), params).data
        worst = max(worst, max_abs(pre, base[:cut]))
    return CheckReport(
        name="causality",
        passed=worst <= tolerance,
        n_cases=n_configs,
        worst=worst,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# whole-model checks


def _require_equivalence_mode(b: md.BlockConfig) -> None:
    problems = []
    if b.attention == "cem":
        if b.attn_steps != 1:
            problems.append("attn_steps must be 1")
        if b.kq_diag != "none":
            problems.append("kq_diag must be 'none'")
        if b.attn_precond != "identity":
            problems.append("attn_precond must be 'identity'")
        if b.attn_eta != 1.0:
            problems.append("attn_eta must be 1.0")
    if b.mlp == "cem":
        if b.mlp_steps != 1:
            problems.append("mlp_steps must be 1")
        if b.mlp_precond != "identity":
            problems.append("mlp_precond must be 'identity'")
        if b.mlp_eta != 1.0:
            problems.append("mlp_eta must be 1.0")
    if "cem" in (b.attention, b.mlp):
        if b.inner_norm:
            problems.append("inner_norm must be off")
        if b.learnable_eta:
            problems.append("learnable_eta must be off")
    if problems:
        raise ValueError("not in equivalence mode: " + "; ".join(problems))


# reference leaf -> the recurrent leaf it is tied to; leaves not listed
# (and every leaf of a non-recurrent sublayer) copy their own name
TIED_LEAVES = {"w_v": "w_k", "w_o": "w_q", "w_gate": "w", "w_up": "v", "w_down": "v"}


def tied_reference_model(model: md.Model) -> md.Model:
    """Reference-architecture twin of an equivalence-mode recurrent model.

    Recurrent attention becomes standard attention with value weights set
    to the key weights and output weights to the query weights; the
    recurrent MLP becomes a gated MLP whose down projection is the
    transposed up projection. Forward outputs must then agree to within
    accumulated rounding.
    """
    cfg = model.config
    b = cfg.block
    _require_equivalence_mode(b)
    ref_block = replace(
        b,
        attention="reference" if b.attention == "cem" else b.attention,
        mlp="gated" if b.mlp == "cem" else b.mlp,
        inner_norm=False,
        learnable_eta=False,
    )
    ref = md.skeleton(replace(cfg, block=ref_block))
    source = md.named_parameters(model)
    for name, tensor in md.named_parameters(ref).items():
        if name in source:
            data = source[name].data
        else:
            scope, _, leaf = name.rpartition(".")
            data = source[f"{scope}.{TIED_LEAVES[leaf]}"].data
            if leaf == "w_down":
                data = data.T
        tensor.data = data.copy()
    return ref


def model_tied_equivalence_check(
    n_configs: int = 12, seed: int = 0, tolerance: float = 1e-10
) -> CheckReport:
    """Full forward passes of tied model pairs must agree."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(n_configs):
        sub = int(rng.integers(0, 2**31))
        block = md.BlockConfig(
            d_hidden=int(rng.choice([8, 16])),
            n_heads=int(rng.choice([1, 2, 4])),
            d_mlp=int(rng.choice([16, 32])),
            attention="cem",
            mlp="cem",
            inner_norm=False,
            alibi=bool(c % 2),
        )
        kind = "lm" if c % 3 else "regressor"
        cfg = md.ModelConfig(
            kind=kind,
            vocab_size=13,
            in_dim=4,
            n_layers=int(rng.choice([1, 2, 3])),
            block=block,
        )
        model = md.build_model(cfg, seed=sub)
        ref = tied_reference_model(model)
        gen = np.random.default_rng(sub + 1)
        if kind == "lm":
            inputs = gen.integers(0, cfg.vocab_size, size=(2, 6))
        else:
            inputs = gen.normal(size=(6, cfg.in_dim))
        worst = max(
            worst, max_abs(md.forward(model, inputs).data, md.forward(ref, inputs).data)
        )
    return CheckReport(
        name="model_tied_equivalence",
        passed=worst <= tolerance,
        n_cases=n_configs,
        worst=worst,
        tolerance=tolerance,
    )


def full_feature_config() -> md.ModelConfig:
    """Small stack with every option exercised, for backward checking."""
    return md.ModelConfig(
        kind="lm",
        vocab_size=17,
        n_layers=2,
        block=md.BlockConfig(
            d_hidden=16,
            n_heads=2,
            d_mlp=32,
            attention="cem",
            mlp="cem",
            attn_steps=2,
            mlp_steps=2,
            learnable_eta=True,
            kq_diag="shared",
            attn_precond="diag_lowrank",
            attn_precond_rank=2,
            mlp_precond="diag_lowrank",
            mlp_precond_rank=3,
            alibi=True,
            inner_norm=True,
        ),
    )


def model_directional_fd_check(
    n_instances: int = 20,
    seed: int = 0,
    cfg: md.ModelConfig | None = None,
    seq_len: int = 5,
    batch: int = 2,
    step: float = 1e-6,
    tolerance: float = 1e-4,
) -> CheckReport:
    """Tape gradients through a full stack vs directional finite differences.

    One random direction over the whole parameter vector per instance;
    the analytic directional derivative is the sum of per-parameter
    inner products with the tape gradients.
    """
    if cfg is None:
        cfg = full_feature_config()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        sub = int(rng.integers(0, 2**31))
        model = md.build_model(cfg, seed=sub)
        gen = np.random.default_rng(sub + 1)
        if cfg.kind == "lm":
            inputs = gen.integers(0, cfg.vocab_size, size=(batch, seq_len))
            targets = gen.integers(0, cfg.vocab_size, size=(batch, seq_len))

            def loss_fn():
                return md.cross_entropy(md.forward(model, inputs), targets)

        else:
            inputs = gen.normal(size=(seq_len, cfg.in_dim))
            targets = gen.normal(size=(seq_len, cfg.out_dim))

            def loss_fn():
                return md.mse(md.forward(model, inputs), targets)

        params = md.named_parameters(model)
        with Tape() as tape:
            for t in params.values():
                tape.watch(t)
            loss = loss_fn()
            grads = tape.backward(loss)

        dirs = {name: gen.normal(size=t.data.shape) for name, t in params.items()}
        analytic = sum(
            float(np.sum(grads[t].data * dirs[name])) for name, t in params.items()
        )

        def nudge(scale: float) -> None:
            for name, t in params.items():
                t.data = t.data + scale * dirs[name]

        nudge(step)
        f_plus = float(loss_fn().data)
        nudge(-2.0 * step)
        f_minus = float(loss_fn().data)
        nudge(step)
        fd = (f_plus - f_minus) / (2.0 * step)
        worst = max(worst, rel_error(np.asarray(analytic), np.asarray(fd)))
    return CheckReport(
        name="model_backward_fd",
        passed=worst <= tolerance,
        n_cases=n_instances,
        worst=worst,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# negative controls and the bundled verdict run


def untied_control_check(n_instances: int = 10, seed: int = 0) -> CheckReport:
    """Deliberately untied values must break equivalence loudly."""
    rng = np.random.default_rng(seed)
    smallest = np.inf
    for _ in range(n_instances):
        smallest = min(smallest, untied_deviation(int(rng.integers(0, 2**31))))
    return CheckReport(
        name="untied_control",
        passed=smallest > 1e-3,
        n_cases=n_instances,
        worst=float(smallest),
        tolerance=1e-3,
        detail={"direction": "deviation must exceed tolerance"},
    )


def flipped_descent_control_check(n_instances: int = 10, seed: int = 0) -> CheckReport:
    """Sign-flipped updates must fail the descent test (mutant detection)."""
    rng = np.random.default_rng(seed)
    n_detected = 0
    for c in range(n_instances):
        sub = int(rng.integers(0, 2**31))
        kind = "attention" if c % 2 == 0 else "mlp"
        trace = descent_trace(kind, sub, steps=8, flip_sign=True)
        if not trace.strictly_decreasing:
            n_detected += 1
    return CheckReport(
        name="flipped_descent_control",
        passed=n_detected == n_instances,
        n_cases=n_instances,
        worst=float(n_instances - n_detected),
        tolerance=0.0,
        detail={"n_detected": n_detected},
    )


def run_all(out_path: str | Path | None = None, *, fast: bool) -> dict:
    """Run every check, return verdicts, optionally write them as JSON."""
    n = 40 if fast else 100
    reports = [
        tied_equivalence_check(n_configs=n, seed=0),
        model_tied_equivalence_check(n_configs=8 if fast else 16, seed=1),
        single_step_consistency_check(n_configs=n, seed=2),
        descent_check(n_instances=20 if fast else 50, seed=3),
        causality_check(n_configs=18 if fast else 50, seed=4),
        model_directional_fd_check(n_instances=3 if fast else 20, seed=5),
        untied_control_check(n_instances=5 if fast else 10, seed=6),
        flipped_descent_control_check(n_instances=6 if fast else 10, seed=7),
    ]
    verdict = {
        "all_passed": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(verdict, indent=2, sort_keys=True))
    return verdict
