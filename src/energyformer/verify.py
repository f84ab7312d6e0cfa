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
# random blocks (verification scale, O(1) weights) and their tied twins


def _zeros(*shape: int) -> Tensor:
    """An init_block draw of writable zeros."""
    return Tensor(np.zeros(shape))


def random_block(cfg: md.BlockConfig, seed: int) -> md.Block:
    """The block init_block builds for cfg, with N(0, 1/d_hidden) noise
    added to every tensor, so that the K/Q diagonal, the preconditioner
    factors, the gains, the ALiBi offsets and a learnable eta are random
    too. The same (cfg, seed) gives the same tensors."""
    block = md.init_block(cfg, _zeros)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(cfg.d_hidden)
    for t in md.named_tensors(block).values():
        t.data += rng.normal(scale=scale, size=t.shape)
    return block


def random_config(
    seed: int, steps: int = 1, pure_gradient: bool = True
) -> tuple[md.BlockConfig, int]:
    """A recurrent block config at verification widths, plus a context length:
    width 4, 8 or 16, 1, 2 or 4 heads, d_mlp 8, 16 or 32, ALiBi on or off,
    and 1 to 6 tokens.

    pure_gradient keeps the configuration inside the regime where each
    update is exactly the negative energy gradient: no logit diagonal,
    identity preconditioners, inner norm off.
    """
    rng = np.random.default_rng(seed)
    d_h = (4, 8, 16)[rng.integers(3)]
    n_heads = (1, 2, 4)[rng.integers(3)]
    d_mlp = (8, 16, 32)[rng.integers(3)]
    n_ctx = int(rng.integers(1, 7))
    features = {}
    if not pure_gradient:
        features = dict(
            kq_diag=("per-head", "shared")[rng.integers(2)],
            attn_precond="diag_lowrank",
            attn_precond_rank=2,
            mlp_precond="diag_lowrank",
            mlp_precond_rank=4,
        )
    cfg = md.BlockConfig(
        d_hidden=d_h,
        n_heads=n_heads,
        d_mlp=d_mlp,
        attn_steps=steps,
        mlp_steps=steps,
        alibi=bool(rng.integers(0, 2)),
        inner_norm=not pure_gradient,
        **features,
    )
    return cfg, n_ctx


# reference leaf -> the recurrent leaf it is tied to; leaves not listed
# (and every leaf of a non-recurrent sublayer) copy their own name
TIED_LEAVES = {"w_v": "w_k", "w_o": "w_q", "w_gate": "w", "w_up": "v", "w_down": "v"}


def _reference_config(b: md.BlockConfig) -> md.BlockConfig:
    return replace(
        b,
        attention="reference" if b.attention == "cem" else b.attention,
        mlp="gated" if b.mlp == "cem" else b.mlp,
        inner_norm=False,
        learnable_eta=False,
    )


def _tie(twin, source: dict[str, Tensor]):
    """Fill every tensor of twin from source, by its own name or through
    TIED_LEAVES; recurrent-only leaves of source are not read."""
    for name, tensor in md.named_tensors(twin).items():
        if name in source:
            data = source[name].data
        else:
            scope, _, leaf = name.rpartition(".")
            data = source[f"{scope}.{TIED_LEAVES[leaf]}"].data
            if leaf == "w_down":
                data = data.T
        tensor.data = data.copy()
    return twin


def tied_reference_block(block: md.Block, cfg: md.BlockConfig) -> md.Block:
    """Reference twin of a block built for cfg: values reuse the key
    projection, the output projection reuses the query projection, and
    the gated MLP's gate, up and down projections are w, v and v.T.

    The logit diagonal, preconditioners, inner norm and eta have no
    reference counterpart and are dropped, so the twin equals the block
    only in equivalence mode; its causality holds in any mode.
    """
    return _tie(md.init_block(_reference_config(cfg), _zeros), md.named_tensors(block))


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


def _require_positive(what: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")


def max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def tied_equivalence_check(
    n_configs: int = 100, seed: int = 0, tolerance: float = 1e-10
) -> CheckReport:
    """Recurrent layers at one plain step must equal tied references.

    Per config: draw a random block in pure-gradient mode (steps=1,
    identity preconditioners, no diagonal, inner norm off), run one of its
    recurrent sublayers, subtract the input, and compare against the same
    sublayer of its tied reference twin.
    """
    _require_positive("n_configs", n_configs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for c in range(n_configs):
        sub = int(rng.integers(0, 2**31))
        cfg, n_ctx = random_config(sub)
        block = random_block(cfg, sub)
        twin = tied_reference_block(block, cfg)
        kind = "attention" if c % 2 == 0 else "mlp"
        rows = n_ctx if kind == "attention" else 5
        h = Tensor(np.random.default_rng(sub + 1).normal(size=(rows, cfg.d_hidden)))
        if kind == "attention":
            got, want = ly.cem_attention(h, block.attn), ly.reference_mha(h, twin.attn)
        else:
            got, want = ly.cem_mlp(h, block.mlp), ly.reference_gated_mlp(h, twin.mlp)
        dev = max_abs(got.data - h.data, want.data)
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
    """Deviation when the twin's value weights are re-drawn (must be large)."""
    cfg, n_ctx = random_config(seed)
    block = random_block(cfg, seed)
    twin = tied_reference_block(block, cfg)
    twin.attn.w_v.data = np.random.default_rng(seed + 2).normal(size=twin.attn.w_v.shape)
    h = Tensor(np.random.default_rng(seed + 1).normal(size=(max(n_ctx, 3), cfg.d_hidden)))
    got = ly.cem_attention(h, block.attn).data - h.data
    return max_abs(got, ly.reference_mha(h, twin.attn).data)


def single_step_consistency_check(
    n_configs: int = 100, seed: int = 0, tolerance: float = 1e-8
) -> CheckReport:
    """One recurrence step must move by exactly -eta * energy gradient.

    Runs in pure-gradient mode. Attention checks every position i with
    history rows 1..i; the MLP checks every row independently.
    """
    _require_positive("n_configs", n_configs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(n_configs):
        sub = int(rng.integers(0, 2**31))
        eta = float(rng.choice([1.0, 0.5, 0.05]))
        cfg, n_ctx = random_config(sub)
        cfg = replace(cfg, attn_eta=eta, mlp_eta=eta)
        block = random_block(cfg, sub)
        if c % 2 == 0:
            h = np.random.default_rng(sub + 1).normal(size=(n_ctx, cfg.d_hidden))
            out = ly.cem_attention(Tensor(h), block.attn).data
            spec = interaction_spec_of(block.attn)
            for i in range(n_ctx):
                grad = en.interaction_energy_grad(h[i], h[: i + 1], spec)
                worst = max(worst, max_abs(out[i] - h[i], -eta * grad))
        else:
            h = np.random.default_rng(sub + 1).normal(size=(4, cfg.d_hidden))
            out = ly.cem_mlp(Tensor(h), block.mlp).data
            spec = elementwise_spec_of(block.mlp)
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

    The states x_1 .. x_steps come from one run of the layer's own
    per-step iterator at each step size, so the trajectory is the
    layer's, not a re-derivation; the input and those states are then
    scored by one stacked energy call and one stacked gradient call.
    The step size starts at eta_start and halves until the energy
    decreases at every active step (gradient norm above 1e-8), which
    must happen for a true descent direction. flip_sign negates the
    update, a mutant that must fail the decrease test.
    """
    _require_positive("steps", steps)
    if max_halvings < 0:
        raise ValueError(f"max_halvings must be >= 0, got {max_halvings}")
    cfg, n_ctx = random_config(seed)
    block = random_block(cfg, seed)
    if kind == "attention":
        params, states_of = block.attn, ly.cem_attention_states
        h = np.random.default_rng(seed + 1).normal(size=(max(n_ctx, 2), cfg.d_hidden))
        context, energy, grad = h, en.interaction_energy, en.interaction_energy_grad
        spec = interaction_spec_of(params)
    elif kind == "mlp":
        params, states_of = block.mlp, ly.cem_mlp_states
        h = np.random.default_rng(seed + 1).normal(size=(1, cfg.d_hidden))
        context, energy, grad = h[0], en.elementwise_energy, en.elementwise_energy_grad
        spec = elementwise_spec_of(params)
    else:
        raise ValueError(f"unknown descent kind {kind!r}")

    params.steps = steps
    eta = eta_start
    for _ in range(max_halvings + 1):
        params.eta = -eta if flip_sign else eta
        # the last token's state: the one whose whole history is visible
        states = np.stack([h[-1]] + [x.data[-1] for x in states_of(Tensor(h), params)])
        norms = np.linalg.norm(grad(states[:-1], context, spec), axis=-1)
        trace = DescentTrace(energies=energy(states, context, spec), eta=eta, grad_norms=norms)
        if trace.strictly_decreasing or flip_sign:
            return trace
        eta *= 0.5
    return trace


def descent_check(
    n_instances: int = 50, seed: int = 0, steps: int = 8
) -> CheckReport:
    """Energy must go strictly downhill along the recurrence for both kinds."""
    _require_positive("n_instances", n_instances)
    _require_positive("steps", steps)
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

    Covers the recurrent attention at several step counts, features on
    for half the configs, and the attention of its reference twin.
    """
    _require_positive("n_configs", n_configs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(n_configs):
        sub = int(rng.integers(0, 2**31))
        steps = [1, 2, 4][c % 3]
        pure = bool(c % 2)
        cfg, _ = random_config(sub, steps=steps, pure_gradient=pure)
        block = random_block(cfg, sub)
        params = block.attn
        d_h = cfg.d_hidden
        n_ctx = 6
        h = np.random.default_rng(sub + 1).normal(size=(n_ctx, d_h))
        cut = int(np.random.default_rng(sub + 2).integers(1, n_ctx))
        h_pert = h.copy()
        h_pert[cut:] += np.random.default_rng(sub + 3).normal(size=(n_ctx - cut, d_h))

        base = ly.cem_attention(Tensor(h), params).data
        pert = ly.cem_attention(Tensor(h_pert), params).data
        worst = max(worst, max_abs(base[:cut], pert[:cut]))

        ref = tied_reference_block(block, cfg).attn
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


def tied_reference_model(model: md.Model) -> md.Model:
    """Reference-architecture twin of an equivalence-mode recurrent model.

    Recurrent attention becomes standard attention with value weights set
    to the key weights and output weights to the query weights; the
    recurrent MLP becomes a gated MLP whose down projection is the
    transposed up projection. Forward outputs must then agree to within
    accumulated rounding.
    """
    cfg = model.config
    _require_equivalence_mode(cfg.block)
    ref = md.skeleton(replace(cfg, block=_reference_config(cfg.block)))
    return _tie(ref, md.named_parameters(model))


def model_tied_equivalence_check(
    n_configs: int = 12, seed: int = 0, tolerance: float = 1e-10
) -> CheckReport:
    """Full forward passes of tied model pairs must agree."""
    _require_positive("n_configs", n_configs)
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
    _require_positive("n_instances", n_instances)
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
    _require_positive("n_instances", n_instances)
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
    _require_positive("n_instances", n_instances)
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
