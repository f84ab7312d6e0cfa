"""Fused recurrent steps against their composed-op reference.

Each recursion step of cem_attention and cem_mlp is one tape node with a
hand-written VJP; composed_reference.py keeps the same layers built from
tape primitives. The forward must agree to 1e-12 absolute (the fused
attention step folds 1/tau into its query weights where the composed
layer scales the logits, and across tiles its read-out skips the masked
keys' exact zeros) and every input's gradient to 1e-10, relative to
that gradient's largest entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_reference as ref
from energyformer import energy as en
from energyformer import layers as ly
from energyformer import verify as vf
from energyformer.model import named_tensors
from energyformer.tensor import DimensionError, DomainError, Tape, Tensor, mul, tsum

FWD_TOL = 1e-12
GRAD_TOL = 1e-10
LEADS = ((), (2,), (2, 3))
PRECONDS = ("none", "diagonal", "diag_lowrank")
LONG = 150  # three query tiles at the real tile size, the last one ragged


def _norm(rng, d, on):
    return ly.RmsNormParams(gain=Tensor(1.0 + 0.1 * rng.normal(size=d))) if on else None


def _precond(rng, d, kind):
    return None if kind == "none" else vf.random_preconditioner(rng, d, kind=kind, rank=2)


def attention_params(seed, inner_norm, kq_diag, precond, alibi, learnable_eta, steps):
    rng = np.random.default_rng(seed)
    d = int(rng.choice([4, 8]))
    k = int(rng.choice([1, 2, 3]))
    d_r = max(1, d // k)
    scale = 1.0 / np.sqrt(d)
    diag = None
    if kq_diag != "none":
        n_diag = 1 if kq_diag == "shared" else k
        diag = Tensor(rng.normal(size=(n_diag, d)) * scale)
    return ly.CemAttentionParams(
        w_q=Tensor(rng.normal(size=(k, d_r, d)) * scale),
        w_k=Tensor(rng.normal(size=(k, d_r, d)) * scale),
        tau=float(np.sqrt(d_r)),
        steps=steps,
        eta=Tensor(0.7) if learnable_eta else 0.7,
        diag=diag,
        precond=None if precond == "none" else tuple(_precond(rng, d, precond) for _ in range(k)),
        alibi=None if not alibi else ly.AlibiParams(
            slopes=en.alibi_slopes(k),
            b_self=Tensor(rng.normal(scale=0.3)),
            b_cross=Tensor(rng.normal(scale=0.3)),
        ),
        inner_norm=_norm(rng, d, inner_norm),
    )


def mlp_params(seed, inner_norm, precond, learnable_eta, steps):
    rng = np.random.default_rng(seed)
    d, d_m = int(rng.choice([4, 6])), int(rng.choice([8, 10]))
    return ly.CemMlpParams(
        w=Tensor(rng.normal(size=(d_m, d)) * 0.4),
        v=Tensor(rng.normal(size=(d_m, d)) * 0.4),
        steps=steps,
        eta=Tensor(0.9) if learnable_eta else 0.9,
        precond=_precond(rng, d, precond),
        inner_norm=_norm(rng, d, inner_norm),
    )


def run_with_grads(layer_fn, params, h, cotangent):
    """Layer output and the gradient of <output, cotangent> for h and every param."""
    tensors = named_tensors(params)
    tensors["h"] = ht = Tensor(h)
    with Tape() as tape:
        tape.watch(*tensors.values())
        out = layer_fn(ht, params)
        grads = tape.backward(tsum(mul(out, Tensor(cotangent))))
    return out.data, {name: grads[t].data for name, t in tensors.items()}


def assert_matches_composed(fused_fn, composed_fn, params, h, seed):
    cotangent = np.random.default_rng(seed + 1).normal(size=h.shape)
    out, grads = run_with_grads(fused_fn, params, h, cotangent)
    want_out, want_grads = run_with_grads(composed_fn, params, h, cotangent)
    assert np.max(np.abs(out - want_out)) <= FWD_TOL
    for name, want in want_grads.items():
        scale = max(float(np.max(np.abs(want))), 1e-300)
        err = float(np.max(np.abs(grads[name] - want))) / scale
        assert err <= GRAD_TOL, f"{name}: relative gradient error {err}"


ATTENTION_CASES = dict(
    seed=st.integers(0, 2**31 - 1),
    inner_norm=st.booleans(),
    kq_diag=st.sampled_from(("none", "shared", "per-head")),
    precond=st.sampled_from(PRECONDS),
    alibi=st.booleans(),
    learnable_eta=st.booleans(),
    steps=st.sampled_from((1, 2, 4)),
    lead=st.sampled_from(LEADS),
    seq=st.integers(1, 5),
)


def check_attention_case(seed, inner_norm, kq_diag, precond, alibi, learnable_eta, steps,
                         lead, seq):
    params = attention_params(seed, inner_norm, kq_diag, precond, alibi, learnable_eta, steps)
    d = params.w_q.shape[2]
    h = np.random.default_rng(seed).normal(size=lead + (seq, d))
    assert_matches_composed(ly.cem_attention, ref.cem_attention, params, h, seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**ATTENTION_CASES)
def test_fused_attention_matches_composed(**case):
    check_attention_case(**case)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**ATTENTION_CASES)
def test_fused_attention_matches_composed_across_tiles(**case):
    # two-row query tiles: sequences of 1 to 5 span 1 to 3 tiles, the
    # last one ragged at odd lengths
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ly, "QUERY_TILE", 2)
        check_attention_case(**case)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    inner_norm=st.booleans(),
    precond=st.sampled_from(PRECONDS),
    learnable_eta=st.booleans(),
    steps=st.sampled_from((1, 2, 4)),
    lead=st.sampled_from(LEADS),
    rows=st.integers(1, 4),
)
def test_fused_mlp_matches_composed(seed, inner_norm, precond, learnable_eta, steps, lead, rows):
    params = mlp_params(seed, inner_norm, precond, learnable_eta, steps)
    d = params.v.shape[1]
    h = np.random.default_rng(seed).normal(size=lead + (rows, d))
    assert_matches_composed(ly.cem_mlp, ref.cem_mlp, params, h, seed)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(("diagonal", "diag_lowrank")),
    lead=st.sampled_from(LEADS),
)
def test_one_node_norm_and_preconditioner_match_composed(seed, kind, lead):
    rng = np.random.default_rng(seed)
    d = 5
    h = rng.normal(size=lead + (3, d))
    norm = _norm(rng, d, True)
    assert_matches_composed(ly.rmsnorm, ref.rmsnorm, norm, h, seed)
    pc = _precond(rng, d, kind)
    assert_matches_composed(ly.apply_preconditioner, ref.apply_preconditioner, pc, h, seed)


def full_attention(steps=2):
    return attention_params(5, True, "shared", "diag_lowrank", True, True, steps)


def full_mlp(steps=2):
    return mlp_params(6, True, "diag_lowrank", True, steps)


def _width(params):
    return params.w_q.shape[2] if isinstance(params, ly.CemAttentionParams) else params.v.shape[1]


def test_tape_off_forward_equals_tape_on():
    rng = np.random.default_rng(7)
    for fn, params, seq in (
        (ly.cem_attention, full_attention(), 5),
        (ly.cem_mlp, full_mlp(), 5),
        (ly.cem_attention, full_attention(), LONG),
        (ly.cem_mlp, full_mlp(), LONG),
    ):
        h = rng.normal(size=(2, seq, _width(params)))
        off = fn(Tensor(h), params)
        ht = Tensor(h)
        with Tape() as tape:
            tape.watch(ht, *named_tensors(params).values())
            on = fn(ht, params)
        assert off.node is None and on.node is not None
        assert off.data.tobytes() == on.data.tobytes()


@pytest.mark.parametrize("kq_diag", ["shared", "per-head"])
def test_fused_attention_multi_tile_matches_composed(kq_diag):
    assert 2 * ly.QUERY_TILE < LONG < 3 * ly.QUERY_TILE
    params = attention_params(13, True, kq_diag, "diag_lowrank", True, True, 2)
    h = np.random.default_rng(14).normal(size=(2, LONG, _width(params)))
    names = named_tensors(params)
    assert {"alibi.b_self", "alibi.b_cross"} <= set(names)
    assert_matches_composed(ly.cem_attention, ref.cem_attention, params, h, 15)


def _recorded_ops(out: Tensor) -> int:
    """Non-leaf nodes reachable from out; the leaves are the watched tensors."""
    seen, stack, ops = set(), [out.node], 0
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        ops += node.vjp is not None
        stack.extend(node.inputs)
    return ops


@pytest.mark.parametrize("steps", [1, 2, 4])
def test_one_tape_node_per_recursion_step(steps):
    # besides the steps, only the frozen projections are recorded: for kv
    # a head-axis reshape of h, a transpose and one matmul over all heads,
    # and a transpose and a matmul for the gate
    for fn, params, frozen in (
        (ly.cem_attention, full_attention(steps), 3),
        (ly.cem_mlp, full_mlp(steps), 2),
    ):
        ht = Tensor(np.random.default_rng(8).normal(size=(2, 4, _width(params))))
        with Tape() as tape:
            tape.watch(ht, *named_tensors(params).values())
            out = fn(ht, params)
        assert _recorded_ops(out) == steps + frozen


def test_fused_steps_raise_dimension_errors():
    attn, mlp = full_attention(), full_mlp()
    d_a, d_m = _width(attn), _width(mlp)
    rng = np.random.default_rng(9)
    # state width differs from the weights
    with pytest.raises(DimensionError):
        ly.cem_attention(Tensor(rng.normal(size=(3, d_a + 1))), attn)
    with pytest.raises(DimensionError):
        ly.cem_mlp(Tensor(rng.normal(size=(3, d_m + 1))), mlp)
    # preconditioner width differs from the state
    attn.precond = tuple(_precond(rng, d_a + 1, "diagonal") for _ in range(attn.n_heads))
    with pytest.raises(DimensionError):
        ly.cem_attention(Tensor(rng.normal(size=(3, d_a))), attn)
    mlp.precond = _precond(rng, d_m + 1, "diag_lowrank")
    with pytest.raises(DimensionError):
        ly.cem_mlp(Tensor(rng.normal(size=(3, d_m))), mlp)


def test_fused_attention_raises_domain_errors():
    params = full_attention()
    h = np.random.default_rng(10).normal(size=(4, _width(params)))
    h[2, 0] = np.nan
    with pytest.raises(DomainError):  # non-finite softmax row
        ly.cem_attention(Tensor(h), params)
    # the same in the last of three query tiles, which no earlier tile reads
    h = np.random.default_rng(10).normal(size=(LONG, _width(params)))
    h[LONG - 3, 0] = np.nan
    with pytest.raises(DomainError):
        ly.cem_attention(Tensor(h), params)
    # w_q = -w_k makes every self logit -|w_k h_i|^2; scaled past overflow,
    # the first row's only visible entry is -inf, so the row is fully masked
    w_k = np.random.default_rng(11).normal(size=(1, 3, 6))
    params = ly.CemAttentionParams(w_q=Tensor(-w_k), w_k=Tensor(w_k), tau=1.0)
    h = np.random.default_rng(12).normal(size=(3, 6))
    h[0] *= 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        ly.cem_attention(Tensor(h), params)
