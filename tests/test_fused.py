"""Fused recurrent steps against their composed-op reference.

Each recursion step of cem_attention and cem_mlp is one tape node with a
hand-written VJP; composed_reference.py keeps the same layers built from
tape primitives. The forward must agree to 1e-12 times the larger of 1
and the output's largest entry (the fused attention step folds 1/tau
into its query weights where the composed layer scales the logits, and
across tiles its read-out skips the masked keys' exact zeros) and every
input's gradient to 1e-10, relative to that gradient's largest entry.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_reference as ref
from energyformer import layers as ly
from energyformer import model as md
from energyformer import tensor as tt
from energyformer import verify as vf
from energyformer.model import named_parameters, named_tensors
from energyformer.tensor import DimensionError, DomainError, Tape, Tensor, mul, record, tsum
from energyformer.train import OptimConfig, lm_eval, lm_loss, train_loop

FWD_TOL = 1e-12
GRAD_TOL = 1e-10
LEADS = ((), (2,), (2, 3))
LONG = 150  # three query tiles at the real tile size, the last one ragged


def attention_params(seed, **fields):
    """Recurrent attention of a random block: width 4 or 8 and one to
    three heads drawn from seed, preconditioners of rank 2."""
    rng = np.random.default_rng(seed)
    cfg = md.BlockConfig(
        d_hidden=int(rng.choice([4, 8])), n_heads=int(rng.choice([1, 2, 3])), d_mlp=8,
        attn_eta=0.7, attn_precond_rank=2, **fields,
    )
    return vf.random_block(cfg, seed).attn


def mlp_params(seed, **fields):
    """Recurrent MLP of a random block: unless fields say otherwise, width
    4 or 6 and d_mlp 8 or 10 drawn from seed, a rank-2 preconditioner.

    The MLP energy is unbounded below, so unnormalised steps can grow the
    state geometrically: four of them at step size 0.2 take a few percent
    of seeds past 1e3, where rounding alone exceeds an absolute 1e-12;
    FWD_TOL scales with the output for that reason."""
    rng = np.random.default_rng(seed)
    cfg = dict(d_hidden=int(rng.choice([4, 6])), d_mlp=int(rng.choice([8, 10])),
               attention="none", mlp_eta=0.2, mlp_precond_rank=2)
    return vf.random_block(md.BlockConfig(**{**cfg, **fields}), seed).mlp


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
    fwd_scale = max(1.0, float(np.max(np.abs(want_out))))
    assert np.max(np.abs(out - want_out)) <= FWD_TOL * fwd_scale
    for name, want in want_grads.items():
        scale = max(float(np.max(np.abs(want))), 1e-300)
        err = float(np.max(np.abs(grads[name] - want))) / scale
        assert err <= GRAD_TOL, f"{name}: relative gradient error {err}"


ATTENTION_CASES = dict(
    seed=st.integers(0, 2**31 - 1),
    inner_norm=st.booleans(),
    kq_diag=st.sampled_from(md.KQ_DIAG_KINDS),
    attn_precond=st.sampled_from(md.PRECOND_KINDS),
    alibi=st.booleans(),
    learnable_eta=st.booleans(),
    attn_steps=st.sampled_from((1, 2, 4)),
    lead=st.sampled_from(LEADS),
    seq=st.integers(1, 5),
)


def check_attention_case(seed, lead, seq, **fields):
    params = attention_params(seed, **fields)
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
    mlp_precond=st.sampled_from(md.PRECOND_KINDS),
    learnable_eta=st.booleans(),
    mlp_steps=st.sampled_from((1, 2, 4)),
    lead=st.sampled_from(LEADS),
    rows=st.integers(1, 4),
)
def test_fused_mlp_matches_composed(seed, lead, rows, **fields):
    params = mlp_params(seed, **fields)
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
    h = np.random.default_rng(seed).normal(size=lead + (3, 5))
    mlp = mlp_params(seed + 2, d_hidden=5, mlp_precond=kind)
    assert_matches_composed(ly.rmsnorm, ref.rmsnorm, mlp.inner_norm, h, seed)
    assert_matches_composed(ly.apply_preconditioner, ref.apply_preconditioner, mlp.precond, h,
                            seed)


FULL = dict(inner_norm=True, learnable_eta=True, attn_precond="diag_lowrank",
            mlp_precond="diag_lowrank")


def full_attention(steps=2, precond="diag_lowrank"):
    return attention_params(5, kq_diag="shared", alibi=True, attn_steps=steps,
                            **{**FULL, "attn_precond": precond})


def full_mlp(steps=2, precond="diag_lowrank"):
    return mlp_params(6, mlp_steps=steps, **{**FULL, "mlp_precond": precond})


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
    params = attention_params(13, kq_diag=kq_diag, alibi=True, attn_steps=2, **FULL)
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


# the low-rank fold, once per layer call: p reshaped, scaled and
# softplussed, the diagonal product, four matmuls, two transposes, two adds
FOLD_OPS = 12


@pytest.mark.parametrize("steps", [1, 2, 4])
def test_one_tape_node_per_recursion_step(steps):
    # besides the steps, only the frozen projections are recorded: for kv
    # a head-axis reshape of h, a transpose and one matmul over all heads,
    # and a transpose and a matmul for the gate; preconditioners add the
    # FOLD_OPS primitives per layer call that fold them into the read-out
    # weights
    for fn, params, frozen in (
        (ly.cem_attention, full_attention(steps), 3 + FOLD_OPS),
        (ly.cem_mlp, full_mlp(steps), 2 + FOLD_OPS),
        (ly.cem_attention, full_attention(steps, precond="identity"), 3),
        (ly.cem_mlp, full_mlp(steps, precond="identity"), 2),
    ):
        ht = Tensor(np.random.default_rng(8).normal(size=(2, 4, _width(params))))
        with Tape() as tape:
            tape.watch(ht, *named_tensors(params).values())
            out = fn(ht, params)
        assert _recorded_ops(out) == steps + frozen


def lm_smoke(steps=2, **fields):
    cfg = md.preset("lm-smoke")
    block = dataclasses.replace(cfg.block, attn_steps=steps, mlp_steps=steps, **fields)
    return md.build_model(dataclasses.replace(cfg, block=block), seed=0)


def traced_peak(fn) -> int:
    """Peak traced allocation while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tape_step(model, windows):
    with Tape() as tape:
        tape.watch(*named_parameters(model).values())
        tape.backward(lm_loss(model, windows))


@pytest.mark.parametrize("steps", [1, 4])
def test_preconditioners_never_see_a_token_row(steps, monkeypatch):
    # P is folded into the (K, D_r, D_h) = (4, 16, 64) head weights and
    # the (D_m, D_h) = (256, 64) MLP weight once per layer call: n_layers
    # * 2 = 4 calls a forward, and as many cotangents back into the
    # folds, whatever the steps
    calls = {"forward": [], "backward": []}

    def logged(g, params, _fn=ly.apply_preconditioner):
        calls["forward"].append([g.shape])
        out = _fn(g, params)

        def vjp(c):
            calls["backward"].append([c.shape])
            return (c,)

        return record(out.data, (out,), vjp)  # an identity node that logs

    monkeypatch.setattr(ly, "apply_preconditioner", logged)
    model = lm_smoke(steps)
    rng = np.random.default_rng(3)
    tape_step(model, rng.integers(0, 256, size=(8, 65)))
    assert [len(log) for log in calls.values()] == [4, 4]
    lm_loss(model, rng.integers(0, 256, size=(2, LONG + 1)))  # tape off, three tiles
    assert [len(log) for log in calls.values()] == [8, 4]
    shapes = {shape for log in calls.values() for call in log for shape in call}
    assert shapes == {(4, 16, 64), (256, 64)}


def test_lm_smoke_training_step_peak_memory():
    # 34.6 MB. Each MLP step keeping z = silu(a) and m = gate z beside a
    # and s, and both fused steps keeping u = y gain beside y, took 44.0;
    # keeping each head's (8, 64, 64) preconditioner input for the
    # attention VJP, and each step's update apart from its output, 52.7;
    # add and sub keeping their operands, not just their shapes, 47.4
    model = lm_smoke()
    windows = np.random.default_rng(4).integers(0, 256, size=(8, 65))
    assert traced_peak(lambda: tape_step(model, windows)) < 40e6


def test_lm_smoke_training_step_peak_memory_at_eight_steps():
    # 91.8 MB, about 10 MB per recursion step past the first: every step's
    # node keeps its intermediates until the backward. Keeping z, m and u
    # as well took 132.7
    model = lm_smoke(steps=8)
    windows = np.random.default_rng(4).integers(0, 256, size=(8, 65))
    assert traced_peak(lambda: tape_step(model, windows)) < 100e6


def test_lm_smoke_train_loop_with_eval_peak_memory():
    # 44.1 MB over three steps and a 64-window eval. Holding the previous
    # step's graph while the next one was built, and the last one through
    # the eval, took 81.6
    model = lm_smoke()
    rng = np.random.default_rng(4)
    windows, held_out = rng.integers(0, 256, size=(8, 65)), rng.integers(0, 256, size=(64, 65))
    cfg = OptimConfig(total_steps=3, batch_size=8)
    peak = traced_peak(lambda: train_loop(
        model, itertools.repeat(windows), cfg, lm_loss, lambda m: lm_eval(m, held_out)))
    assert peak < 56e6


def test_lm_smoke_backward_is_repeatable():
    # the fused VJPs rebuild z, m and u from the arrays their nodes saved;
    # one that wrote into a saved array would change a second backward.
    # Gains start at one, where u = y gain equals y, so they are drawn
    model = lm_smoke(learnable_eta=True)
    rng = np.random.default_rng(4)
    for name, p in named_parameters(model).items():
        if name.endswith(".gain"):
            p.data = rng.uniform(0.5, 1.5, size=p.shape)
    params = list(named_parameters(model).values())
    windows = rng.integers(0, 256, size=(8, 65))
    with Tape() as tape:
        tape.watch(*params)
        loss = lm_loss(model, windows)
    first, second = tape.backward(loss), tape.backward(loss)
    for p in params:
        assert first[p].data.tobytes() == second[p].data.tobytes()


@pytest.mark.parametrize("layer_fn, sublayer", [(ly.cem_attention, "attn"), (ly.cem_mlp, "mlp")])
def test_fused_steps_use_the_inner_norm_gain_of_the_forward(layer_fn, sublayer):
    # as the rmsnorm primitive does; reading the gain at backward time moved
    # the input gradient by up to 22.9 (attention) and 13.6 (MLP) here
    cfg = md.BlockConfig(d_hidden=8, n_heads=2, d_mlp=16, attn_steps=2, mlp_steps=2,
                         inner_norm=True)
    params = getattr(vf.random_block(cfg, 3), sublayer)
    gain = params.inner_norm.gain
    rng = np.random.default_rng(3)
    h, cotangent = Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(5, 8)))

    def grads(backward_gain):
        with Tape() as tape:
            tape.watch(h, gain)
            loss = tsum(mul(layer_fn(h, params), cotangent))
        forward_gain, gain.data = gain.data, backward_gain
        try:
            got = tape.backward(loss)
        finally:
            gain.data = forward_gain
        return got[h].data, got[gain].data

    want = grads(gain.data)
    got = grads(gain.data + 1.0)
    for w, g in zip(want, got):
        assert g.tobytes() == w.tobytes()


def test_lm_smoke_backward_copies_at_most_one_gradient_per_parameter(monkeypatch):
    # the tape copies a watched parameter's gradient only when it is still
    # a view into the graph, and sums repeated cotangents into fresh
    # arrays; copying every cotangent that arrived as a view took 89
    model = lm_smoke()
    params = list(named_parameters(model).values())
    windows = np.random.default_rng(4).integers(0, 256, size=(8, 65))
    with Tape() as tape:
        tape.watch(*params)
        loss = lm_loss(model, windows)
    copies = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, *args, **kwargs):
            copies.append(args[0])
            return np.array(*args, **kwargs)

    monkeypatch.setattr(tt, "np", CountingNumpy())
    grads = tape.backward(loss)
    monkeypatch.undo()
    assert len(params) == 37
    assert 0 < len(copies) <= len(params)
    # every returned gradient owns its memory
    assert len({id(grads[t].data) for t in params}) == len(params)
    assert all(grads[t].data.base is None for t in params)


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
    attn.precond = ly.PreconditionerParams(p=Tensor(np.zeros((attn.n_heads, d_a + 1))))
    with pytest.raises(DimensionError):
        ly.cem_attention(Tensor(rng.normal(size=(3, d_a))), attn)
    mlp.precond = mlp_params(9, d_hidden=d_m + 1, mlp_precond="diag_lowrank").precond
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
    cfg = md.BlockConfig(d_hidden=6, n_heads=1, d_head=3, d_mlp=8, temperature=1.0,
                         inner_norm=False)
    params = vf.random_block(cfg, 11).attn
    params.w_q.data = -params.w_k.data
    h = np.random.default_rng(12).normal(size=(3, 6))
    h[0] *= 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        ly.cem_attention(Tensor(h), params)
