"""Layer semantics: tying, energy consistency, descent, causality, preconditioners."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energyformer import layers as ly
from energyformer import energy as en
from energyformer import model as md
from energyformer import tensor as tt
from energyformer import verify as vf
from energyformer.model import named_tensors
from energyformer.tensor import DimensionError, DomainError, Tape, Tensor
from energyformer.verify import rel_error


def features_on(seed, **fields):
    """A random two-step block with every recurrent feature on; fields
    override its config."""
    cfg, _ = vf.random_config(seed, steps=2, pure_gradient=False)
    return vf.random_block(replace(cfg, **fields), seed)


def random_precond(d, kind, seed):
    cfg = md.BlockConfig(d_hidden=d, attention="none", mlp_precond=kind, mlp_precond_rank=2)
    return vf.random_block(cfg, seed).mlp.precond


# ---------------------------------------------------------------------------
# rms norm


def test_rmsnorm_unit_gain_unit_rms():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 8)) * 3.0
    out = ly.rmsnorm(Tensor(x), ly.RmsNormParams(gain=Tensor(np.ones(8)), eps=1e-12))
    rms = np.sqrt(np.mean(out.data**2, axis=-1))
    npt.assert_allclose(rms, np.ones(6), rtol=1e-9)


def test_rmsnorm_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 8))
    params = ly.RmsNormParams(gain=Tensor(rng.normal(size=8)), eps=1e-30)
    a = ly.rmsnorm(Tensor(x), params).data
    b = ly.rmsnorm(Tensor(7.0 * x), params).data
    npt.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_rmsnorm_eps_positive_required():
    with pytest.raises(DomainError):
        ly.RmsNormParams(gain=Tensor(np.ones(4)), eps=0.0)


def test_rmsnorm_overflowed_row_raises():
    # x * x overflows to inf, which would normalise the row to zeros
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="non-finite"):
        ly.rmsnorm(Tensor(np.full((1, 4), 1e200)), ly.RmsNormParams(gain=Tensor(np.ones(4))))


def test_rmsnorm_grad_matches_fd():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(3, 6))
    gain = Tensor(rng.normal(size=6))
    c = rng.normal(size=(3, 6))
    params = ly.RmsNormParams(gain=gain)

    def f(arr):
        return float(np.sum(ly.rmsnorm(Tensor(arr), params).data * c))

    x = Tensor(x0)
    with Tape() as tape:
        tape.watch(x, gain)
        out = ly.rmsnorm(x, params)
        loss = tt.tsum(tt.mul(out, Tensor(c)))
    grads = tape.backward(loss)
    assert rel_error(vf.finite_diff_grad(f, x0), grads[x].data) <= 1e-5

    def f_gain(arr):
        p = ly.RmsNormParams(gain=Tensor(arr))
        return float(np.sum(ly.rmsnorm(Tensor(x0), p).data * c))

    assert rel_error(vf.finite_diff_grad(f_gain, gain.data), grads[gain].data) <= 1e-5


# ---------------------------------------------------------------------------
# reference attention


def test_reference_mha_concat_equals_head_sum():
    # concatenating head read-outs and applying the stacked output matrix
    # must equal summing per-head output projections
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        d_h, d_r, k, j = 8, 3, 3, 5
        cfg = md.BlockConfig(d_hidden=d_h, n_heads=k, d_head=d_r, d_mlp=4, attention="reference")
        params = vf.random_block(cfg, 100 + seed).attn
        h = rng.normal(size=(j, d_h))
        got = ly.reference_mha(Tensor(h), params).data

        # independent concat-form evaluation in plain numpy
        mask = np.triu(np.full((j, j), -np.inf), k=1)
        heads = []
        for kk in range(k):
            q = h @ params.w_q.data[kk].T
            key = h @ params.w_k.data[kk].T
            val = h @ params.w_v.data[kk].T
            logits = q @ key.T / params.tau + mask
            z = np.exp(logits - logits.max(axis=-1, keepdims=True))
            p = z / z.sum(axis=-1, keepdims=True)
            heads.append(p @ val)
        concat = np.concatenate(heads, axis=-1)            # (j, k*d_r)
        stacked = params.w_o.data.reshape(k * d_r, d_h)  # heads concatenated along rows
        want = concat @ stacked
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_reference_mha_causal():
    rng = np.random.default_rng(200)
    d_h, k, j = 8, 2, 6
    cfg = md.BlockConfig(d_hidden=d_h, n_heads=k, d_mlp=4, attention="reference", temperature=2.0)
    params = vf.random_block(cfg, 200).attn
    h = rng.normal(size=(j, d_h))
    h2 = h.copy()
    h2[4:] += rng.normal(size=(2, d_h))
    a = ly.reference_mha(Tensor(h), params).data
    b = ly.reference_mha(Tensor(h2), params).data
    npt.assert_allclose(a[:4], b[:4], rtol=0, atol=1e-12)
    assert np.max(np.abs(a[4:] - b[4:])) > 1e-6


# ---------------------------------------------------------------------------
# reference MLPs


def test_gated_mlp_matches_scalar_loop():
    rng = np.random.default_rng(300)
    d_h, d_m, n = 6, 10, 4
    params = vf.random_block(md.BlockConfig(d_hidden=d_h, d_mlp=d_m, mlp="gated"), 300).mlp
    h = rng.normal(size=(n, d_h))
    got = ly.reference_gated_mlp(Tensor(h), params).data

    def silu_scalar(z):
        return z / (1.0 + np.exp(-z))

    want = np.zeros_like(h)
    for r in range(n):
        hidden = np.zeros(d_m)
        for m in range(d_m):
            gate = sum(params.w_gate.data[m, c] * h[r, c] for c in range(d_h))
            up = sum(params.w_up.data[m, c] * h[r, c] for c in range(d_h))
            hidden[m] = gate * silu_scalar(up)
        for c in range(d_h):
            want[r, c] = sum(params.w_down.data[c, m] * hidden[m] for m in range(d_m))
    npt.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_gated_mlp_shape_validation():
    with pytest.raises(DimensionError):
        ly.GatedMlpParams(
            w_gate=Tensor(np.zeros((4, 3))),
            w_up=Tensor(np.zeros((4, 3))),
            w_down=Tensor(np.zeros((4, 3))),  # must be (3, 4)
        )


# ---------------------------------------------------------------------------
# tied equivalence and energy consistency (verification module drives)


def test_tied_equivalence_sample():
    report = vf.tied_equivalence_check(n_configs=40, seed=11, tolerance=1e-10)
    assert report.passed, report.to_dict()


def test_random_block_is_a_function_of_config_and_seed():
    cfg = vf.full_feature_config().block
    first, again = named_tensors(vf.random_block(cfg, 3)), named_tensors(vf.random_block(cfg, 3))
    assert {k: t.data.tobytes() for k, t in first.items()} == \
        {k: t.data.tobytes() for k, t in again.items()}


def test_random_block_moves_every_tensor_off_its_init():
    cfg = vf.full_feature_config().block
    assert cfg.attn_precond == "diag_lowrank"
    start = named_tensors(md.init_block(cfg, lambda *shape: Tensor(np.zeros(shape))))
    drawn = named_tensors(vf.random_block(cfg, 0))
    # among them the zero K/Q diagonal and v factors, unit gains, zero ALiBi offsets
    assert {"attn.diag", "attn.precond.v", "attn.inner_norm.gain", "attn.alibi.b_self",
            "mlp.precond.v", "mlp_norm.gain", "mlp.eta"} <= set(drawn) == set(start)
    for name, t in drawn.items():
        assert np.all(t.data != start[name].data), name


@pytest.mark.parametrize("kq_diag,rows", [("shared", 1), ("per-head", 3)])
def test_random_block_follows_its_config(kq_diag, rows):
    cfg = md.BlockConfig(d_hidden=6, n_heads=3, d_mlp=8, kq_diag=kq_diag,
                         attn_precond="diag_lowrank", attn_precond_rank=2, learnable_eta=True)
    block = vf.random_block(cfg, 1)
    assert block.attn.diag.shape == (rows, 6)
    assert block.attn.precond.p.shape == (3, 6)  # one preconditioner per head
    assert block.attn.precond.u.shape == block.attn.precond.v.shape == (3, 6, 2)
    assert named_tensors(block)["attn.eta"] is block.attn.eta  # a trained, traced leaf


def test_untied_reference_deviates():
    devs = [vf.untied_deviation(seed) for seed in range(5)]
    assert min(devs) > 1e-3


def test_single_step_is_negative_energy_gradient():
    report = vf.single_step_consistency_check(n_configs=40, seed=7, tolerance=1e-8)
    assert report.passed, report.to_dict()


def test_descent_along_recurrence():
    report = vf.descent_check(n_instances=20, seed=5, steps=8)
    assert report.passed, report.to_dict()


def test_flipped_sign_ascends():
    for seed, kind in [(3, "attention"), (4, "mlp"), (9, "attention"), (10, "mlp")]:
        trace = vf.descent_trace(kind, seed, steps=6, flip_sign=True)
        assert not trace.strictly_decreasing
        # moving against the update direction must raise the energy
        assert trace.energies[-1] > trace.energies[0]


def test_zero_gate_mlp_is_stationary():
    # zero gate projection kills the gradient, so the recurrence must not
    # move and a flat trace counts as converged rather than a failure
    rng = np.random.default_rng(77)
    d_m, d_h = 12, 6
    params = ly.CemMlpParams(
        w=Tensor(np.zeros((d_m, d_h))),
        v=Tensor(rng.normal(size=(d_m, d_h))),
        steps=6,
        eta=0.5,
    )
    x = rng.normal(size=(3, d_h))
    out = ly.cem_mlp(Tensor(x), params).data
    npt.assert_array_equal(out, x)

    spec = vf.elementwise_spec_of(params)
    energies = np.full(7, en.elementwise_energy(x[0], x[0], spec))
    norms = np.zeros(6)
    trace = vf.DescentTrace(energies=energies, eta=0.5, grad_norms=norms)
    assert trace.strictly_decreasing
    assert np.ptp(trace.energies) == 0.0


def test_causality_across_step_counts():
    report = vf.causality_check(n_configs=18, seed=13, tolerance=1e-12)
    assert report.passed, report.to_dict()


def test_one_token_single_head_closed_form():
    # with a single visible token the softmax weight is one, so one plain
    # step moves the state by exactly P Wq^T Wk h
    rng = np.random.default_rng(400)
    d_h, d_r = 6, 3
    wq, wk = rng.normal(size=(d_r, d_h)), rng.normal(size=(d_r, d_h))
    params = ly.CemAttentionParams(
        w_q=Tensor(wq[None]), w_k=Tensor(wk[None]), tau=1.7, steps=1, eta=0.9
    )
    h1 = rng.normal(size=(1, d_h))
    out = ly.cem_attention(Tensor(h1), params).data
    npt.assert_allclose(out[0], h1[0] + 0.9 * (wq.T @ (wk @ h1[0])), rtol=1e-12)


def test_cem_mlp_two_step_hand_unrolled():
    # T=2, norm off, identity preconditioner: x2 by explicit numpy recursion
    rng = np.random.default_rng(500)
    d_h, d_m = 5, 9
    w, v = rng.normal(size=(d_m, d_h)), rng.normal(size=(d_m, d_h))
    eta = 0.3
    params = ly.CemMlpParams(w=Tensor(w), v=Tensor(v), steps=2, eta=eta)
    h = rng.normal(size=(3, d_h))
    got = ly.cem_mlp(Tensor(h), params).data

    def silu_np(z):
        return z / (1.0 + np.exp(-z))

    want = np.zeros_like(h)
    for r in range(3):
        gate = w @ h[r]
        x = h[r].copy()
        for _ in range(2):
            x = x + eta * (v.T @ (gate * silu_np(v @ x)))
        want[r] = x
    npt.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_cem_attention_multistep_refreshes_queries_not_keys():
    # after one step the state changes, so step two must read different
    # logits while keys/values stay frozen: verify T=2 equals manually
    # chaining one-step calls with the first output substituted as state
    rng = np.random.default_rng(600)
    d_h, d_r, j = 6, 3, 4
    wq, wk = rng.normal(size=(d_r, d_h)), rng.normal(size=(d_r, d_h))
    eta = 0.2
    h = rng.normal(size=(j, d_h))
    two = ly.CemAttentionParams(
        w_q=Tensor(wq[None]), w_k=Tensor(wk[None]), tau=1.0, steps=2, eta=eta
    )
    got = ly.cem_attention(Tensor(h), two).data

    mask = np.triu(np.full((j, j), -np.inf), k=1)
    kv = h @ wk.T
    x = h.copy()
    for _ in range(2):
        q = x @ wq.T
        logits = q @ kv.T + mask
        z = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = z / z.sum(axis=-1, keepdims=True)
        x = x + eta * (p @ kv) @ wq
    npt.assert_allclose(got, x, rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# preconditioners


def test_preconditioner_apply_matches_materialized():
    rng = np.random.default_rng(700)
    for kind in ("diagonal", "diag_lowrank"):
        for _ in range(10):
            d = int(rng.integers(3, 10))
            pc = random_precond(d, kind, int(rng.integers(0, 2**31)))
            g = rng.normal(size=(4, d))
            got = ly.apply_preconditioner(Tensor(g), pc).data
            want = g @ ly.materialize_preconditioner(pc).T
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_preconditioner_materialized_symmetric():
    pc = random_precond(8, "diag_lowrank", 701)
    mat = ly.materialize_preconditioner(pc)
    npt.assert_allclose(mat, mat.T, rtol=0, atol=0)


def test_preconditioner_init_diagonal_near_softplus_one():
    from energyformer.model import _init_precond

    rng = np.random.default_rng(703)
    pc = _init_precond("diag_lowrank", (), 16, 4, lambda *shape: Tensor(rng.normal(size=shape)))
    mat = ly.materialize_preconditioner(pc)
    # v starts at zero, so the map starts diagonal at softplus(1)
    npt.assert_allclose(np.diag(mat), np.full(16, np.logaddexp(0.0, 1.0)), rtol=1e-12)
    npt.assert_allclose(mat - np.diag(np.diag(mat)), np.zeros((16, 16)), atol=0)


def test_preconditioner_low_rank_factors_come_in_pairs():
    rng = np.random.default_rng(704)
    p, u = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=(4, 2)))
    for kwargs in ({"u": u}, {"v": u}, {"u": u, "v": Tensor(np.zeros((4, 3)))}):
        with pytest.raises(DimensionError):
            ly.PreconditionerParams(p=p, **kwargs)
    with pytest.raises(DimensionError):
        ly.PreconditionerParams(p=Tensor(np.zeros(())))
    # given factors are always applied
    pc = ly.PreconditionerParams(p=p, u=u, v=Tensor(rng.normal(size=(4, 2))))
    g = rng.normal(size=(3, 4))
    npt.assert_allclose(ly.apply_preconditioner(Tensor(g), pc).data,
                        g @ ly.materialize_preconditioner(pc), rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(("diagonal", "diag_lowrank")),
    lead=st.sampled_from(((), (2,), (2, 3))),
)
def test_stacked_preconditioner_acts_per_head(seed, kind, lead):
    # a (K, dim) stack on (..., K, rows, dim): each head's slice is exactly
    # the fold of that slice with that head's factors, and the gradients
    # for g, p, u and v match finite differences
    rng = np.random.default_rng(seed)
    k, rows, d = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
    cfg = md.BlockConfig(d_hidden=d, n_heads=k, d_head=2, d_mlp=8, attn_precond=kind,
                         attn_precond_rank=2)
    pc = vf.random_block(cfg, seed).attn.precond
    factors = named_tensors(pc)  # p, and u and v for diag_lowrank
    g0 = rng.normal(size=lead + (k, rows, d))
    c = rng.normal(size=g0.shape)
    g = Tensor(g0)
    with Tape() as tape:
        tape.watch(g, *factors.values())
        out = ly.apply_preconditioner(g, pc)
        grads = tape.backward(tt.tsum(tt.mul(out, Tensor(c))))
    for i in range(k):
        one = ly.PreconditionerParams(**{n: Tensor(t.data[i]) for n, t in factors.items()})
        want = ly.apply_preconditioner(Tensor(g0[..., i, :, :]), one).data
        assert np.array_equal(out.data[..., i, :, :], want)
    dense = ly.materialize_preconditioner(pc)
    assert dense.shape == (k, d, d)
    npt.assert_allclose(out.data, g0 @ dense, rtol=0, atol=1e-12)

    def loss(g_data, name=None, value=None):
        params = ly.PreconditionerParams(
            **{n: Tensor(value if n == name else t.data) for n, t in factors.items()}
        )
        return float(np.sum(ly.apply_preconditioner(Tensor(g_data), params).data * c))

    assert rel_error(vf.finite_diff_grad(loss, g0), grads[g].data) <= 1e-5
    for name, t in factors.items():
        fd = vf.finite_diff_grad(lambda a, name=name: loss(g0, name, a), t.data)
        assert rel_error(fd, grads[t].data) <= 1e-5, name


def test_preconditioner_dim_mismatch():
    pc = random_precond(4, "diagonal", 0)
    with pytest.raises(DimensionError):
        ly.apply_preconditioner(Tensor(np.zeros((2, 5))), pc)
    # a stack of 3 needs its rows under a head axis of 3
    stack = ly.PreconditionerParams(p=Tensor(np.zeros((3, 4))))
    for rows in ((2, 2, 4), (3, 4)):
        with pytest.raises(DimensionError):
            ly.apply_preconditioner(Tensor(np.zeros(rows)), stack)


# ---------------------------------------------------------------------------
# batching and full-feature gradient checks


def test_cem_attention_batched_equals_stacked():
    params = features_on(820).attn
    d_h = params.w_q.shape[2]
    rng = np.random.default_rng(821)
    hb = rng.normal(size=(3, 5, d_h))
    batched = ly.cem_attention(Tensor(hb), params).data
    for b in range(3):
        single = ly.cem_attention(Tensor(hb[b]), params).data
        npt.assert_allclose(batched[b], single, rtol=0, atol=1e-12)


def test_cem_mlp_batched_equals_stacked():
    params = features_on(830).mlp
    d_h = params.w.shape[1]
    rng = np.random.default_rng(831)
    hb = rng.normal(size=(2, 4, d_h))
    batched = ly.cem_mlp(Tensor(hb), params).data
    for b in range(2):
        npt.assert_allclose(
            batched[b], ly.cem_mlp(Tensor(hb[b]), params).data, rtol=0, atol=1e-12
        )


def layer_param_fd_check(layer_fn, params, h, seed, tol=1e-5, n_dirs=2):
    """Directional FD against tape gradients for every tensor in params."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=layer_fn(Tensor(h), params).shape)
    tensors = named_tensors(params)
    tensors["input_h"] = ht = Tensor(h)

    with Tape() as tape:
        tape.watch(*tensors.values())
        out = layer_fn(ht, params)
        loss = tt.tsum(tt.mul(out, Tensor(c)))
    grads = tape.backward(loss)

    def eval_loss():
        # reads the current .data of every tensor, including the input
        return float(np.sum(layer_fn(ht, params).data * c))

    worst = 0.0
    for name, t in tensors.items():
        g = grads[t].data
        for _ in range(n_dirs):
            v = rng.normal(size=t.data.shape)
            step = 1e-5
            keep = t.data.copy()
            t.data = keep + step * v
            fp = eval_loss()
            t.data = keep - step * v
            fm = eval_loss()
            t.data = keep
            fd = (fp - fm) / (2 * step)
            an = float(np.sum(g * v))
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
            worst = max(worst, err)
            assert err <= tol, f"{name}: fd {fd} vs analytic {an}"
    return worst


def test_full_feature_cem_attention_param_grads():
    # learnable step size joins the check
    params = features_on(900, learnable_eta=True, attn_eta=0.8).attn
    d_h = params.w_q.shape[2]
    h = np.random.default_rng(901).normal(size=(5, d_h))
    layer_param_fd_check(ly.cem_attention, params, h, seed=902)


def test_full_feature_cem_mlp_param_grads():
    params = features_on(910, learnable_eta=True, mlp_eta=1.1).mlp
    d_h = params.w.shape[1]
    h = np.random.default_rng(911).normal(size=(4, d_h))
    layer_param_fd_check(ly.cem_mlp, params, h, seed=912)


def test_reference_layers_param_grads():
    cfg, _ = vf.random_config(920)
    ref = vf.tied_reference_block(vf.random_block(cfg, 920), cfg).attn
    d_h = ref.w_q.shape[2]
    h = np.random.default_rng(921).normal(size=(4, d_h))
    layer_param_fd_check(ly.reference_mha, ref, h, seed=922)

    rng = np.random.default_rng(923)
    cfg = md.BlockConfig(d_hidden=5, d_mlp=8, attention="none", mlp="gated")
    gated = vf.random_block(cfg, 923).mlp
    layer_param_fd_check(ly.reference_gated_mlp, gated, rng.normal(size=(3, 5)), seed=924)


# ---------------------------------------------------------------------------
# positional bias


def test_alibi_slopes_geometric():
    npt.assert_allclose(en.alibi_slopes(4), [0.5, 0.25, 0.125, 0.0625], rtol=0)


def test_alibi_layer_matrix_matches_energy_row():
    slopes = en.alibi_slopes(2)
    lp = ly.AlibiParams(slopes=slopes, b_self=Tensor(0.3), b_cross=Tensor(-0.2))
    es = en.AlibiSpec(slopes=slopes, b_self=0.3, b_cross=-0.2)
    n = 5
    mats = lp.bias_matrix(n).data
    assert mats.shape == (2, n, n)
    for k in range(2):
        mat = mats[k]
        for i in range(n):
            # energy row for query i+1 over context 1..i+1
            row = es.bias_row(i + 1, i + 1, k)
            npt.assert_allclose(mat[i, : i + 1], row, rtol=0, atol=1e-15)


def test_alibi_diagonal_gets_self_offset():
    lp = ly.AlibiParams(slopes=np.array([0.5]), b_self=Tensor(1.0), b_cross=Tensor(0.0))
    mat = lp.bias_matrix(3).data[0]
    npt.assert_allclose(np.diag(mat), np.ones(3))
    assert mat[1, 0] == pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# config validation at the layer level


def test_layer_param_validation():
    t = Tensor(np.zeros((1, 2, 4)))
    t2 = Tensor(np.zeros((2, 2, 4)))
    with pytest.raises(DomainError):
        ly.CemAttentionParams(w_q=t, w_k=t, tau=-1.0)
    with pytest.raises(DomainError):
        ly.CemAttentionParams(w_q=t, w_k=t, tau=1.0, steps=0)
    with pytest.raises(DimensionError):
        ly.CemAttentionParams(w_q=t, w_k=t2, tau=1.0)
    with pytest.raises(DimensionError):
        ly.CemAttentionParams(
            w_q=t2, w_k=t2, tau=1.0,
            precond=random_precond(4, "diagonal", 0),  # one, not a stack of two
        )
    with pytest.raises(DimensionError):
        ly.CemMlpParams(w=Tensor(np.zeros((3, 4))), v=Tensor(np.zeros((4, 3))))
