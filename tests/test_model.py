"""Model assembly: counting identities, hand-derived FLOP totals,
checkpoint round trips, and full-stack equivalence/backward checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import composed_reference as ref
from energyformer import layers, serialize, verify
from energyformer.layers import QUERY_TILE
from energyformer.model import (
    BlockConfig,
    ConfigError,
    ModelConfig,
    build_model,
    count_flops,
    count_parameters,
    count_parameters_config,
    cross_entropy,
    forward,
    is_core,
    load_checkpoint,
    mse,
    named_parameters,
    parameter_group,
    preset,
    save_checkpoint,
    skeleton,
)
from energyformer.tensor import DimensionError, DomainError, Tape, Tensor, mul

# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_validate():
    ModelConfig().validate()


BAD_MODEL_KWARGS = [
    {"n_layers": 0},
    {"reuse": 0},
    {"kind": "vae"},
    {"kind": "lm", "vocab_size": 1},
    {"kind": "regressor", "in_dim": 0},
    {"out_dim": 0},
]

BAD_BLOCK_KWARGS = [
    {"d_hidden": 0},
    {"attention": "flash"},
    {"mlp": "moe"},
    {"attn_steps": 0},
    {"mlp_steps": 0},
    {"kq_diag": "full"},
    {"attn_precond": "newton"},
    {"mlp_precond": "kfac"},
    {"attn_precond": "diag_lowrank", "attn_precond_rank": 0},
    {"mlp_precond": "diag_lowrank", "mlp_precond_rank": 0},
    {"temperature": 0.0},
    {"temperature": -2.0},
    {"n_heads": 0, "attention": "reference"},
    {"d_hidden": 8, "n_heads": 16},  # d_head resolves to 0
    {"d_mlp": 0},
    {"temperature": float("nan")},
    {"temperature": float("inf")},
    {"attn_eta": float("nan")},
    {"attn_eta": float("-inf")},
    {"mlp_eta": float("inf")},
    {"mlp_eta": float("nan")},
]


@pytest.mark.parametrize("kwargs", BAD_MODEL_KWARGS)
def test_bad_model_config_rejected(kwargs):
    with pytest.raises(ConfigError):
        ModelConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", BAD_BLOCK_KWARGS)
def test_bad_block_config_rejected(kwargs):
    with pytest.raises(ConfigError):
        ModelConfig(block=BlockConfig(**kwargs)).validate()


def test_negative_eta_stays_legal():
    # only finiteness is checked: a negative step size is a valid config
    ModelConfig(block=BlockConfig(attn_eta=-0.5, mlp_eta=-2.0)).validate()


def test_config_dict_round_trip():
    cfg = ModelConfig(
        kind="regressor",
        in_dim=7,
        out_dim=3,
        n_layers=4,
        reuse=2,
        final_norm=False,
        block=BlockConfig(
            d_hidden=24,
            n_heads=3,
            d_mlp=48,
            attention="cem",
            mlp="cem",
            attn_steps=3,
            kq_diag="per-head",
            attn_precond="diag_lowrank",
            alibi=True,
            temperature=2.5,
        ),
    )
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"flavor": "mint"})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"block": {"width": 3}})


def test_config_dict_validates_values():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"n_layers": 0})


@pytest.mark.parametrize("payload", [
    [],
    [["kind", "lm"]],
    {"block": 5},
    {"block": []},
    {"block": {"d_hidden": "x"}},
    {"block": {"d_mlp": 2.5}},
    {"block": {"alibi": "yes"}},
    {"block": {"d_head": True}},
    {"block": {"temperature": "x"}},
    {"n_layers": None},
    {"final_norm": 1},
])
def test_config_dict_rejects_wrongly_typed_input(payload):
    # a checkpoint header feeds from_dict: bad types fail typed, not as
    # a bare TypeError here or a late failure when the model is built
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(payload)


def test_temperature_defaults_to_sqrt_head_dim():
    b = BlockConfig(d_hidden=32, n_heads=2)
    assert b.resolved_d_head() == 16
    assert b.resolved_temperature() == pytest.approx(4.0)
    assert BlockConfig(temperature=1.5).resolved_temperature() == 1.5


# ---------------------------------------------------------------------------
# parameter naming and counting


def test_parameter_group_paths():
    assert parameter_group("blocks.0.attn.w_q") == "attention"
    assert parameter_group("blocks.0.attn.diag") == "attention"
    assert parameter_group("blocks.0.attn.eta") == "attention"
    assert parameter_group("blocks.0.attn.alibi.b_self") == "attention"
    assert parameter_group("blocks.0.attn.precond.u") == "preconditioners"
    assert parameter_group("blocks.0.mlp.precond.p") == "preconditioners"
    assert parameter_group("blocks.0.attn.inner_norm.gain") == "norms"
    assert parameter_group("blocks.0.attn_norm.gain") == "norms"
    assert parameter_group("final_norm.gain") == "norms"
    assert parameter_group("blocks.0.mlp.v") == "mlp"
    assert parameter_group("embed") == "embedding"
    assert parameter_group("lift_w") == "embedding"
    assert parameter_group("head_b") == "head"


def test_is_core_paths():
    assert is_core("blocks.0.attn.w_q")
    assert is_core("blocks.2.attn.w_v")
    assert is_core("blocks.0.mlp.w")
    assert is_core("blocks.0.mlp.v")
    assert is_core("blocks.0.mlp.w_down")
    assert not is_core("blocks.0.attn.eta")
    assert not is_core("blocks.0.attn.diag")
    assert not is_core("blocks.0.attn.w_q.0")  # per-head names are gone
    assert not is_core("blocks.0.attn.alibi.b_self")
    assert not is_core("blocks.0.attn.precond.v")
    assert not is_core("blocks.0.attn.inner_norm.gain")


def test_named_parameters_excludes_config_and_sees_eta():
    model = build_model(verify.full_feature_config(), seed=0)
    names = set(named_parameters(model))
    assert not any(n.startswith("config") for n in names)
    assert "blocks.0.attn.eta" in names
    assert "blocks.1.mlp.eta" in names
    assert "embed" in names and "head_w" in names


COUNT_SWEEP = [
    ModelConfig(),
    ModelConfig(block=BlockConfig(attention="reference", mlp="gated")),
    ModelConfig(
        kind="regressor",
        final_norm=False,
        block=BlockConfig(d_hidden=8, n_heads=2, d_mlp=16, attention="reference", mlp="plain"),
    ),
    ModelConfig(
        kind="regressor",
        in_dim=3,
        out_dim=2,
        block=BlockConfig(d_hidden=8, d_mlp=16, attention="none", mlp="gated"),
    ),
    ModelConfig(
        n_layers=3,
        block=BlockConfig(
            d_hidden=8,
            n_heads=2,
            d_mlp=16,
            kq_diag="per-head",
            attn_precond="diagonal",
            mlp_precond="diagonal",
            alibi=True,
        ),
    ),
    ModelConfig(
        block=BlockConfig(
            d_hidden=16,
            n_heads=4,
            d_mlp=32,
            attn_steps=3,
            mlp_steps=2,
            kq_diag="shared",
            attn_precond="diag_lowrank",
            attn_precond_rank=2,
            mlp_precond="diag_lowrank",
            mlp_precond_rank=5,
            learnable_eta=True,
            alibi=True,
        ),
    ),
    ModelConfig(block=BlockConfig(attention="reference", mlp="gated", alibi=True)),
    ModelConfig(
        block=BlockConfig(d_hidden=8, n_heads=2, d_head=5, d_mlp=16, mlp="gated"),
    ),
    ModelConfig(
        block=BlockConfig(
            d_hidden=8,
            d_mlp=16,
            attention="none",
            mlp="cem",
            mlp_precond="diag_lowrank",
            mlp_precond_rank=1,
            inner_norm=False,
        ),
    ),
    ModelConfig(reuse=3, block=BlockConfig(d_hidden=8, n_heads=2, d_mlp=16)),
]


@pytest.mark.parametrize("idx", range(len(COUNT_SWEEP)))
def test_walked_count_equals_closed_form(idx):
    cfg = COUNT_SWEEP[idx]
    walked = count_parameters(build_model(cfg, seed=idx))
    assert walked["other"] == 0
    assert walked == count_parameters_config(cfg)


@pytest.mark.parametrize("idx", range(len(COUNT_SWEEP)))
def test_skeleton_has_the_built_names_and_shapes(idx):
    cfg = COUNT_SWEEP[idx]
    built = named_parameters(build_model(cfg, seed=idx))
    bare = named_parameters(skeleton(cfg))
    assert [(k, t.shape) for k, t in bare.items()] == [(k, t.shape) for k, t in built.items()]


def test_counting_a_large_preset_allocates_no_weights():
    # cem-162m's 122M weights would take about 1 GB as float64; its
    # skeleton stores only the O(d_hidden) gains and preconditioner factors
    cfg = preset("cem-162m")
    tracemalloc.start()
    try:
        total = count_parameters_config(cfg)["total"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total > 1e8
    assert peak < 16e6


def test_parameter_count_hand_derived():
    # lm, vocab 11, 2 layers, width 8, 2 heads of dim 4, mlp width 16,
    # both sublayers recurrent with every optional part switched on
    cfg = ModelConfig(
        kind="lm",
        vocab_size=11,
        n_layers=2,
        block=BlockConfig(
            d_hidden=8,
            n_heads=2,
            d_mlp=16,
            kq_diag="shared",
            attn_precond="diag_lowrank",
            attn_precond_rank=2,
            mlp_precond="diag_lowrank",
            mlp_precond_rank=4,
            learnable_eta=True,
            alibi=True,
        ),
    )
    embed = 11 * 8                              # 88
    attn_core = 2 * 2 * (4 * 8)                 # two stacks of 2 head mats
    attn = attn_core + 8 + 2 + 1                # + diagonal, alibi pair, eta
    mlp_core = 2 * 16 * 8
    mlp = mlp_core + 1                          # + eta
    precond = 2 * (8 + 2 * 8 * 2) + (8 + 2 * 8 * 4)   # per block: 80 + 72
    norms = 2 * (8 + 8 + 8 + 8) + 8             # four gains per block + final
    head = 11 * 8
    expected = {
        "embedding": embed,
        "attention": 2 * attn,
        "attention_core": 2 * attn_core,
        "mlp": 2 * mlp,
        "mlp_core": 2 * mlp_core,
        "norms": norms,
        "preconditioners": 2 * precond,
        "head": head,
        "other": 0,
        "total": embed + 2 * attn + 2 * mlp + norms + 2 * precond + head,
    }
    assert expected["total"] == 1344
    assert count_parameters_config(cfg) == expected
    assert count_parameters(build_model(cfg, seed=3)) == expected


def test_core_param_ratios_are_exact():
    # same dims, recurrent vs reference: attention core halves, mlp core
    # drops to two thirds
    dims = dict(d_hidden=24, n_heads=4, d_mlp=60)
    cem = ModelConfig(block=BlockConfig(attention="cem", mlp="cem", **dims))
    ref = ModelConfig(block=BlockConfig(attention="reference", mlp="gated", **dims))
    c, r = count_parameters_config(cem), count_parameters_config(ref)
    assert 2 * c["attention_core"] == r["attention_core"]
    assert 3 * c["mlp_core"] == 2 * r["mlp_core"]


def test_reuse_scales_flops_not_params():
    base = ModelConfig(block=BlockConfig(d_hidden=8, n_heads=2, d_mlp=16))
    twice = dataclasses.replace(base, reuse=2)
    assert count_parameters_config(base) == count_parameters_config(twice)
    f1, f2 = count_flops(base, 8), count_flops(twice, 8)
    assert f2["attention"] == 2 * f1["attention"]
    assert f2["mlp"] == 2 * f1["mlp"]
    final = 8 * (4 * 8 + 2)
    assert f2["norms"] - final == 2 * (f1["norms"] - final)


# ---------------------------------------------------------------------------
# FLOP accounting: frozen hand derivations, then structure


def test_flops_mlp_only_regressor_hand_derived():
    # width 8, mlp width 16, one block, gated mlp, no attention, 4 rows.
    # lift: 2*4*8*10 matmul + 4*8 bias adds.
    # gated mlp: three 8x16 matmuls on 4 rows, silu + gate product on the
    # hidden rows, one residual add.
    # norms: the mlp entry norm and the final norm, 4 rows of width 8.
    # head: 2*4*8*1 matmul + 4 bias adds.
    cfg = ModelConfig(
        kind="regressor",
        in_dim=10,
        out_dim=1,
        n_layers=1,
        block=BlockConfig(d_hidden=8, d_mlp=16, attention="none", mlp="gated"),
    )
    rms = 4 * (4 * 8 + 2)
    expected = {
        "embedding": 2 * 4 * 8 * 10 + 4 * 8,
        "attention": 0,
        "mlp": 6 * 4 * 16 * 8 + 3 * 4 * 16 + 4 * 8,
        "norms": 2 * rms,
        "head": 2 * 4 * 8 * 1 + 4 * 1,
        "total": 4308,
        "per_token": 1077,
        "precond_per_call": 0,
    }
    assert sum(expected[k] for k in ("embedding", "attention", "mlp", "norms", "head")) == 4308
    assert count_flops(cfg, seq_len=4) == expected


def test_flops_reference_lm_hand_derived():
    # width 8, 2 heads of dim 4, mlp width 16, 2 layers, vocab 11, 4 tokens.
    # causal pairs: 4*5/2 = 10.
    cfg = ModelConfig(
        kind="lm",
        vocab_size=11,
        n_layers=2,
        block=BlockConfig(
            d_hidden=8, n_heads=2, d_mlp=16, attention="reference", mlp="gated"
        ),
    )
    pairs = 10
    rms = 4 * (4 * 8 + 2)
    per_head = (
        3 * 2 * 4 * 4 * 8    # q, k, v projections
        + 2 * pairs * 4      # logit products
        + pairs              # temperature scale
        + 4 * pairs          # softmax
        + 2 * pairs * 4      # value mix
        + 2 * 4 * 4 * 8      # output projection
    )
    assert per_head == 1234
    attn = 2 * per_head + 1 * 4 * 8 + 4 * 8     # head sum, residual add
    mlp = 6 * 4 * 16 * 8 + 3 * 4 * 16 + 4 * 8
    expected = {
        "embedding": 0,
        "attention": 2 * attn,
        "mlp": 2 * mlp,
        "norms": 2 * 2 * rms + rms,
        "head": 2 * 4 * 8 * 11,
        "total": 13040,
        "per_token": 3260,
        "precond_per_call": 0,
    }
    assert 2 * attn + 2 * mlp + 5 * rms + 704 == 13040
    assert count_flops(cfg, seq_len=4) == expected


def test_flops_recurrent_lm_hand_derived():
    # same dims, both sublayers recurrent at two steps each, shared
    # key-query diagonal, alibi, diag plus rank-2/rank-4 preconditioners,
    # inner norms on. 4 tokens, 10 causal pairs. The preconditioners are
    # folded into weight rows once per call, outside the per-token terms.
    cfg = ModelConfig(
        kind="lm",
        vocab_size=11,
        n_layers=1,
        block=BlockConfig(
            d_hidden=8,
            n_heads=2,
            d_mlp=16,
            attn_steps=2,
            mlp_steps=2,
            kq_diag="shared",
            attn_precond="diag_lowrank",
            attn_precond_rank=2,
            mlp_precond="diag_lowrank",
            mlp_precond_rank=4,
            alibi=True,
            inner_norm=True,
        ),
    )
    pairs = 10
    rms = 4 * (4 * 8 + 2)
    kv = 2 * 2 * 4 * 4 * 8          # tied context projections, both heads, once
    diag_shared = 4 * 8 + 2 * pairs * 8
    per_head = (
        2 * 4 * 4 * 8               # query projection
        + 2 * pairs * 4             # logit products
        + pairs                     # temperature scale
        + pairs                     # alibi bias
        + 4 * pairs                 # softmax
        + 2 * pairs * 4             # mix
        + 2 * 4 * 4 * 8             # output-side projection
        + pairs                     # diagonal logit term
    )
    assert per_head == 742
    per_step = rms + diag_shared + 2 * per_head + 1 * 4 * 8 + 2 * 4 * 8
    assert per_step == 1908
    attn = kv + 2 * per_step + 2 * 4 * 8        # + displacement wiring
    assert attn == 4392
    gate = 2 * 4 * 16 * 8
    m_step = (
        rms
        + 2 * 4 * 8 * 16            # up
        + 2 * 4 * 16                # silu
        + 4 * 16                    # gate product
        + 2 * 4 * 16 * 8            # down
        + 2 * 4 * 8                 # step scale + state add
    )
    assert m_step == 2440
    mlp = gate + 2 * m_step + 2 * 4 * 8
    assert mlp == 5968
    # per call, on rows of width 8: softplus(scale p) (2*8), the diagonal
    # scale (rows*8), (g u) v^T and (g v) u^T (four products, 8*rows*8*rank)
    # and their two adds (2*rows*8)
    heads_fold = 2 * (2 * 8 + 4 * 8 + 8 * 4 * 8 * 2 + 2 * 4 * 8)  # 2 heads of 4 rows
    mlp_fold = 2 * 8 + 16 * 8 + 8 * 16 * 8 * 4 + 2 * 16 * 8       # 16 rows
    assert heads_fold + mlp_fold == 5744
    expected = {
        "embedding": 0,
        "attention": attn,
        "mlp": mlp,
        "norms": 2 * rms + rms,
        "head": 2 * 4 * 8 * 11,
        "total": 11472,
        "per_token": 2868,
        "precond_per_call": 5744,
    }
    assert count_flops(cfg, seq_len=4) == expected


def test_flops_linear_in_step_count():
    def with_steps(t_a, t_m):
        return ModelConfig(
            block=BlockConfig(
                d_hidden=16, n_heads=2, d_mlp=32, attn_steps=t_a, mlp_steps=t_m
            )
        )

    totals = [count_flops(with_steps(t, t), 8)["total"] for t in (1, 2, 3)]
    assert totals[1] - totals[0] == totals[2] - totals[1]
    # the attention delta is one in-loop pass, independent of the mlp
    a = [count_flops(with_steps(t, 1), 8)["attention"] for t in (1, 2, 3)]
    assert a[1] - a[0] == a[2] - a[1] > 0


def test_flops_extra_machinery_costs_more():
    base = dict(d_hidden=16, n_heads=2, d_mlp=32)
    plain = count_flops(ModelConfig(block=BlockConfig(**base)), 8)["total"]
    kit = count_flops(
        ModelConfig(
            block=BlockConfig(
                kq_diag="shared",
                attn_precond="diag_lowrank",
                mlp_precond="diagonal",
                alibi=True,
                **base,
            )
        ),
        8,
    )["total"]
    assert kit > plain


FOLDING = dict(
    d_hidden=8, n_heads=2, d_mlp=16, attn_precond="diag_lowrank", attn_precond_rank=2,
    mlp_precond="diagonal", inner_norm=True, alibi=True, kq_diag="shared",
)


def test_flops_per_sequence_leave_the_folds_out():
    identity = BlockConfig(**{**FOLDING, "attn_precond": "identity", "mlp_precond": "identity"})
    plain, folded = (count_flops(ModelConfig(block=b), 8) for b in (identity, BlockConfig(**FOLDING)))
    assert plain["precond_per_call"] == 0 < folded["precond_per_call"]
    del plain["precond_per_call"], folded["precond_per_call"]
    assert plain == folded


@pytest.mark.parametrize("batch", [1, 3])
def test_flops_fold_count_matches_the_rows_precondition_sees(batch, monkeypatch):
    # each apply_preconditioner call's cost from its own shapes, per head
    # of a stack, under count_flops' convention: softplus(scale p) (2d),
    # the diagonal scale (rows d) and, with low-rank factors, (g u) v^T +
    # (g v) u^T (8 rows d rank) and its two adds (2 rows d)
    tally = []

    def counted(g, params, _fn=layers.apply_preconditioner):
        *heads, rows, d = g.shape
        low_rank = 0 if params.u is None else 8 * rows * d * params.u.shape[-1] + 2 * rows * d
        tally.append(int(np.prod(heads)) * (2 * d + rows * d + low_rank))
        return _fn(g, params)

    monkeypatch.setattr(layers, "apply_preconditioner", counted)
    cfg = ModelConfig(kind="lm", vocab_size=11, n_layers=2, reuse=2, block=BlockConfig(**FOLDING))
    model = build_model(cfg, seed=0)
    forward(model, np.random.default_rng(0).integers(0, 11, size=(batch, 5)))
    assert len(tally) == 2 * 2 * 2  # layer calls x (the head stack + the MLP)
    assert sum(tally) == count_flops(cfg, 5)["precond_per_call"]


# ---------------------------------------------------------------------------
# presets


@pytest.mark.parametrize(
    "name,nominal",
    [
        ("ref-86m", 86e6),
        ("ref-108m", 108e6),
        ("ref-134m", 134e6),
        ("ref-162m", 162e6),
    ],
)
def test_reference_presets_match_nameplate(name, nominal):
    total = count_parameters_config(preset(name))["total"]
    assert abs(total - nominal) / nominal < 0.01


@pytest.mark.parametrize("size", ["86m", "108m", "134m", "162m"])
def test_recurrent_presets_shrink_cores(size):
    c = count_parameters_config(preset(f"cem-{size}"))
    r = count_parameters_config(preset(f"ref-{size}"))
    assert 2 * c["attention_core"] == r["attention_core"]
    assert 3 * c["mlp_core"] == 2 * r["mlp_core"]
    assert c["total"] < r["total"]


def test_smoke_preset_builds():
    cfg = preset("lm-smoke")
    cfg.validate()
    model = build_model(cfg, seed=0)
    out = forward(model, np.arange(6)[None, :])
    assert out.shape == (1, 6, cfg.vocab_size)
    assert np.all(np.isfinite(out.data))


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("colossus")


@pytest.mark.parametrize("name", [5, None, ["lm-smoke"]])
def test_non_string_preset_rejected(name):
    with pytest.raises(ConfigError):
        preset(name)


# ---------------------------------------------------------------------------
# forward, losses


def test_forward_shapes_lm():
    cfg = ModelConfig(
        vocab_size=19,
        n_layers=2,
        block=BlockConfig(d_hidden=16, n_heads=2, d_mlp=32),
    )
    model = build_model(cfg, seed=0)
    batched = forward(model, np.array([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]))
    assert batched.shape == (2, 5, 19)
    flat = forward(model, np.array([3, 1, 2]))
    assert flat.shape == (3, 19)
    # batching must not change per-sequence results
    row = forward(model, np.array([1, 2, 3, 4, 5]))
    assert np.max(np.abs(batched.data[0] - row.data)) < 1e-12


def test_forward_shapes_regressor():
    cfg = ModelConfig(
        kind="regressor",
        in_dim=10,
        out_dim=2,
        block=BlockConfig(d_hidden=16, d_mlp=32, attention="none"),
    )
    model = build_model(cfg, seed=1)
    out = forward(model, np.random.default_rng(0).normal(size=(7, 10)))
    assert out.shape == (7, 2)
    assert np.all(np.isfinite(out.data))


def test_build_model_is_deterministic():
    cfg = verify.full_feature_config()
    a = named_parameters(build_model(cfg, seed=5))
    b = named_parameters(build_model(cfg, seed=5))
    c = named_parameters(build_model(cfg, seed=6))
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, 5, 7)) * 3.0
    targets = rng.integers(0, 7, size=(2, 5))
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    expected = float(np.mean(logsumexp(logits, axis=-1) - picked))
    got = cross_entropy(Tensor(logits), targets).item()
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 4, 11))
    targets = np.zeros((3, 4), dtype=np.int64)
    assert cross_entropy(Tensor(logits), targets).item() == pytest.approx(np.log(11))


def test_cross_entropy_extreme_logits_stable():
    logits = np.array([[1000.0, -1000.0, 0.0]])
    loss = cross_entropy(Tensor(logits), np.array([0])).item()
    assert np.isfinite(loss) and 0.0 <= loss < 1e-6


def _loss_and_grad(loss_fn, logits, targets, weight):
    t = Tensor(logits)
    with Tape() as tape:
        tape.watch(t)
        root = mul(loss_fn(t, targets), weight)
    return root.item(), tape.backward(root)[t].data


def _assert_matches_composed(logits, targets, weight=1.0):
    loss, grad = _loss_and_grad(cross_entropy, logits, targets, weight)
    want_loss, want_grad = _loss_and_grad(ref.cross_entropy, logits, targets, weight)
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    assert grad.shape == logits.shape
    assert np.max(np.abs(grad - want_grad), initial=0.0) <= 1e-10 * max(
        1.0, np.max(np.abs(want_grad), initial=0.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    lead=st.lists(st.integers(1, 4), max_size=3).map(tuple),
    vocab=st.integers(1, 12),
    scale=st.sampled_from((0.1, 3.0, 50.0)),
    weight=st.sampled_from((1.0, -2.5)),
)
def test_cross_entropy_matches_composed(seed, lead, vocab, scale, weight):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=lead + (vocab,))
    targets = rng.integers(0, vocab, size=lead)
    _assert_matches_composed(logits, targets, weight)


@pytest.mark.parametrize("logits,targets", [
    ([[1000.0, -1000.0, 0.0]], [0]),
    ([[1000.0, -1000.0, 0.0]], [1]),
    ([[-1000.0, -1000.0, -1000.0]], [2]),
    ([[1e300, 0.0], [0.0, -1e300]], [1, 0]),
])
def test_cross_entropy_extreme_logits_match_composed(logits, targets):
    _assert_matches_composed(np.array(logits), np.array(targets))


def test_cross_entropy_backward_twice_is_identical():
    rng = np.random.default_rng(3)
    t = Tensor(rng.normal(size=(2, 5, 7)))
    logits = t.data.copy()
    with Tape() as tape:
        tape.watch(t)
        loss = mul(cross_entropy(t, rng.integers(0, 7, size=(2, 5))), 3.0)
    first = tape.backward(loss)[t].data.copy()
    second = tape.backward(loss)[t].data
    assert first.tobytes() == second.tobytes()
    assert t.data.tobytes() == logits.tobytes()


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        cross_entropy(logits, np.array([0, 1, 2]))
    with pytest.raises(DomainError):
        cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(DomainError):
        cross_entropy(logits, np.array([-1, 0]))


def test_mse_hand_value():
    pred = Tensor(np.array([[1.0], [3.0]]))
    assert mse(pred, np.zeros((2, 1))).item() == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# checkpoints


def _randomized_model(cfg, seed):
    model = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for t in named_parameters(model).values():
        t.data = rng.normal(size=t.data.shape)
    return model


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = verify.full_feature_config()
    model = _randomized_model(cfg, 7)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.config == cfg
    saved = named_parameters(model)
    loaded = named_parameters(again)
    assert set(saved) == set(loaded)
    for name in saved:
        assert saved[name].data.tobytes() == loaded[name].data.tobytes(), name


def test_load_checkpoint_draws_no_weights(tmp_path, monkeypatch):
    cfg = verify.full_feature_config()
    model = _randomized_model(cfg, 5)
    save_checkpoint(model, tmp_path / "model.bin")

    def no_generators(*args, **kwargs):
        raise AssertionError("load_checkpoint asked for a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generators)
    again = load_checkpoint(tmp_path / "model.bin")
    loaded = named_parameters(again)
    for name, t in named_parameters(model).items():
        assert loaded[name].data.flags.writeable, name  # no placeholder survives
        assert loaded[name].data.tobytes() == t.data.tobytes(), name


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    cfg = ModelConfig(block=BlockConfig(d_hidden=8, n_heads=2, d_mlp=16))
    model = build_model(cfg, seed=0)
    path = tmp_path / "model.bin"
    other = dataclasses.replace(
        cfg, block=dataclasses.replace(cfg.block, d_mlp=24)
    )
    params = {k: v.data for k, v in named_parameters(model).items()}
    serialize.save_tensors(path, params, other.to_dict())
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_checkpoint_missing_tensor_rejected(tmp_path):
    cfg = ModelConfig(block=BlockConfig(d_hidden=8, n_heads=2, d_mlp=16))
    model = build_model(cfg, seed=0)
    path = tmp_path / "model.bin"
    params = {k: v.data for k, v in named_parameters(model).items()}
    params.pop("head_w")
    serialize.save_tensors(path, params, cfg.to_dict())
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_checkpoint_with_per_head_names_rejected(tmp_path):
    # containers written before heads were stacked hold one tensor per
    # head (blocks.0.attn.w_q.0, ...), and before the preconditioners were,
    # one set of factors per head (blocks.0.attn.precond.0.p, ...); they
    # must fail loudly, not load
    cfg = ModelConfig(block=BlockConfig(d_hidden=8, n_heads=2, d_mlp=16,
                                        attn_precond="diag_lowrank", mlp_precond="diagonal"))
    model = build_model(cfg, seed=0)
    path = tmp_path / "model.bin"
    for stacked, head_name, missing in (
        ((".w_q", ".w_k"), "{scope}.{leaf}.{k}", "attn.w_k"),
        ((".attn.precond.p", ".attn.precond.u", ".attn.precond.v"), "{scope}.{k}.{leaf}",
         "attn.precond.p"),
    ):
        per_head = {}
        for name, t in named_parameters(model).items():
            scope, _, leaf = name.rpartition(".")
            if name.endswith(stacked):
                per_head.update({head_name.format(scope=scope, leaf=leaf, k=k): w
                                 for k, w in enumerate(t.data)})
            else:
                per_head[name] = t.data
        assert "blocks.0.mlp.precond.p" in per_head  # one MLP preconditioner, no heads
        serialize.save_tensors(path, per_head, cfg.to_dict())
        with pytest.raises(ConfigError, match=missing):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# whole-stack behaviour


def test_model_tied_equivalence():
    report = verify.model_tied_equivalence_check(n_configs=8, seed=0)
    assert report.passed, f"worst deviation {report.worst:.3e}"


def test_tied_reference_model_square_mlp():
    # with d_mlp == d_hidden, v and the reference w_down share a shape:
    # only the leaf names say that w_down is v transposed
    cfg = ModelConfig(
        vocab_size=11,
        block=BlockConfig(d_hidden=8, n_heads=2, d_mlp=8, inner_norm=False, alibi=True),
    )
    model = _randomized_model(cfg, 3)
    ref = verify.tied_reference_model(model)
    assert all(t.data.flags.writeable for t in named_parameters(ref).values())
    for blk, rblk in zip(model.blocks, ref.blocks):
        np.testing.assert_array_equal(rblk.mlp.w_down.data, blk.mlp.v.data.T)
        np.testing.assert_array_equal(rblk.attn.w_o.data, blk.attn.w_q.data)
    inputs = np.random.default_rng(4).integers(0, 11, size=(2, 6))
    assert verify.max_abs(forward(model, inputs).data, forward(ref, inputs).data) <= 1e-10


@pytest.mark.parametrize(
    "cut", [QUERY_TILE + QUERY_TILE // 2, 2 * QUERY_TILE], ids=["mid-tile", "tile-boundary"]
)
def test_model_exactly_causal_across_query_tiles(cut):
    # 150 tokens run three query tiles of the recurrent attention; new
    # tokens from position cut on must not move any output before it
    model = _randomized_model(verify.full_feature_config(), 9)
    rng = np.random.default_rng(cut)
    tokens = rng.integers(0, 17, size=(2, 150))
    perturbed = tokens.copy()
    perturbed[:, cut:] = (tokens[:, cut:] + rng.integers(1, 17, size=(2, 150 - cut))) % 17
    base = forward(model, tokens).data
    moved = forward(model, perturbed).data
    assert verify.max_abs(base[:, :cut], moved[:, :cut]) <= 1e-12
    assert verify.max_abs(base[:, cut:], moved[:, cut:]) > 1e-3


def test_model_backward_matches_finite_differences():
    report = verify.model_directional_fd_check(n_instances=3, seed=0)
    assert report.passed, f"worst relative error {report.worst:.3e}"
