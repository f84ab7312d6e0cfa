"""Model assembly: configs, init, forward, counting, checkpoints.

A model is a stack of pre-norm residual blocks between an input map
(byte embedding or linear lift) and an output head. Each block holds an
attention sublayer (reference, recurrent, or absent) and an MLP
sublayer (gated, plain, or recurrent). Recurrent sublayers consume the
normalised stream and return an evolved state; the block adds the
state's displacement to the raw residual stream, which collapses to the
standard pre-norm wiring at a single plain step.

Parameters are counted by walking a model: skeleton(cfg) builds it
with placeholder weights that draw and store nothing, so the counts
follow every shape decision init_block makes. FLOPs are not in the
shapes and keep a closed form (count_flops).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import serialize
from .layers import (
    AlibiParams,
    CemAttentionParams,
    CemMlpParams,
    GatedMlpParams,
    PlainMlpParams,
    PreconditionerParams,
    ReferenceMhaParams,
    RmsNormParams,
    cem_attention,
    cem_mlp,
    plain_mlp,
    reference_gated_mlp,
    reference_mha,
    rmsnorm,
)
from .energy import alibi_slopes
from .tensor import (
    DimensionError,
    DomainError,
    Tensor,
    add,
    gather_rows,
    matmul,
    mul,
    record,
    sub,
    swap_last2,
    tmean,
)


class ConfigError(ValueError):
    """Configuration value out of range or inconsistent."""


def check_types(given: dict, types: dict, prefix: str = "") -> None:
    """Raise ConfigError, naming prefix + key, for a key of given not in types
    or a value whose type name is not among types[key]. An int may stand for
    a float, a bool is not an int, and a key typed None takes any value."""
    for key, value in given.items():
        if key not in types:
            raise ConfigError(f"{prefix}{key}: unknown key")
        name = "None" if value is None else type(value).__name__
        allowed = types[key]
        if not (allowed is None or name in allowed or (name == "int" and "float" in allowed)):
            raise ConfigError(f"{prefix}{key}: must be {' | '.join(allowed)}, got {value!r}")


ATTENTION_KINDS = ("reference", "cem", "none")
MLP_KINDS = ("gated", "plain", "cem")
PRECOND_KINDS = ("identity", "diagonal", "diag_lowrank")
KQ_DIAG_KINDS = ("none", "shared", "per-head")


@dataclass
class BlockConfig:
    d_hidden: int = 64
    n_heads: int = 4
    d_head: int | None = None  # default d_hidden // n_heads
    d_mlp: int = 256
    attention: str = "cem"
    mlp: str = "cem"
    attn_steps: int = 1
    mlp_steps: int = 1
    attn_eta: float = 1.0
    mlp_eta: float = 1.0
    learnable_eta: bool = False
    kq_diag: str = "none"
    attn_precond: str = "identity"
    attn_precond_rank: int = 4
    mlp_precond: str = "identity"
    mlp_precond_rank: int = 16
    alibi: bool = False
    inner_norm: bool = True
    temperature: float | None = None  # default sqrt(d_head)

    def resolved_d_head(self) -> int:
        return self.d_head if self.d_head is not None else self.d_hidden // self.n_heads

    def resolved_temperature(self) -> float:
        if self.temperature is not None:
            return self.temperature
        return float(np.sqrt(self.resolved_d_head()))

    def validate(self) -> None:
        if self.d_hidden < 1:
            raise ConfigError(f"d_hidden must be >= 1, got {self.d_hidden}")
        if self.attention not in ATTENTION_KINDS:
            raise ConfigError(f"attention must be one of {ATTENTION_KINDS}, got {self.attention!r}")
        if self.mlp not in MLP_KINDS:
            raise ConfigError(f"mlp must be one of {MLP_KINDS}, got {self.mlp!r}")
        if self.attention != "none":
            if self.n_heads < 1:
                raise ConfigError(f"n_heads must be >= 1, got {self.n_heads}")
            if self.resolved_d_head() < 1:
                raise ConfigError("d_head resolves below 1; raise d_hidden or lower n_heads")
        if self.d_mlp < 1:
            raise ConfigError(f"d_mlp must be >= 1, got {self.d_mlp}")
        if self.attn_steps < 1 or self.mlp_steps < 1:
            raise ConfigError("recursion step counts must be >= 1")
        if self.kq_diag not in KQ_DIAG_KINDS:
            raise ConfigError(f"kq_diag must be one of {KQ_DIAG_KINDS}, got {self.kq_diag!r}")
        if self.attn_precond not in PRECOND_KINDS or self.mlp_precond not in PRECOND_KINDS:
            raise ConfigError(f"preconditioner kinds must be one of {PRECOND_KINDS}")
        if self.attn_precond == "diag_lowrank" and self.attn_precond_rank < 1:
            raise ConfigError("attn_precond_rank must be >= 1")
        if self.mlp_precond == "diag_lowrank" and self.mlp_precond_rank < 1:
            raise ConfigError("mlp_precond_rank must be >= 1")
        if self.temperature is not None and not (0 < self.temperature < np.inf):
            raise ConfigError(f"temperature must be positive and finite, got {self.temperature}")
        if not (np.isfinite(self.attn_eta) and np.isfinite(self.mlp_eta)):
            raise ConfigError(
                f"attn_eta and mlp_eta must be finite, got {self.attn_eta} and {self.mlp_eta}"
            )


@dataclass
class ModelConfig:
    kind: str = "lm"  # "lm" or "regressor"
    vocab_size: int = 256
    in_dim: int = 10
    out_dim: int = 1
    n_layers: int = 2
    reuse: int = 1  # times each built block is applied per forward
    final_norm: bool = True
    block: BlockConfig = field(default_factory=BlockConfig)

    def validate(self) -> None:
        if self.kind not in ("lm", "regressor"):
            raise ConfigError(f"kind must be 'lm' or 'regressor', got {self.kind!r}")
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.reuse < 1:
            raise ConfigError(f"reuse must be >= 1, got {self.reuse}")
        if self.kind == "lm" and self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.kind == "regressor" and self.in_dim < 1:
            raise ConfigError(f"in_dim must be >= 1, got {self.in_dim}")
        if self.out_dim < 1:
            raise ConfigError(f"out_dim must be >= 1, got {self.out_dim}")
        self.block.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Config from parsed JSON; an unknown key or a value not of its field's
        annotated type (an int may stand for a float) raises ConfigError."""
        if not isinstance(data, dict) or not isinstance(data.get("block", {}), dict):
            raise ConfigError("model config and its block must be JSON objects")
        data = dict(data)
        block_data = dict(data.pop("block", {}))
        for prefix, klass, given in (("", cls, data), ("block.", BlockConfig, block_data)):
            types = {f.name: f.type.split(" | ") for f in dataclasses.fields(klass)}
            check_types(given, types, prefix)
        cfg = cls(block=BlockConfig(**block_data), **data)
        cfg.validate()
        return cfg


@dataclass
class Block:
    attn_norm: RmsNormParams | None
    attn: ReferenceMhaParams | CemAttentionParams | None
    mlp_norm: RmsNormParams
    mlp: GatedMlpParams | PlainMlpParams | CemMlpParams


@dataclass
class Model:
    config: ModelConfig
    embed: Tensor | None
    lift_w: Tensor | None
    lift_b: Tensor | None
    blocks: list[Block]
    final_norm: RmsNormParams | None
    head_w: Tensor
    head_b: Tensor | None


INIT_STD = 0.02


def _gain(d: int) -> RmsNormParams:
    return RmsNormParams(gain=Tensor(np.ones(d)))


def _init_precond(kind: str, heads: tuple[int, ...], d: int, rank: int,
                  draw) -> PreconditionerParams:
    """A heads-shaped stack of width-d preconditioners; heads () for one."""
    p = Tensor(np.full(heads + (d,), 1.0 / np.sqrt(d)))
    if kind == "diagonal":
        return PreconditionerParams(p=p)
    return PreconditionerParams(p=p, u=draw(*heads, d, rank), v=Tensor(np.zeros(heads + (d, rank))))


def _init_eta(value: float, learnable: bool) -> Tensor | float:
    return Tensor(float(value)) if learnable else float(value)


def init_block(cfg: BlockConfig, draw) -> Block:
    """One block's parameters; draw(*shape) supplies every random weight."""
    d, k = cfg.d_hidden, cfg.n_heads
    d_r = cfg.resolved_d_head()

    attn_norm = None
    attn = None
    if cfg.attention != "none":
        attn_norm = _gain(d)
        alibi = None
        if cfg.alibi:
            alibi = AlibiParams(
                slopes=alibi_slopes(k), b_self=Tensor(0.0), b_cross=Tensor(0.0)
            )

        if cfg.attention == "reference":
            attn = ReferenceMhaParams(
                w_q=draw(k, d_r, d),
                w_k=draw(k, d_r, d),
                w_v=draw(k, d_r, d),
                w_o=draw(k, d_r, d),
                tau=cfg.resolved_temperature(),
                alibi=alibi,
            )
        else:
            diag = None
            if cfg.kq_diag != "none":
                diag = Tensor(np.zeros((1 if cfg.kq_diag == "shared" else k, d)))
            precond = None
            if cfg.attn_precond != "identity":
                precond = _init_precond(cfg.attn_precond, (k,), d, cfg.attn_precond_rank, draw)
            attn = CemAttentionParams(
                w_q=draw(k, d_r, d),
                w_k=draw(k, d_r, d),
                tau=cfg.resolved_temperature(),
                steps=cfg.attn_steps,
                eta=_init_eta(cfg.attn_eta, cfg.learnable_eta),
                diag=diag,
                precond=precond,
                alibi=alibi,
                inner_norm=_gain(d) if cfg.inner_norm else None,
            )

    if cfg.mlp == "gated":
        mlp = GatedMlpParams(
            w_gate=draw(cfg.d_mlp, d), w_up=draw(cfg.d_mlp, d), w_down=draw(d, cfg.d_mlp)
        )
    elif cfg.mlp == "plain":
        mlp = PlainMlpParams(w_up=draw(cfg.d_mlp, d), w_down=draw(d, cfg.d_mlp))
    else:
        mlp = CemMlpParams(
            w=draw(cfg.d_mlp, d),
            v=draw(cfg.d_mlp, d),
            steps=cfg.mlp_steps,
            eta=_init_eta(cfg.mlp_eta, cfg.learnable_eta),
            precond=(
                None
                if cfg.mlp_precond == "identity"
                else _init_precond(cfg.mlp_precond, (), d, cfg.mlp_precond_rank, draw)
            ),
            inner_norm=_gain(d) if cfg.inner_norm else None,
        )

    return Block(attn_norm=attn_norm, attn=attn, mlp_norm=_gain(d), mlp=mlp)


def _build(cfg: ModelConfig, draw) -> Model:
    cfg.validate()
    d = cfg.block.d_hidden

    embed = lift_w = lift_b = None
    if cfg.kind == "lm":
        embed = draw(cfg.vocab_size, d)
        head_rows = cfg.vocab_size
    else:
        lift_w = draw(d, cfg.in_dim)
        lift_b = Tensor(np.zeros(d))
        head_rows = cfg.out_dim

    blocks = [init_block(cfg.block, draw) for _ in range(cfg.n_layers)]
    head_w = draw(head_rows, d)
    head_b = None if cfg.kind == "lm" else Tensor(np.zeros(cfg.out_dim))
    return Model(
        config=cfg,
        embed=embed,
        lift_w=lift_w,
        lift_b=lift_b,
        blocks=blocks,
        final_norm=_gain(d) if cfg.final_norm else None,
        head_w=head_w,
        head_b=head_b,
    )


def build_model(cfg: ModelConfig, seed: int = 0) -> Model:
    """A model whose weight matrices are N(0, INIT_STD^2) draws from the seed."""
    rng = np.random.default_rng(seed)
    return _build(cfg, lambda *shape: Tensor(rng.normal(scale=INIT_STD, size=shape)))


def skeleton(cfg: ModelConfig) -> Model:
    """The model build_model makes, drawing nothing: each weight matrix is
    a zero-stride read-only zero of its shape. It has every parameter's
    name and shape, for counting or for loading stored weights into."""
    return _build(cfg, lambda *shape: Tensor(np.broadcast_to(0.0, shape)))


def block_forward(h: Tensor, block: Block) -> Tensor:
    """Pre-norm residual wiring around both sublayers.

    Recurrent sublayers receive the normalised stream as their initial
    state and frozen context; the block adds their displacement
    (final state minus initial state) back onto the raw stream.
    """
    if block.attn is not None:
        a_in = rmsnorm(h, block.attn_norm)
        if isinstance(block.attn, CemAttentionParams):
            h = add(h, sub(cem_attention(a_in, block.attn), a_in))
        else:
            h = add(h, reference_mha(a_in, block.attn))
    m_in = rmsnorm(h, block.mlp_norm)
    if isinstance(block.mlp, CemMlpParams):
        h = add(h, sub(cem_mlp(m_in, block.mlp), m_in))
    elif isinstance(block.mlp, GatedMlpParams):
        h = add(h, reference_gated_mlp(m_in, block.mlp))
    else:
        h = add(h, plain_mlp(m_in, block.mlp))
    return h


def forward(model: Model, inputs: np.ndarray) -> Tensor:
    """Logits (lm: (..., J, vocab)) or predictions (regressor: (n, out))."""
    cfg = model.config
    if cfg.kind == "lm":
        idx = np.asarray(inputs)
        h = gather_rows(model.embed, idx)
    else:
        x = np.asarray(inputs, dtype=np.float64)
        h = add(matmul(Tensor(x), swap_last2(model.lift_w)), model.lift_b)
    for block in model.blocks:
        for _ in range(cfg.reuse):
            h = block_forward(h, block)
    if model.final_norm is not None:
        h = rmsnorm(h, model.final_norm)
    out = matmul(h, swap_last2(model.head_w))
    if model.head_b is not None:
        out = add(out, model.head_b)
    return out


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy from raw logits, one tape node.

    Stable log-sum-exp behind a max shift: mean(log sum exp(z - m) + m
    - z[target]). The VJP is (softmax - onehot(target)) * g / N.
    """
    z = logits.data
    targets = np.asarray(targets)
    if targets.shape != z.shape[:-1]:
        raise DimensionError(
            f"cross_entropy: target shape {targets.shape} must equal {z.shape[:-1]}"
        )
    if np.any(targets < 0) or np.any(targets >= z.shape[-1]):
        raise DomainError("cross_entropy target out of range")
    idx = targets[..., None]
    m = np.max(z, axis=-1, keepdims=True)
    picked = np.take_along_axis(z, idx, axis=-1)[..., 0]
    e = z - m
    np.exp(e, out=e)
    total = e.sum(axis=-1)
    loss = np.mean(np.log(total) + m[..., 0] - picked)

    def vjp(g):
        # e and total are read, never written: backward may run twice
        g_n = g * (1.0 / total.size)
        grad = e * (g_n / total)[..., None]
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) - g_n, axis=-1)
        return (grad,)

    return record(np.asarray(loss), (logits,), vjp)


def mse(pred: Tensor, targets: np.ndarray) -> Tensor:
    diff = sub(pred, Tensor(np.asarray(targets, dtype=np.float64)))
    return tmean(mul(diff, diff))


# ---------------------------------------------------------------------------
# parameter naming, counting, checkpoints


def named_tensors(obj, prefix: str = "") -> dict[str, Tensor]:
    """Depth-first dataclass walk collecting every Tensor with a path name."""
    found: dict[str, Tensor] = {}

    def walk(obj, prefix: str) -> None:
        if isinstance(obj, Tensor):
            found[prefix] = obj
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{prefix}.{i}")
        elif hasattr(obj, "__dataclass_fields__"):  # the fields, in declaration order
            for name in obj.__dataclass_fields__:
                walk(getattr(obj, name), f"{prefix}.{name}" if prefix else name)

    walk(obj, prefix)
    return found


def named_parameters(model: Model) -> dict[str, Tensor]:
    params = named_tensors(model)
    return {k: v for k, v in params.items() if not k.startswith("config")}


def parameter_group(name: str) -> str:
    """Map a parameter path to its counting group."""
    if ".precond" in name:
        return "preconditioners"
    if "norm" in name:  # attn_norm, mlp_norm, inner_norm, final_norm
        return "norms"
    if ".attn." in name:
        return "attention"
    if ".mlp." in name:
        return "mlp"
    if name.startswith(("embed", "lift_")):
        return "embedding"
    if name.startswith("head_"):
        return "head"
    return "other"


CORE_LEAVES = ("w_q", "w_k", "w_v", "w_o", "w", "v", "w_gate", "w_up", "w_down")


def is_core(name: str) -> bool:
    """Projection matrices only: excludes diag, alibi, eta, norms, precond."""
    return ".precond" not in name and name.rpartition(".")[2] in CORE_LEAVES


def count_parameters(model: Model) -> dict[str, int]:
    counts: dict[str, int] = {
        "embedding": 0,
        "attention": 0,
        "attention_core": 0,
        "mlp": 0,
        "mlp_core": 0,
        "norms": 0,
        "preconditioners": 0,
        "head": 0,
        "other": 0,
        "total": 0,
    }
    for name, t in named_parameters(model).items():
        group = parameter_group(name)
        counts[group] += t.size
        counts["total"] += t.size
        if group == "attention" and is_core(name):
            counts["attention_core"] += t.size
        if group == "mlp" and is_core(name):
            counts["mlp_core"] += t.size
    return counts


def count_parameters_config(cfg: ModelConfig) -> dict[str, int]:
    """Parameter counts of the model cfg builds, from its skeleton."""
    return count_parameters(skeleton(cfg))


def save_checkpoint(model: Model, path: str | Path) -> None:
    """One container holding the config and every parameter, replaced
    atomically (serialize.write_atomic)."""
    params = {k: v.data for k, v in named_parameters(model).items()}
    serialize.save_tensors(path, params, model.config.to_dict())


def load_checkpoint(path: str | Path) -> Model:
    meta, stored = serialize.load_tensors(path)
    model = skeleton(ModelConfig.from_dict(meta))
    params = named_parameters(model)
    missing = set(params) - set(stored)
    extra = set(stored) - set(params)
    if missing or extra:
        raise ConfigError(
            f"checkpoint does not match config: missing {sorted(missing)[:4]}, "
            f"extra {sorted(extra)[:4]}"
        )
    for name, tensor in params.items():
        arr = stored[name]
        if arr.shape != tensor.data.shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {arr.shape}, expected {tensor.data.shape}"
            )
        tensor.data = arr.copy()
    return model


# ---------------------------------------------------------------------------
# FLOP accounting
#
# Convention, applied uniformly to forward passes:
#   matmul (m,p) @ (p,n): 2*m*p*n
#   unary elementwise (exp, sigmoid, softplus, scale, square, add): 1/element
#   silu: 2/element (sigmoid + multiply)
#   binary elementwise: 1/element
#   softmax over a row of length n: 4n (shift, exp, sum, divide)
#   rms norm of a length-D row: 4D + 2
#   causal attention touches P = J(J+1)/2 (i, j<=i) pairs
# Backward cost is out of scope; counts are per forward pass of one
# sequence of length seq_len (regressors: seq_len independent rows),
# except the preconditioner folds, once per layer call.


def _flops_rmsnorm_rows(rows: int, d: int) -> int:
    return rows * (4 * d + 2)


def _flops_softmax_causal(j: int) -> int:
    return 4 * (j * (j + 1) // 2)


def count_flops(cfg: ModelConfig, seq_len: int) -> dict[str, int]:
    """Closed-form forward FLOPs per sequence, grouped like the counts.

    precond_per_call is the recurrent layers' preconditioner folds into
    their (K*D_r + D_m, D_h) read-out weight rows, once per layer call:
    a forward over B sequences costs B * total + precond_per_call.

    Attention counts the J(J+1)/2 causal (i, j <= i) pairs. The code
    computes more: reference_mha runs all J^2 pairs, and cem_attention,
    whose query tiles of B = layers.QUERY_TILE rows each see the keys up
    to their last row, runs B^2 n(n+1)/2 pairs over n full tiles, plus
    rJ when a ragged last tile holds the other r < B rows (J = nB + r).
    """
    cfg.validate()
    b = cfg.block
    d, k, d_r, d_m = b.d_hidden, b.n_heads, b.resolved_d_head(), b.d_mlp
    j = seq_len
    pairs = j * (j + 1) // 2

    attn = fold = 0  # fold: P into read-out weight rows, once per layer call
    norms_block = _flops_rmsnorm_rows(j, d)  # mlp_norm
    if b.attention != "none":
        norms_block += _flops_rmsnorm_rows(j, d)  # attn_norm
        if b.attention == "reference":
            per_head = (
                3 * 2 * j * d_r * d      # q, k, v projections
                + 2 * pairs * d_r        # logit products
                + pairs                  # temperature scale
                + (pairs if b.alibi else 0)
                + _flops_softmax_causal(j)
                + 2 * pairs * d_r        # value mix
                + 2 * j * d_r * d        # output projection
            )
            attn = k * per_head + (k - 1) * j * d + j * d  # head sum + residual
        else:
            out_of_loop = k * 2 * j * d_r * d  # tied kv projection, once
            fold = k * _flops_precond_rows(b.attn_precond, b.attn_precond_rank, d_r, d)
            per_step = 0
            if b.inner_norm:
                per_step += _flops_rmsnorm_rows(j, d)
            if b.kq_diag == "shared":
                per_step += j * d + 2 * pairs * d  # (u*d) then @ h^T, hoisted
            per_head = (
                2 * j * d_r * d          # query projection
                + 2 * pairs * d_r        # logit products
                + pairs                  # temperature scale
                + (pairs if b.alibi else 0)
                + _flops_softmax_causal(j)
                + 2 * pairs * d_r        # value mix
                + 2 * j * d_r * d        # output-side projection
            )
            if b.kq_diag == "per-head":
                per_head += j * d + 2 * pairs * d
            if b.kq_diag != "none":
                per_head += pairs  # add diagonal term into logits
            per_step += k * per_head + (k - 1) * j * d  # head sum
            per_step += j * d + j * d  # eta scale + state add
            # displacement wiring: subtract initial state, add to stream
            attn = out_of_loop + b.attn_steps * per_step + 2 * j * d

    if b.mlp == "gated":
        mlp = 6 * j * d_m * d + 3 * j * d_m + j * d  # 3 matmuls, silu+gate, residual
    elif b.mlp == "plain":
        mlp = 4 * j * d_m * d + 2 * j * d_m + j * d
    else:
        out_of_loop = 2 * j * d_m * d  # frozen gate projection
        fold += _flops_precond_rows(b.mlp_precond, b.mlp_precond_rank, d_m, d)
        per_step = 0
        if b.inner_norm:
            per_step += _flops_rmsnorm_rows(j, d)
        per_step += (
            2 * j * d * d_m   # state up-projection
            + 2 * j * d_m     # silu
            + j * d_m         # gate multiply
            + 2 * j * d_m * d # tied down-projection
            + 2 * j * d       # eta scale + state add
        )
        # displacement wiring: subtract initial state, add to stream
        mlp = out_of_loop + b.mlp_steps * per_step + 2 * j * d

    per_block = attn + mlp + norms_block
    layers_total = cfg.n_layers * cfg.reuse * per_block

    if cfg.kind == "lm":
        embedding = 0  # table lookup
        head = 2 * j * d * cfg.vocab_size
    else:
        embedding = 2 * j * d * cfg.in_dim + j * d
        head = 2 * j * d * cfg.out_dim + j * cfg.out_dim
    final_norm = _flops_rmsnorm_rows(j, d) if cfg.final_norm else 0

    total = layers_total + embedding + head + final_norm
    return {
        "embedding": embedding,
        "attention": cfg.n_layers * cfg.reuse * attn,
        "mlp": cfg.n_layers * cfg.reuse * mlp,
        "norms": cfg.n_layers * cfg.reuse * norms_block + final_norm,
        "head": head,
        "total": total,
        "per_token": total // j,
        "precond_per_call": cfg.n_layers * cfg.reuse * fold,
    }


def _flops_precond_rows(kind: str, rank: int, rows: int, d: int) -> int:
    if kind == "identity":
        return 0
    diag = 2 * d + rows * d  # softplus(scale*p) once, then row-wise multiply
    if kind == "diagonal":
        return diag
    return diag + 8 * rows * d * rank + rows * d  # (g [u|v]) [v|u]^T, then add


# ---------------------------------------------------------------------------
# named presets (build but are not trained in CI)


def preset(name: str) -> ModelConfig:
    """Named large-scale configurations and the desk-scale defaults."""
    if not isinstance(name, str):
        raise ConfigError(f"preset name must be a string, got {name!r}")
    shapes = {
        "86m": (672, 8, 8, 1792),
        "108m": (672, 12, 12, 1792),
        "134m": (768, 12, 12, 2048),
        "162m": (864, 12, 12, 2304),
    }
    if name.startswith(("ref-", "cem-")):
        kind, _, size = name.partition("-")
        if size in shapes:
            d, layers, heads, d_m = shapes[size]
            block = BlockConfig(
                d_hidden=d,
                n_heads=heads,
                d_mlp=d_m,
                attention="reference" if kind == "ref" else "cem",
                mlp="gated" if kind == "ref" else "cem",
                attn_steps=1,
                mlp_steps=1,
                kq_diag="none" if kind == "ref" else "shared",
                attn_precond="identity" if kind == "ref" else "diag_lowrank",
                mlp_precond="identity" if kind == "ref" else "diag_lowrank",
                alibi=kind == "cem",
                inner_norm=kind == "cem",
            )
            return ModelConfig(
                kind="lm", vocab_size=32000, n_layers=layers, block=block
            )
    if name == "lm-smoke":
        return ModelConfig(
            kind="lm",
            vocab_size=256,
            n_layers=2,
            block=BlockConfig(
                d_hidden=64,
                n_heads=4,
                d_mlp=256,
                attention="cem",
                mlp="cem",
                attn_steps=2,
                mlp_steps=2,
                kq_diag="shared",
                attn_precond="diag_lowrank",
                mlp_precond="diag_lowrank",
                alibi=True,
                inner_norm=True,
            ),
        )
    raise ConfigError(f"unknown preset {name!r}")
