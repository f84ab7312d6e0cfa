"""Sequence layers: reference attention/MLP and their recurrent forms.

The recurrent layers evolve a per-token state x (initialised at the
incoming hidden state) by repeatedly adding a preconditioned update
whose direction is the negative gradient of an explicit energy, with
context projections computed once and frozen across steps. At one step,
identity preconditioner and inner norm off, they reduce exactly to the
weight-tied reference layers.

The reference layers are composed from tape primitives and serve as the
tied-equivalence oracles. The recurrent layers are not: each recursion
step (inner norm, projections, logits, softmax or silu read-out, eta)
runs as plain numpy over all heads and records one tape node with a
hand-written VJP. Each layer call first records the frozen context
projections (kv = h W_k^T for all heads at once, gate = h W^T) and the
fold of the token-independent, symmetric preconditioner into the
read-out weights: P applied to every row of read @ W is read @ (W P).
The fold runs once per layer call on weights, not tokens, so it is
composed from tape primitives and has no VJP of its own. The RMS norm
is a numpy forward/VJP pair shared by the fused steps and by its own
one-node primitive. The composed form of the recurrent layers, which
preconditions token rows, is kept under tests/ as their reference.
Each recurrent layer is one generator, cem_attention_states or
cem_mlp_states, that yields the state after every step; cem_attention
and cem_mlp return the last one, so a descent trace reads every state
of one run.

The recurrent attention step walks causal query tiles of QUERY_TILE
rows: tile [s0, s1) builds its logits, softmax and read-out against keys
[0, s1) only, so the masked keys past its last row are never touched,
and heads run inside each query tile. ALiBi and the causal mask are one
additive constant per tile, added to the logits in place, and the
softmax overwrites them. At J = 256 that is 10 of the 16 64x64 blocks.
1/tau is folded once into the query weights and the K/Q diagonal, so
the logits come out scaled; the composed layer scales them afterwards,
so even at one tile the two agree to rounding rather than bit for bit.
The reference attention stays dense: it is the oracle.

Off the tape, the MLP step runs silu and the gate product in place in
its up-projection.

On the tape, each step's node keeps only what its VJP cannot rebuild
without a matmul. The MLP step keeps a = u v^T and s = sigmoid(a); its
VJP rebuilds z = a s and m = gate z with the forward's own operations,
so they come out bit for bit the same. With the inner norm on, both
steps keep y = x r, r and the gain read at forward time, and rebuild
u = y gain; rms_vjp uses that same gain, so assigning a new gain array
between forward and backward changes no gradient. A VJP writes into
nothing it saved, so Tape.backward stays repeatable.

All shapes follow the row convention: sequences are (..., J, D_h) with
any number of leading batch axes, projection matrices are stored as
(rows_out, D_h) and applied as h @ W.T. Attention keeps every head in
one tensor: each projection is a (K, D_r, D_h) stack, applied to h
reshaped to (..., 1, J, D_h) so that head projections come out as
(..., K, J, D_r); the K/Q diagonal is (1, D_h) shared or (K, D_h), and
the traced ALiBi bias is (K, J, J). The preconditioners are one stack
too, p (K, D_h) with factors (K, D_h, rank), and both recurrent layers
fold theirs through the same apply_preconditioner: attention into its
(K, D_r, D_h) read-out weights, the MLP into its (D_m, D_h) one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    DomainError,
    Tensor,
    add,
    matmul,
    mul,
    record,
    recording,
    reshape,
    silu,
    silu_forward,
    silu_vjp,
    softmax_forward,
    softmax_lastdim,
    softmax_vjp,
    softplus,
    swap_last2,
    tsum,
)


def causal_mask(n: int, start: int = 0) -> np.ndarray:
    """Additive mask for query rows start <= i < n against keys j < n:
    0 where j <= i, -inf where j > i, shape (n - start, n)."""
    if n < 1:
        raise DomainError("mask size must be >= 1")
    return np.triu(np.full((n - start, n), -np.inf), k=start + 1)


def _rows(a: np.ndarray) -> np.ndarray:
    """a of shape (..., n) as (R, n): its rows over every leading axis."""
    return a.reshape(-1, a.shape[-1])


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum over rows r of outer(a_r, b_r): the weight cotangent of
    rows @ W."""
    return _rows(a).T @ _rows(b)


def _check_width(what: str, shape: tuple[int, ...], want: tuple[int, ...]) -> None:
    if shape != want:
        raise DimensionError(f"{what} has shape {shape}, expected {want}")


class _Cotangents:
    """Cotangents keyed by input tensor, summed when one tensor feeds a
    node twice (at step one the state x is the frozen context h)."""

    def __init__(self):
        self._by_id: dict[int, np.ndarray] = {}

    def add(self, t: Tensor, g) -> None:
        prev = self._by_id.get(id(t))
        self._by_id[id(t)] = g if prev is None else prev + g

    def ordered(self, parents) -> tuple:
        return tuple(self._by_id.pop(id(t), None) for t in parents)


# ---------------------------------------------------------------------------
# RMS norm


@dataclass
class RmsNormParams:
    gain: Tensor  # (D_h,)
    eps: float = 1e-6

    def __post_init__(self):
        if self.eps <= 0.0:
            raise DomainError("rmsnorm eps must be positive")


def rms_forward(x: np.ndarray, gain: np.ndarray, eps: float):
    """(y * gain, y, r) with r = 1/sqrt(mean(x^2) + eps) per row, y = x * r;
    a row whose mean square is not finite raises DomainError, not zeros."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    if not np.all(np.isfinite(ms)):
        raise DomainError("rms norm row has a non-finite mean square")
    r = 1.0 / np.sqrt(ms + eps)
    y = x * r
    return y * gain, y, r


def rms_vjp(g: np.ndarray, y: np.ndarray, r: np.ndarray, gain: np.ndarray):
    """Cotangents (x, gain) of rms_forward, from its saved y and r:
    g_x = r (g gain - y mean(g gain y))."""
    gy = g * gain
    g_x = y * (gy * y).mean(axis=-1, keepdims=True)
    np.subtract(gy, g_x, out=g_x)
    g_x *= r
    return g_x, _rows(g * y).sum(axis=0)


def rmsnorm(x: Tensor, params: RmsNormParams) -> Tensor:
    """x * gain / sqrt(mean(x^2) + eps) along the last axis, one tape node."""
    gain = params.gain.data
    _check_width("rmsnorm gain", gain.shape, x.shape[-1:])
    out, y, r = rms_forward(x.data, gain, params.eps)
    return record(out, (x, params.gain), lambda g: rms_vjp(g, y, r, gain))


def _normalised_state(x: np.ndarray, norm: RmsNormParams | None):
    """(u, saved): the state a recursion step reads, and the (y, r, gain)
    that rebuild u and feed rms_vjp, None without a norm. The gain is read
    here, at forward time, as the rmsnorm primitive reads it."""
    if norm is None:
        return x, None
    gain = norm.gain.data
    u, y, r = rms_forward(x, gain, norm.eps)
    return u, (y, r, gain)


def _rebuilt_state(x: np.ndarray, saved) -> np.ndarray:
    """_normalised_state's u again: rms_forward's own product, so the same bits."""
    return x if saved is None else saved[0] * saved[2]


def _add_state_cotangent(grads: _Cotangents, x: Tensor, g_u: np.ndarray,
                         norm: RmsNormParams | None, saved) -> None:
    """Route the cotangent of _normalised_state's u back to x and the gain."""
    if saved is None:
        grads.add(x, g_u)
    else:
        g_x, g_gain = rms_vjp(g_u, *saved)
        grads.add(x, g_x)
        grads.add(norm.gain, g_gain)


# ---------------------------------------------------------------------------
# positional logit bias


@dataclass
class AlibiParams:
    """Distance-linear bias with learnable scalar self/cross offsets.

    slopes is a constant (K,) array, normally 2^-k; the two offsets are
    traced scalars shared across heads.
    """

    slopes: np.ndarray
    b_self: Tensor
    b_cross: Tensor

    def distance_bias(self, n: int, start: int = 0) -> np.ndarray:
        """The constant part, -slope_k * |i - j|, for query rows
        start <= i < n against keys j < n, as a (K, n - start, n) array."""
        return -self.slopes[:, None, None] * np.abs(
            np.arange(start, n)[:, None] - np.arange(n)[None, :]
        ).astype(np.float64)

    def bias_matrix(self, n: int) -> Tensor:
        """The whole (K, n, n) bias, traced through the two offsets."""
        eye = np.eye(n)
        return add(
            Tensor(self.distance_bias(n)),
            add(mul(Tensor(eye), self.b_self), mul(Tensor(1.0 - eye), self.b_cross)),
        )

    def bias_rows(self, start: int, n: int) -> np.ndarray:
        """Rows start <= i < n of the bias_matrix values, in plain numpy."""
        eye = np.eye(n - start, n, k=start)
        offsets = eye * self.b_self.data + (1.0 - eye) * self.b_cross.data
        return self.distance_bias(n, start) + offsets

    def offset_grads(self, g_bias: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Cotangents (b_self, b_cross) from the (..., n - start, n)
        cotangent of bias rows start <= i < n."""
        rows, n = g_bias.shape[-2:]
        g = g_bias.reshape(-1, rows, n).sum(axis=0)
        eye = np.eye(rows, n, k=start)
        return np.sum(g * eye), np.sum(g * (1.0 - eye))


# ---------------------------------------------------------------------------
# preconditioners


@dataclass
class PreconditionerParams:
    """Symmetric positive-leaning preconditioners, never materialized.

    p is (..., dim), and its leading axes, if any, stack one preconditioner
    per head: attention holds a (K, D_h) stack, the MLP one (D_h,) row.
    Each has the diagonal part diag(softplus(scale * p)) with scale =
    sqrt(dim); p is stored at O(1/sqrt(dim)) so the diagonal starts near
    softplus(1). Given low-rank factors u, v of shape (..., dim, rank), it
    adds u v.T + v u.T; v starts at zero so the map starts diagonal. The
    recurrent layers apply it once per call to the rows of their read-out
    weights, not to token rows.
    """

    p: Tensor
    u: Tensor | None = None
    v: Tensor | None = None

    def __post_init__(self):
        if self.p.ndim < 1:
            raise DimensionError("preconditioner needs p of shape (..., dim), got a scalar")
        if self.u is not None or self.v is not None:
            shapes = [None if t is None else t.shape for t in (self.u, self.v)]
            if shapes[0] != shapes[1] or shapes[0][:-1] != self.p.shape:
                raise DimensionError(
                    f"low-rank factors u, v must both be {self.p.shape} + (rank,), got {shapes}"
                )

    @property
    def dim(self) -> int:
        return self.p.shape[-1]

    @property
    def heads(self) -> tuple[int, ...]:
        return self.p.shape[:-1]


def apply_preconditioner(g: Tensor, params: PreconditionerParams) -> Tensor:
    """P applied to the (..., *heads, rows, dim) rows of g, each head's P
    to its own rows, in tape primitives and without a (dim, dim) matrix:
    g * softplus(sqrt(dim) p) plus the symmetric pair (g u) v.T + (g v) u.T,
    the factors' head axes broadcasting against g's."""
    heads, dim = params.heads, params.dim
    if (g.ndim < len(heads) + 2 or g.shape[-len(heads) - 2 : -2] != heads
            or g.shape[-1] != dim):
        raise DimensionError(
            f"preconditioner of shape {params.p.shape} cannot act on rows of {g.shape}"
        )
    diag = softplus(mul(reshape(params.p, heads + (1, dim)), float(np.sqrt(dim))))
    out = mul(g, diag)
    if params.u is not None:
        out = add(out, matmul(matmul(g, params.u), swap_last2(params.v)))
        out = add(out, matmul(matmul(g, params.v), swap_last2(params.u)))
    return out


def materialize_preconditioner(params: PreconditionerParams) -> np.ndarray:
    """Dense P for tests, (..., dim, dim): diag(softplus(sqrt(dim) p)) +
    u v.T + v u.T."""
    scale = float(np.sqrt(params.dim))
    mat = np.logaddexp(0.0, scale * params.p.data)[..., None] * np.eye(params.dim)
    if params.u is not None:
        u, v = params.u.data, params.v.data
        mat = mat + u @ np.swapaxes(v, -1, -2) + v @ np.swapaxes(u, -1, -2)
    return mat


# ---------------------------------------------------------------------------
# reference layers


def _check_heads(what: str, *stacks: Tensor) -> None:
    shape = stacks[0].shape
    if len(shape) != 3 or shape[0] == 0 or any(t.shape != shape for t in stacks):
        raise DimensionError(
            f"{what} must be matching (K, D_r, D_h) stacks with K >= 1, got "
            f"{[t.shape for t in stacks]}"
        )


def _with_head_axis(h: Tensor) -> Tensor:
    """(..., J, D_h) as (..., 1, J, D_h), to broadcast against (K, ., .) stacks."""
    return reshape(h, h.shape[:-2] + (1,) + h.shape[-2:])


@dataclass
class ReferenceMhaParams:
    """Untied multi-head causal attention, four (K, D_r, D_h) head stacks."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    tau: float
    alibi: AlibiParams | None = None

    def __post_init__(self):
        _check_heads("w_q, w_k, w_v and w_o", self.w_q, self.w_k, self.w_v, self.w_o)
        if self.tau <= 0.0:
            raise DomainError("tau must be positive")

    @property
    def n_heads(self) -> int:
        return self.w_q.shape[0]


def reference_mha(h: Tensor, params: ReferenceMhaParams) -> Tensor:
    """Causal multi-head attention, all heads at once, summed over heads.

    Returns the attention read-out only (no residual): for each head k,
    softmax((q_k key_k.T)/tau + bias_k) val_k projected back with w_o[k].
    """
    n = h.shape[-2]
    hk = _with_head_axis(h)
    q = matmul(hk, swap_last2(params.w_q))  # (..., K, J, D_r)
    key = matmul(hk, swap_last2(params.w_k))
    val = matmul(hk, swap_last2(params.w_v))
    logits = mul(matmul(q, swap_last2(key)), 1.0 / params.tau)
    if params.alibi is not None:
        logits = add(logits, params.alibi.bias_matrix(n))
    p = softmax_lastdim(logits, mask=causal_mask(n))
    return tsum(matmul(matmul(p, val), params.w_o), axis=-3)


@dataclass
class GatedMlpParams:
    """Gated two-layer perceptron, three independent matrices."""

    w_gate: Tensor  # (D_m, D_h)
    w_up: Tensor    # (D_m, D_h)
    w_down: Tensor  # (D_h, D_m)

    def __post_init__(self):
        if self.w_gate.shape != self.w_up.shape:
            raise DimensionError("gate and up projections must share a shape")
        if self.w_down.shape != (self.w_gate.shape[1], self.w_gate.shape[0]):
            raise DimensionError(
                f"down projection must be {(self.w_gate.shape[1], self.w_gate.shape[0])}, "
                f"got {self.w_down.shape}"
            )


def reference_gated_mlp(h: Tensor, params: GatedMlpParams) -> Tensor:
    """(gate h) * silu(up h), projected back down. No residual."""
    gate = matmul(h, swap_last2(params.w_gate))
    up = silu(matmul(h, swap_last2(params.w_up)))
    return matmul(mul(gate, up), swap_last2(params.w_down))


@dataclass
class PlainMlpParams:
    """Ungated baseline: down(silu(up h))."""

    w_up: Tensor    # (D_m, D_h)
    w_down: Tensor  # (D_h, D_m)

    def __post_init__(self):
        if self.w_down.shape != (self.w_up.shape[1], self.w_up.shape[0]):
            raise DimensionError("down projection shape must transpose the up shape")


def plain_mlp(h: Tensor, params: PlainMlpParams) -> Tensor:
    return matmul(silu(matmul(h, swap_last2(params.w_up))), swap_last2(params.w_down))


# ---------------------------------------------------------------------------
# recurrent attention


@dataclass
class CemAttentionParams:
    """Recurrent causal attention with tied key/value projections.

    w_q doubles as the output projection (applied transposed) and w_k
    doubles as the value projection, so the parameter core is exactly
    half a reference attention layer. Both hold every head as one
    (K, D_r, D_h) stack, and precond stacks one preconditioner per head.
    diag optionally adds h_j D u_i coupling to the logits, either one
    (1, D_h) row shared by all heads or a (K, D_h) row per head.
    """

    w_q: Tensor
    w_k: Tensor
    tau: float
    steps: int = 1
    eta: Tensor | float = 1.0
    diag: Tensor | None = None
    precond: PreconditionerParams | None = None
    alibi: AlibiParams | None = None
    inner_norm: RmsNormParams | None = None

    def __post_init__(self):
        _check_heads("w_q and w_k", self.w_q, self.w_k)
        n = self.n_heads
        if self.tau <= 0.0:
            raise DomainError("tau must be positive")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if self.diag is not None and (self.diag.ndim != 2 or self.diag.shape[0] not in (1, n)):
            raise DimensionError("diag must be one (1, D_h) row total or a (K, D_h) row per head")
        if self.precond is not None and self.precond.heads != (n,):
            raise DimensionError("precond needs a stack of one preconditioner per head")

    @property
    def n_heads(self) -> int:
        return self.w_q.shape[0]


def cem_attention(h: Tensor, params: CemAttentionParams) -> Tensor:
    """Run the recurrent attention state update over a full sequence:
    the final state x_T for every position, shape of h, i.e. the last
    state cem_attention_states yields."""
    for x in cem_attention_states(h, params):
        pass
    return x


def cem_attention_states(h: Tensor, params: CemAttentionParams):
    """Yield the states x_1, ..., x_T of the recurrent attention update.

    Keys and values are the same tied projection of the frozen input h,
    computed once for all heads. Each step re-projects the current
    (optionally normalised) state into queries, attends causally, maps
    the read-out back through w_q transposed and preconditioned once
    before the steps, and adds; it records one tape node. Every state
    has the shape of h.
    """
    d, n = h.shape[-1], h.shape[-2]
    if params.diag is not None:
        _check_width("kq diagonal", params.diag.shape[1:], (d,))
    if params.inner_norm is not None:
        _check_width("inner norm gain", params.inner_norm.gain.shape, (d,))
    tiles = _query_tiles(n, params.alibi)
    kv = matmul(_with_head_axis(h), swap_last2(params.w_k))  # (..., K, J, D_r)
    w_out = params.w_q if params.precond is None else apply_preconditioner(params.w_q, params.precond)
    x = h
    for _ in range(params.steps):
        x = _attention_step(x, h, kv, w_out, tiles, params)
        yield x


QUERY_TILE = 64  # query rows per attention tile; at J = 256, 32 ran no faster, 128 slower


def _query_tiles(n: int, alibi: AlibiParams | None) -> list[tuple[int, int, np.ndarray]]:
    """Query tiles (s0, s1, const) of QUERY_TILE rows over a length-n sequence.

    Tile rows s0 <= i < s1 see keys j < s1 only; const is their additive
    logit constant, the causal mask plus, with ALiBi, the (K, s1 - s0, s1)
    bias rows. Folding the mask into the bias changes no bit of the
    logits, because (x + b) + m == x + (b + m) for m in {0, -inf}.
    """
    if n < 1:
        raise DomainError("attention needs a sequence of length >= 1")
    tiles = []
    for s0 in range(0, n, QUERY_TILE):
        s1 = min(s0 + QUERY_TILE, n)
        const = causal_mask(s1, start=s0)
        if alibi is not None:
            const = alibi.bias_rows(s0, s1) + const
        tiles.append((s0, s1, const))
    return tiles


def _attention_step(x: Tensor, h: Tensor, kv: Tensor, w_out: Tensor, tiles,
                    params: CemAttentionParams) -> Tensor:
    """x + eta * sum_k (softmax_k kv_k) w_out,k as one tape node, where
    w_out,k = w_q,k P_k is the read-out weight cem_attention folded.

    Logits, softmax and read-out run tile by tile over the causal query
    tiles of _query_tiles, so the masked keys past a tile's last row are
    never computed; heads run inside each query tile and write their
    read-outs side by side into one (..., J, K, D_r) array. Projecting
    out of the heads, preconditioning and summing them is then one
    (..., J, K*D_r) @ (K*D_r, D_h) product over the whole sequence, as
    is the projection into the heads. 1/tau is folded once into the
    query weights and the K/Q diagonal rather than scaling every tile's
    logits, and each tile's logits take the tile constant and the
    softmax in place, since nothing else reads them.
    The folds round differently from the composed layer in
    tests/composed_reference.py, which scales the logits and
    preconditions each head's token rows, so the two agree to rounding,
    not bit for bit, even at one tile.
    """
    norm, diag, alibi = params.inner_norm, params.diag, params.alibi
    eta = params.eta.data if isinstance(params.eta, Tensor) else params.eta
    inv_tau = 1.0 / params.tau
    heads = params.w_q.shape[:2]  # (K, D_r)
    parents = [x, h, kv, params.w_q, w_out]  # w_out is w_q without preconditioners
    if diag is not None:
        parents.append(diag)
    if alibi is not None:
        parents += [alibi.b_self, alibi.b_cross]
    if norm is not None:
        parents.append(norm.gain)
    if isinstance(params.eta, Tensor):
        parents.append(params.eta)
    keep = recording(parents)  # off the tape, each tile's softmax dies with the tile

    xd, hd, w_q, kvd = x.data, h.data, params.w_q.data, kv.data
    w_cat = w_out.data.reshape(-1, w_q.shape[2])  # every head side by side: (K*D_r, D_h)
    w_qt = (w_q * inv_tau).reshape(w_cat.shape)
    u, saved = _normalised_state(xd, norm)
    h_t = np.swapaxes(hd, -1, -2)
    n_diag = 0 if diag is None else diag.shape[0]  # one row shared, or one per head
    diag_t = None if diag is None else diag.data * inv_tau
    qs = (u @ w_qt.T).reshape(u.shape[:-1] + heads)  # (..., J, K, D_r)
    reads = np.empty(qs.shape)
    probs = []  # per tile, each head's softmax, for the VJP
    for s0, s1, const in tiles:
        u_t, h_tt = u[..., s0:s1, :], h_t[..., :s1]
        diag_logits = [(u_t * diag_t[i]) @ h_tt for i in range(n_diag)]
        tile = []
        for k in range(heads[0]):
            kv_k = kvd[..., k, :s1, :]
            logits = qs[..., s0:s1, k, :] @ np.swapaxes(kv_k, -1, -2)
            if n_diag:
                logits += diag_logits[k % n_diag]
            logits += const if alibi is None else const[k]
            p = softmax_forward(logits)  # in place: p is the logits array
            np.matmul(p, kv_k, out=reads[..., s0:s1, k, :])
            if keep:
                tile.append(p)
        probs.append(tile)
    reads = reads.reshape(u.shape[:-1] + (-1,))  # (..., J, K*D_r)
    upd = reads @ w_cat
    # only a learnable eta's cotangent reads upd; otherwise it becomes out
    out = upd * eta if isinstance(params.eta, Tensor) else np.multiply(upd, eta, out=upd)
    out += xd  # xd + upd * eta: addition commutes exactly

    def vjp(c):
        u = _rebuilt_state(xd, saved)
        grads = _Cotangents()
        grads.add(x, c)
        if isinstance(params.eta, Tensor):
            grads.add(params.eta, np.sum(c * upd))
        g_upd = c * eta
        grads.add(w_out, _outer_rows(reads, g_upd).reshape(w_out.shape))
        g_reads = (g_upd @ w_cat.T).reshape(qs.shape)
        # rows of g_q and of the diagonal's g_ud belong to one tile each;
        # g_kv and the diagonal's g_h sum over every tile that reads a key
        g_qs = np.empty(qs.shape)
        g_kv = np.zeros_like(kvd)
        g_uds = [np.empty(u.shape) for _ in range(n_diag)]
        g_h = np.zeros_like(hd) if n_diag else None
        for (s0, s1, _), tile in zip(tiles, probs):
            u_t, h_tt = u[..., s0:s1, :], hd[..., :s1, :]
            g_diag_logits = [None] * n_diag  # per row, summed over its heads
            for k, p in enumerate(tile):
                kv_k = kvd[..., k, :s1, :]
                g_read = g_reads[..., s0:s1, k, :]
                g_logits = softmax_vjp(g_read @ np.swapaxes(kv_k, -1, -2), p)
                if alibi is not None:
                    g_self, g_cross = alibi.offset_grads(g_logits, s0)
                    grads.add(alibi.b_self, g_self)
                    grads.add(alibi.b_cross, g_cross)
                np.matmul(g_logits, kv_k, out=g_qs[..., s0:s1, k, :])
                g_kv_k = g_kv[..., k, :s1, :]
                g_kv_k += np.swapaxes(p, -1, -2) @ g_read
                g_kv_k += np.swapaxes(g_logits, -1, -2) @ qs[..., s0:s1, k, :]
                if n_diag:
                    i = k % n_diag
                    if g_diag_logits[i] is None:
                        g_diag_logits[i] = g_logits
                    else:
                        g_diag_logits[i] += g_logits
            for i, g_dl in enumerate(g_diag_logits):
                np.matmul(g_dl, h_tt, out=g_uds[i][..., s0:s1, :])
                g_h[..., :s1, :] += np.swapaxes(g_dl, -1, -2) @ (u_t * diag_t[i])
        g_qs = g_qs.reshape(reads.shape)
        g_wq = _outer_rows(g_qs, u).reshape(w_q.shape)
        g_wq *= inv_tau
        g_u = g_qs @ w_qt
        if diag is not None:
            g_diag = np.empty_like(diag.data)
            for i, g_ud in enumerate(g_uds):
                g_diag[i] = _rows(g_ud * u).sum(axis=0) * inv_tau
                g_ud *= diag_t[i]
                g_u += g_ud
            grads.add(diag, g_diag)
            grads.add(h, g_h)
        grads.add(kv, g_kv)
        grads.add(params.w_q, g_wq)
        _add_state_cotangent(grads, x, g_u, norm, saved)
        return grads.ordered(parents)

    return record(out, tuple(parents), vjp)


# ---------------------------------------------------------------------------
# recurrent MLP


@dataclass
class CemMlpParams:
    """Recurrent gated MLP with the down projection tied to v.

    v doubles as up and (transposed) down projection; w computes the
    gate from the frozen input once. Two matrices against the gated
    reference's three.
    """

    w: Tensor  # (D_m, D_h), gate projection of the frozen input
    v: Tensor  # (D_m, D_h), tied up/down projection of the state
    steps: int = 1
    eta: Tensor | float = 1.0
    precond: PreconditionerParams | None = None
    inner_norm: RmsNormParams | None = None

    def __post_init__(self):
        if self.w.shape != self.v.shape or self.w.ndim != 2:
            raise DimensionError(
                f"w and v must be matching (D_m, D_h) matrices, got "
                f"{self.w.shape} and {self.v.shape}"
            )
        if self.steps < 1:
            raise DomainError("steps must be >= 1")


def cem_mlp(h: Tensor, params: CemMlpParams) -> Tensor:
    """Run the recurrent MLP state update rowwise over (..., D_h): the
    final state, same shape as h, i.e. the last state cem_mlp_states
    yields."""
    for x in cem_mlp_states(h, params):
        pass
    return x


def cem_mlp_states(h: Tensor, params: CemMlpParams):
    """Yield the states x_1, ..., x_T of the recurrent MLP update.

    The gate (w h) and the read-out weight v P are computed once; each
    step gates silu(v u) with the gate, projects back through v P, and
    adds; it records one tape node. Every state has the shape of h.
    """
    d = h.shape[-1]
    if params.inner_norm is not None:
        _check_width("inner norm gain", params.inner_norm.gain.shape, (d,))
    v_out = params.v if params.precond is None else apply_preconditioner(params.v, params.precond)
    gate = matmul(h, swap_last2(params.w))  # (..., D_m), frozen
    x = h
    for _ in range(params.steps):
        x = _mlp_step(x, gate, v_out, params)
        yield x


def _mlp_step(x: Tensor, gate: Tensor, v_out: Tensor, params: CemMlpParams) -> Tensor:
    """x + eta * (gate * silu(v u)) v_out as one tape node, where v_out =
    v P is the read-out weight cem_mlp folded (v itself without a
    preconditioner). Without one this is the composed layer's arithmetic
    order; with one, the composed layer preconditions the token rows."""
    norm = params.inner_norm
    eta = params.eta.data if isinstance(params.eta, Tensor) else params.eta
    parents = [x, gate, params.v, v_out]  # v_out is v without a preconditioner
    if norm is not None:
        parents.append(norm.gain)
    if isinstance(params.eta, Tensor):
        parents.append(params.eta)

    xd, v, v_o = x.data, params.v.data, v_out.data
    u, saved = _normalised_state(xd, norm)
    a = u @ v.T
    keep = recording(parents)  # only then does a VJP read a and s
    z, s = silu_forward(a, out=None if keep else a)
    m = np.multiply(z, gate.data, out=z)  # the VJP rebuilds z and m from a and s
    if not keep:
        s = None  # off the tape z and m overwrote a; free the sigmoid before the read-out
    step = m @ v_o
    # only a learnable eta's cotangent reads step; otherwise it becomes out
    out = step * eta if isinstance(params.eta, Tensor) else np.multiply(step, eta, out=step)
    out += xd  # xd + step * eta: addition commutes exactly

    def vjp(c):
        grads = _Cotangents()
        grads.add(x, c)
        if isinstance(params.eta, Tensor):
            grads.add(params.eta, np.sum(c * step))
        g_step = c * eta
        g_m = g_step @ v_o.T
        z = a * s  # the forward's own operations, so the same bits
        grads.add(gate, g_m * z)
        m = np.multiply(z, gate.data, out=z)
        grads.add(v_out, _outer_rows(m, g_step))
        g_m *= gate.data
        g_a = silu_vjp(g_m, a, s)
        grads.add(params.v, _outer_rows(g_a, _rebuilt_state(xd, saved)))
        g_u = g_a @ v
        _add_state_cotangent(grads, x, g_u, norm, saved)
        return grads.ordered(parents)

    return record(out, tuple(parents), vjp)
