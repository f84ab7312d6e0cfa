"""Composed-op reference for the fused recurrent layers and the loss.

These are the recurrent attention and MLP layers, the RMS norm, the
preconditioner and the cross-entropy loss composed from tape primitives
alone, so their gradients come from the primitives' own backward rules,
and heads are composed one at a time from slices of the stacked
parameters; the preconditioner acts on token rows. The fused forms in
energyformer.layers and energyformer.model, and the package's weight
fold of the preconditioner, must reproduce them to rounding, forward
and backward (see test_fused.py and test_model.py). The exp, log, neg,
rsqrt and take_along_lastdim primitives live here because only these
references and the primitive tests use them.
"""

import numpy as np

from energyformer.layers import (
    CemAttentionParams,
    CemMlpParams,
    PreconditionerParams,
    RmsNormParams,
    causal_mask,
)
from energyformer.tensor import (
    DimensionError,
    DomainError,
    Tensor,
    add,
    matmul,
    mul,
    record,
    silu,
    softmax_lastdim,
    softplus,
    sub,
    swap_last2,
    tmean,
    tsum,
)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return record(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive input")
    return record(np.log(a.data), (a,), lambda g: (g / a.data,))


def neg(a: Tensor) -> Tensor:
    return record(-a.data, (a,), lambda g: (-g,))


def rsqrt(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("rsqrt requires strictly positive input")
    out = 1.0 / np.sqrt(a.data)
    return record(out, (a,), lambda g: (-0.5 * g * out / a.data,))


def take_along_lastdim(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry per trailing row: out[...] = a[..., idx[...]]."""
    idx = np.asarray(idx)
    if idx.shape != a.shape[:-1]:
        raise DimensionError(
            f"take_along_lastdim: index shape {idx.shape} must equal {a.shape[:-1]}"
        )
    if np.any(idx < 0) or np.any(idx >= a.shape[-1]):
        raise DomainError("take_along_lastdim index out of range")
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx[..., None], g[..., None], axis=-1)
        return (ga,)

    return record(out, (a,), vjp)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy from raw logits.

    Stable log-sum-exp with a detached shift: the max is a constant by
    shift invariance, so excluding it from the tape changes nothing.
    """
    targets = np.asarray(targets)
    m = np.max(logits.data, axis=-1, keepdims=True)
    shifted = sub(logits, Tensor(m))
    lse = add(log(tsum(exp(shifted), axis=-1)), Tensor(m[..., 0]))
    picked = take_along_lastdim(logits, targets)
    return tmean(sub(lse, picked))


def head(t: Tensor, k: int) -> Tensor:
    """Entry k along the leading (head) axis of a stacked tensor."""

    def vjp(g):
        full = np.zeros_like(t.data)
        full[k] = g
        return (full,)

    return record(t.data[k], (t,), vjp)


def head_preconditioner(params: PreconditionerParams, k: int) -> PreconditionerParams:
    """Head k of a stacked preconditioner, traced back to the stack."""
    return PreconditionerParams(
        *(None if t is None else head(t, k) for t in (params.p, params.u, params.v))
    )


def rmsnorm(x: Tensor, params: RmsNormParams) -> Tensor:
    """x * gain / sqrt(mean(x^2) + eps) along the last axis."""
    ms = tmean(mul(x, x), axis=-1, keepdims=True)
    return mul(mul(x, rsqrt(add(ms, params.eps))), params.gain)


def apply_preconditioner(g: Tensor, params: PreconditionerParams) -> Tensor:
    """Apply P to rows of g without forming the (dim, dim) matrix.

    The diagonal factor is softplus-positive; the low-rank part is the
    symmetric pair (g u) v.T + (g v) u.T.
    """
    if g.shape[-1] != params.dim:
        raise DimensionError(
            f"preconditioner dim {params.dim} does not match state dim {g.shape[-1]}"
        )
    scale = float(np.sqrt(params.dim))
    out = mul(g, softplus(mul(params.p, scale)))
    if params.u is not None:
        out = add(out, matmul(matmul(g, params.u), swap_last2(params.v)))
        out = add(out, matmul(matmul(g, params.v), swap_last2(params.u)))
    return out


def cem_attention(h: Tensor, params: CemAttentionParams) -> Tensor:
    """Run the recurrent attention state update over a full sequence.

    Keys and values are the same tied projection of the frozen input h,
    computed once. Each step re-projects the current (optionally
    normalised) state into queries, attends causally, maps the read-out
    back through w_q transposed, preconditions, and adds. Returns the
    final state x_T for every position, shape of h.
    """
    n = h.shape[-2]
    mask = causal_mask(n)
    kv = [matmul(h, swap_last2(head(params.w_k, k))) for k in range(params.n_heads)]
    bias = None if params.alibi is None else params.alibi.bias_matrix(n)
    h_t = swap_last2(h)

    x = h
    for _ in range(params.steps):
        u = x if params.inner_norm is None else rmsnorm(x, params.inner_norm)
        shared = None
        if params.diag is not None and params.diag.shape[0] == 1:
            # one diagonal for all heads: compute its logit term once
            shared = matmul(mul(u, head(params.diag, 0)), h_t)
        upd = None
        for k in range(params.n_heads):
            w_q = head(params.w_q, k)
            q = matmul(u, swap_last2(w_q))
            logits = matmul(q, swap_last2(kv[k]))
            if shared is not None:
                logits = add(logits, shared)
            elif params.diag is not None:
                logits = add(logits, matmul(mul(u, head(params.diag, k)), h_t))
            logits = mul(logits, 1.0 / params.tau)
            if bias is not None:
                logits = add(logits, head(bias, k))
            p = softmax_lastdim(logits, mask=mask)
            delta = matmul(matmul(p, kv[k]), w_q)
            if params.precond is not None:
                delta = apply_preconditioner(delta, head_preconditioner(params.precond, k))
            upd = delta if upd is None else add(upd, delta)
        x = add(x, mul(upd, params.eta))
    return x


def cem_mlp(h: Tensor, params: CemMlpParams) -> Tensor:
    """Run the recurrent MLP state update rowwise over (..., D_h).

    The gate (w h) is computed once from the frozen input; each step
    gates silu(v u) with it, projects back through v.T, preconditions,
    and adds. Returns the final state, same shape as h.
    """
    gate = matmul(h, swap_last2(params.w))  # (..., D_m), frozen
    x = h
    for _ in range(params.steps):
        u = x if params.inner_norm is None else rmsnorm(x, params.inner_norm)
        z = silu(matmul(u, swap_last2(params.v)))
        g = matmul(mul(gate, z), params.v)
        if params.precond is not None:
            g = apply_preconditioner(g, params.precond)
        x = add(x, mul(g, params.eta))
    return x
