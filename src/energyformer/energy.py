"""Explicit per-token energy functions and their exact gradients.

Two conditional energies over a token state x given a context:

* interaction energy: couples x to every earlier hidden state through
  a sum of K head terms, each a log-sum-exp over context positions of a
  bilinear form at temperature tau. Its negative gradient is a
  softmax-weighted sum of projected context vectors per head, which is
  exactly the shape of a causal multi-head attention read-out. The head
  factors are (K, D_r, D_h) stacks, the layout the attention layers
  store.

* elementwise energy: couples x to its own hidden state through a pair
  of projections and the antiderivative of silu. Its negative gradient
  is a gated two-layer perceptron.

Each energy and gradient takes a stack of states x (..., D_h) scored
against one context, so a descent trace scores all its states in one
call; a single (D_h,) state gives a float energy and a (D_h,) gradient.
The context projections are computed once per call, and the
log-sum-exp is the same numpy max shift the gradient's softmax uses.

Everything here is plain numpy on purpose and shares no code with the
recurrent layers, whose steps run as fused tape nodes; tests require
the two routes to agree to tight tolerances. The scipy.special routines
the element-wise energy needs (spence, expit) are imported inside the
functions that call them, so importing the package loads no scipy:
only the verify oracles and the energy tests evaluate an energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import DimensionError, DomainError


def silu_antiderivative(z):
    """Antiderivative phi of silu with phi(-inf) = 0.

    Closed form: phi(z) = z*softplus(z) + Li2(-e^z). The dilogarithm is
    evaluated through scipy's spence (Li2(y) = spence(1 - y)); for
    z > 0 the reflection Li2(-e^z) = -pi^2/6 - z^2/2 - Li2(-e^-z)
    keeps the argument bounded.

    Not monotone: phi dips below zero where silu is negative, then
    grows like z^2/2. phi(0) = -pi^2/12.
    """
    from scipy.special import spence

    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    neg = z <= 0.0
    zn = z[neg]
    out[neg] = zn * np.logaddexp(0.0, zn) + spence(1.0 + np.exp(zn))
    zp = z[~neg]
    li2 = -(np.pi**2) / 6.0 - 0.5 * zp * zp - spence(1.0 + np.exp(-zp))
    out[~neg] = zp * np.logaddexp(0.0, zp) + li2
    return out if out.ndim else float(out)


def silu_np(z):
    from scipy.special import expit

    z = np.asarray(z, dtype=np.float64)
    return z * expit(z)


def alibi_slopes(n_heads: int) -> np.ndarray:
    """Geometric head slopes 2^-1, 2^-2, ..., 2^-K."""
    if n_heads < 1:
        raise DomainError("n_heads must be >= 1")
    return 2.0 ** (-np.arange(1, n_heads + 1, dtype=np.float64))


@dataclass(frozen=True)
class AlibiSpec:
    """Distance-linear logit bias plus learnable self/cross offsets.

    bias(i, j, k) = -slopes[k] * |i - j| + (b_self if i == j else b_cross)
    with positions counted 1-based over the visible history.
    """

    slopes: np.ndarray
    b_self: float = 0.0
    b_cross: float = 0.0

    def bias_row(self, i: int, n_ctx: int, head: int) -> np.ndarray:
        """Bias over context positions j = 1..n_ctx for query position i."""
        j = np.arange(1, n_ctx + 1, dtype=np.float64)
        dist = np.abs(float(i) - j)
        off = np.where(j == float(i), self.b_self, self.b_cross)
        return -self.slopes[head] * dist + off


@dataclass(frozen=True)
class InteractionEnergySpec:
    """Per-head bilinear coupling for the interaction energy.

    Heads are given either as explicit square matrices (`full`, a
    (K, D_h, D_h) stack, used as a test oracle) or factored as
    w_q[k].T @ w_k[k] with an optional diagonal term, which is the
    production parameterization. Every head field is indexed by head
    along its first axis.
    """

    tau: float
    w_q: np.ndarray | None = None  # (K, D_r, D_h)
    w_k: np.ndarray | None = None  # (K, D_r, D_h)
    diag: np.ndarray | None = None  # (K, D_h), optional
    full: np.ndarray | None = None  # (K, D_h, D_h), oracle mode
    alibi: AlibiSpec | None = None

    def __post_init__(self):
        if self.tau <= 0.0:
            raise DomainError("tau must be positive")
        if (self.full is None) == (self.w_q is None):
            raise DomainError("give exactly one of full or factored head matrices")
        if self.w_q is not None and self.w_k is not None:
            if len(self.w_q) != len(self.w_k):
                raise DimensionError("w_q and w_k must have one matrix per head")

    @property
    def n_heads(self) -> int:
        return len(self.full) if self.full is not None else len(self.w_q)

    def head_matrix(self, k: int) -> np.ndarray:
        """Materialize A_k = w_q[k].T @ w_k[k] (+ diag), or return full[k]."""
        if self.full is not None:
            return self.full[k]
        a = self.w_q[k].T @ self.w_k[k]
        if self.diag is not None:
            a = a + np.diag(self.diag[k])
        return a

    def context_projections(self, history: np.ndarray, k: int) -> np.ndarray:
        """beta_{kj} = A_k h_j for all context rows, shape (n_ctx, D_h)."""
        if self.full is not None:
            return history @ self.full[k].T
        beta = (history @ self.w_k[k].T) @ self.w_q[k]
        if self.diag is not None:
            beta = beta + history * self.diag[k]
        return beta


def _check_context(x: np.ndarray, history: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    history = np.asarray(history, dtype=np.float64)
    if x.ndim < 1:
        raise DimensionError(f"token states must be (..., D_h), got shape {x.shape}")
    if history.ndim != 2:
        raise DimensionError(f"history must be (n_ctx, D_h), got {history.shape}")
    if history.shape[0] == 0:
        raise DomainError("history must contain at least one token")
    if history.shape[1] != x.shape[-1]:
        raise DimensionError(
            f"state dim {x.shape[-1]} does not match history dim {history.shape[1]}"
        )
    return x, history


def _interaction_logits(x, history, spec: InteractionEnergySpec, query_index):
    """Per head, (m, e, beta): the (..., 1) max of the logits over the
    context, exp(logits - m) and the (n_ctx, D_h) context projections.
    The max shift is shared by the log-sum-exp and the softmax."""
    n_ctx = history.shape[0]
    i = n_ctx if query_index is None else int(query_index)
    if i < n_ctx:
        raise DomainError("query index must not precede the visible history")
    heads = []
    for k in range(spec.n_heads):
        beta = spec.context_projections(history, k)  # (n_ctx, D_h)
        a = x @ beta.T / spec.tau  # (..., n_ctx)
        if spec.alibi is not None:
            a = a + spec.alibi.bias_row(i, n_ctx, k)
        m = a.max(axis=-1, keepdims=True)
        heads.append((m, np.exp(a - m), beta))
    return heads


def interaction_energy(
    x,
    history,
    spec: InteractionEnergySpec,
    query_index: int | None = None,
):
    """Energy of the states x (..., D_h) against one causal history.

    -tau * sum_k logsumexp_j( beta_{kj}.x / tau + bias_{ijk} ) over the
    visible context j = 1..n_ctx, per state: a float for a single (D_h,)
    state, an array of shape x.shape[:-1] for a stack. Lower is better;
    the minimizer pulls x toward the dominant projected context
    directions.
    """
    x, history = _check_context(x, history)
    total = np.zeros(x.shape[:-1])
    for m, e, _ in _interaction_logits(x, history, spec, query_index):
        total -= spec.tau * (m[..., 0] + np.log(e.sum(axis=-1)))
    return float(total) if x.ndim == 1 else total


def interaction_energy_grad(
    x,
    history,
    spec: InteractionEnergySpec,
    query_index: int | None = None,
) -> np.ndarray:
    """Exact gradient d/dx of interaction_energy, shape of x.

    Per head: -sum_j softmax(a)_j * beta_{kj}; the softmax is over the
    same biased logits the energy uses.
    """
    x, history = _check_context(x, history)
    grad = np.zeros_like(x)
    for _, e, beta in _interaction_logits(x, history, spec, query_index):
        grad -= (e / e.sum(axis=-1, keepdims=True)) @ beta
    return grad


@dataclass(frozen=True)
class ElementwiseEnergySpec:
    """Projection pair for the per-token elementwise energy.

    w, v: (D_m, D_h). The energy reads -(w @ h) . phi(v @ x) with phi
    the silu antiderivative, so its negative x-gradient is the gated
    form v.T @ ((w @ h) * silu(v @ x)).
    """

    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if w.ndim != 2 or v.ndim != 2 or w.shape != v.shape:
            raise DimensionError(
                f"w and v must be matching (D_m, D_h) matrices, got {w.shape} and {v.shape}"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)


def _check_pair(x, h, spec: ElementwiseEnergySpec):
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim < 1 or h.ndim != 1 or x.shape[-1] != h.shape[0]:
        raise DimensionError(
            f"x must be (..., D_h) states of one (D_h,) h, got {x.shape} and {h.shape}"
        )
    if h.shape[0] != spec.w.shape[1]:
        raise DimensionError(
            f"state dim {h.shape[0]} does not match projection dim {spec.w.shape[1]}"
        )
    return x, h


def elementwise_energy(x, h, spec: ElementwiseEnergySpec):
    """-(w h) . phi(v x), with phi the silu antiderivative, per state of
    x (..., D_h): a float for a single state, else x.shape[:-1]."""
    x, h = _check_pair(x, h, spec)
    gate = spec.w @ h
    energy = -(silu_antiderivative(x @ spec.v.T) @ gate)
    return float(energy) if x.ndim == 1 else energy


def elementwise_energy_grad(x, h, spec: ElementwiseEnergySpec) -> np.ndarray:
    """Exact gradient d/dx: -v.T @ ((w h) * silu(v x)), shape of x."""
    x, h = _check_pair(x, h, spec)
    gate = spec.w @ h
    return -((gate * silu_np(x @ spec.v.T)) @ spec.v)
