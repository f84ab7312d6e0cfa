"""Forward and backward of single sublayers, timed in isolation.

Per-layer backward cannot be separated inside a real training step (the
tape runs every layer's VJPs in one sweep), so each sublayer kind is
timed on its own at a workload's shape: a one-block model supplies the
parameters, the public layer function runs under a tape, and a random
cotangent drives the backward sweep.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

import numpy as np

from energyformer import layers as ly
from energyformer import model as md
from energyformer.tensor import Tape, Tensor, mul, tsum

# metric stem -> (block slot, config kind, recursion steps, layer function)
LAYERS = {
    "reference_mha": ("attention", "reference", 1, "reference_mha"),
    "cem_attention_t1": ("attention", "cem", 1, "cem_attention"),
    "cem_attention_t2": ("attention", "cem", 2, "cem_attention"),
    "cem_attention_t4": ("attention", "cem", 4, "cem_attention"),
    "reference_gated_mlp": ("mlp", "gated", 1, "reference_gated_mlp"),
    "plain_mlp": ("mlp", "plain", 1, "plain_mlp"),
    "cem_mlp_t1": ("mlp", "cem", 1, "cem_mlp"),
    "cem_mlp_t2": ("mlp", "cem", 2, "cem_mlp"),
    "cem_mlp_t4": ("mlp", "cem", 4, "cem_mlp"),
    "rmsnorm": ("norm", None, 1, "rmsnorm"),
}

MIN_REPS = 3
BUDGET_S = 0.3  # per layer, beyond MIN_REPS


def _layer(block: md.BlockConfig, slot: str, kind, steps: int):
    if slot == "attention":
        block = dataclasses.replace(block, attention=kind, attn_steps=steps)
    elif slot == "mlp":
        block = dataclasses.replace(block, mlp=kind, mlp_steps=steps)
    model = md.build_model(md.ModelConfig(kind="lm", vocab_size=16, n_layers=1, block=block))
    built = model.blocks[0]
    return {"attention": built.attn, "mlp": built.mlp, "norm": built.mlp_norm}[slot]


def time_layer(fn, params, h: np.ndarray, cotangent: np.ndarray):
    """Median forward and backward seconds of fn(h, params) under a tape."""
    watched = list(md.named_tensors(params).values())
    fwd, bwd = [], []
    deadline = perf_counter() + BUDGET_S
    while len(fwd) < MIN_REPS or perf_counter() < deadline:
        x = Tensor(h)
        with Tape() as tape:
            tape.watch(x, *watched)
            start = perf_counter()
            out = fn(x, params)
            forwarded = perf_counter()
            loss = tsum(mul(out, Tensor(cotangent)))
            summed = perf_counter()
            tape.backward(loss)
            done = perf_counter()
        fwd.append(forwarded - start)
        bwd.append(done - summed)
    return statistics.median(fwd), statistics.median(bwd)


def isolated_metrics(block: md.BlockConfig, batch: int, seq: int) -> dict[str, float]:
    """layers.iso.<kind>.{fwd_ms,bwd_ms} at one (batch, seq, d_hidden) shape."""
    rng = np.random.default_rng(0)
    h = rng.normal(size=(batch, seq, block.d_hidden))
    cotangent = rng.normal(size=h.shape)
    out = {}
    for stem, (slot, kind, steps, fn_name) in LAYERS.items():
        params = _layer(block, slot, kind, steps)
        fwd, bwd = time_layer(getattr(ly, fn_name), params, h, cotangent)
        out[f"layers.iso.{stem}.fwd_ms"] = fwd * 1e3
        out[f"layers.iso.{stem}.bwd_ms"] = bwd * 1e3
    return out
