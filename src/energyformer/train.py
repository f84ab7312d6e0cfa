"""Optimizer, schedule, training loop, metrics, and the learning-rate
optimum estimator.

The optimizer is decoupled-decay Adam over the named parameter dict of a
model; the schedule is linear warmup into a cosine decay with a floor.
Metrics stream as line-delimited JSON and summarize to CSV. The
learning-rate estimator fits a local cubic through (rate, loss) knots
and reads off its exact minimum among the knots and critical points.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import model as md
from .data import DataError
from .tensor import Tape, Tensor, clip_by_global_norm

if TYPE_CHECKING:
    from scipy.interpolate import Akima1DInterpolator


class TrainingError(RuntimeError):
    """Non-finite loss or gradients, or inconsistent optimizer inputs."""


class InterpolationError(ValueError):
    """Bad knot set for the local-cubic interpolator."""


@dataclass
class OptimConfig:
    lr: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-9
    weight_decay: float = 0.1
    clip: float = 1.0
    total_steps: int = 100
    warmup_fraction: float = 0.05
    final_lr_factor: float = 0.1
    batch_size: int = 128

    def validate(self) -> None:
        if not self.lr > 0:  # written so that NaN fails too
            raise TrainingError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise TrainingError("betas must lie in [0, 1)")
        if not self.eps > 0:
            raise TrainingError("eps must be positive")
        if not self.weight_decay >= 0:
            raise TrainingError("weight_decay must be non-negative")
        if not self.clip > 0:
            raise TrainingError("clip must be positive")
        if self.total_steps < 0:
            raise TrainingError("total_steps must be non-negative")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise TrainingError("warmup_fraction must be in (0, 1)")
        if not 0.0 < self.final_lr_factor <= 1.0:
            raise TrainingError("final_lr_factor must be in (0, 1]")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")


def warmup_steps(cfg: OptimConfig) -> int:
    return max(1, int(round(cfg.warmup_fraction * cfg.total_steps)))


def lr_schedule(step: int, cfg: OptimConfig) -> float:
    """Learning rate at an integer step.

    Linear from zero to the peak over the warmup span, then cosine down
    to final_lr_factor times the peak at total_steps; beyond that it
    stays clamped at the floor.
    """
    if step < 0:
        raise TrainingError(f"step must be >= 0, got {step}")
    if cfg.total_steps < 1:
        raise TrainingError("schedule undefined for total_steps < 1")
    floor = cfg.lr * cfg.final_lr_factor
    if step >= cfg.total_steps:
        return floor
    w = warmup_steps(cfg)
    if step <= w:
        return cfg.lr * step / w
    progress = (step - w) / (cfg.total_steps - w)
    cosine = 0.5 * (1.0 + np.cos(np.pi * progress))
    return floor + (cfg.lr - floor) * cosine


def wants_decay(name: str, tensor: Tensor) -> bool:
    """Matrices decay; gains, biases, scalars, K/Q diagonals (stored as
    (1 or K, D_h) rows) and preconditioners do not."""
    return tensor.data.ndim >= 2 and ".precond" not in name and not name.endswith(".diag")


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam_state(params: dict[str, Tensor]) -> AdamState:
    state = AdamState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: OptimConfig,
) -> float:
    """One decoupled-decay Adam update in place; returns the LR used.

    Every input is checked before anything is written, so a step that
    raises TrainingError leaves params and state exactly as they were.
    """
    if not set(params) == set(state.m) == set(state.v):
        raise TrainingError("optimizer state does not match the parameter set")
    if set(grads) != set(params):
        raise TrainingError("gradients do not match the parameter set")
    checked = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not g.shape == p.data.shape == state.m[name].shape == state.v[name].shape:
            raise TrainingError(f"gradient or moment shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
        checked[name] = g
    state.t += 1
    # first update runs at schedule step 1, the last at total_steps, so
    # the final factor is the last rate actually applied
    lr = lr_schedule(state.t, cfg)
    b1c = 1.0 - cfg.beta1**state.t
    b2c = 1.0 - cfg.beta2**state.t
    for name, p in params.items():
        g = checked[name]
        m, v = state.m[name], state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        if cfg.weight_decay and wants_decay(name, p):
            p.data = p.data * (1.0 - lr * cfg.weight_decay)
        p.data = p.data - lr * (m / b1c) / (np.sqrt(v / b2c) + cfg.eps)
    return lr


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place to the norm ball; returns the pre-clip norm."""
    clipped, norm = clip_by_global_norm(grads, max_norm)
    grads.update(clipped)
    return norm


# ---------------------------------------------------------------------------
# training loop


@dataclass
class RunMetrics:
    records: list[dict]
    initial_train_loss: float
    final_train_loss: float
    final_eval: dict[str, float]


def train_loop(
    model: md.Model,
    batch_stream,
    cfg: OptimConfig,
    loss_fn,
    eval_fn=None,
    log_every: int = 50,
    metrics_path: str | Path | None = None,
    summary_csv_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
) -> RunMetrics:
    """Optimize the model for cfg.total_steps batches.

    loss_fn(model, batch) must build a scalar loss on the active tape.
    eval_fn(model) returns a metric dict; it runs once, after the last
    step. A non-finite loss aborts after dumping the not-yet-updated
    parameters as the last-good checkpoint.

    One step's graph is alive at a time: the loss that roots it is
    dropped once its gradients are read, so the next step's forward, the
    eval and the checkpoint run without it. The heap keeps its high-water
    mark (see tensor.py), so a second graph held across a step boundary
    would stay in the resident set for the rest of the run.
    """
    cfg.validate()
    params = md.named_parameters(model)
    state = init_adam_state(params)
    records: list[dict] = []
    fh = open(metrics_path, "w") if metrics_path is not None else None

    def emit(step: int, split: str, metric: str, value: float) -> None:
        rec = {"step": step, "split": split, "metric": metric, "value": float(value)}
        records.append(rec)
        if fh is not None:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()

    initial_loss = final_loss = float("nan")
    try:
        for step in range(cfg.total_steps):
            batch = next(batch_stream)
            with Tape() as tape:
                for p in params.values():
                    tape.watch(p)
                loss = loss_fn(model, batch)
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    if checkpoint_path is not None:
                        md.save_checkpoint(model, checkpoint_path)
                    raise TrainingError(
                        f"non-finite loss {loss_value} at step {step}; "
                        "parameters before this step were saved"
                    )
                grad_tensors = tape.backward(loss)
            del loss  # the root of this step's graph, which must not outlive the step
            grads = {name: np.asarray(grad_tensors[p].data) for name, p in params.items()}
            norm = clip_gradients(grads, cfg.clip)
            adamw_step(params, grads, state, cfg)

            if step == 0:
                initial_loss = loss_value
            final_loss = loss_value
            if step % log_every == 0 or step == cfg.total_steps - 1:
                emit(step, "train", "loss", loss_value)
                emit(step, "train", "grad_norm", norm)

        final_eval: dict[str, float] = {}
        if eval_fn is not None:
            final_eval = {k: float(v) for k, v in eval_fn(model).items()}
            for metric, value in final_eval.items():
                emit(max(cfg.total_steps - 1, 0), "eval", metric, value)
    finally:
        if fh is not None:
            fh.close()

    if checkpoint_path is not None:
        md.save_checkpoint(model, checkpoint_path)
    if summary_csv_path is not None:
        with open(summary_csv_path, "w", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(["step", "split", "metric", "value"])
            for rec in records:
                writer.writerow([rec["step"], rec["split"], rec["metric"], rec["value"]])
    return RunMetrics(
        records=records,
        initial_train_loss=initial_loss,
        final_train_loss=final_loss,
        final_eval=final_eval,
    )


def lm_loss(model: md.Model, windows: np.ndarray) -> Tensor:
    """Next-byte cross entropy on a batch of token windows."""
    windows = np.asarray(windows)
    return md.cross_entropy(md.forward(model, windows[:, :-1]), windows[:, 1:])


def eval_workers() -> int:
    """Threads lm_eval spreads each batch over: usable CPUs per BLAS thread.

    The BLAS thread count is the first of OPENBLAS_NUM_THREADS,
    MKL_NUM_THREADS and OMP_NUM_THREADS that is set. Unset, BLAS may
    already use every core, so one worker.
    """
    blas = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                         "OMP_NUM_THREADS") if os.environ.get(v)), "")
    if not blas.isdigit() or int(blas) < 1:
        return 1  # unset or unreadable: BLAS picks its own count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // int(blas))


def lm_eval(model: md.Model, windows: np.ndarray, batch_size: int = 64):
    """Mean held-out cross entropy and perplexity over fixed windows.

    At most batch_size windows are in flight at once. Each batch splits
    into one contiguous group per eval_workers() thread; the groups'
    tape-off forwards run concurrently (their ufunc loops and BLAS calls
    release the GIL) and the logits join in window order, so the loss is
    bit-identical for any worker count. Pool threads have no tape, so
    they never record, and every group runs under the caller's numpy
    error state.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.dtype.kind not in "iu" or windows.shape[1] < 2:
        raise DataError("lm_eval needs a 2-D integer array of windows of >= 2 tokens, "
                        f"got {windows.dtype} of shape {windows.shape}")
    if len(windows) == 0:
        raise DataError("lm_eval got an empty window set: no tokens to average over")
    if batch_size < 1:
        raise DataError(f"lm_eval batch_size must be >= 1, got {batch_size}")
    workers, err = eval_workers(), np.geterr()

    def forward(inputs):
        with np.errstate(**err):  # a new thread starts under numpy's defaults
            return md.forward(model, inputs).data

    total, count = 0.0, 0
    # the calling thread runs the first group; the pool starts no thread for one worker
    with concurrent.futures.ThreadPoolExecutor(max(1, workers - 1)) as pool:
        for start in range(0, windows.shape[0], batch_size):
            chunk = windows[start : start + batch_size]
            head, *rest = np.array_split(chunk[:, :-1], min(workers, len(chunk)))
            futures = [pool.submit(forward, group) for group in rest]
            parts = [forward(head)] + [future.result() for future in futures]
            logits = parts[0] if len(parts) == 1 else np.concatenate(parts)
            loss = float(md.cross_entropy(Tensor(logits), chunk[:, 1:]).data)
            tokens = chunk.shape[0] * (chunk.shape[1] - 1)
            total += loss * tokens
            count += tokens
    mean = total / count
    return {"loss": mean, "perplexity": float(np.exp(mean))}


def regression_loss(model: md.Model, batch) -> Tensor:
    return md.mse(md.forward(model, batch.inputs), batch.targets)


def regression_eval(model: md.Model, batches):
    out = {}
    for batch in batches:
        pred = md.forward(model, batch.inputs).data
        out[f"rmse_{batch.split}"] = float(
            np.sqrt(np.mean((pred - batch.targets) ** 2))
        )
    return out


# ---------------------------------------------------------------------------
# local-cubic interpolation and the learning-rate optimum


@dataclass
class AkimaCurve:
    """Akima's (1970) local piecewise cubic through the knots.

    Knot derivatives blend the two adjacent chord slopes, each weighted
    by the slope variation on the opposite side, so the curve stays local
    and does not overshoot near abrupt changes. scipy's
    Akima1DInterpolator builds it; this wrapper confines evaluation to
    the knot span and finds the exact minimum.
    """

    spline: Akima1DInterpolator

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < self.spline.x[0]) or np.any(x > self.spline.x[-1]):
            raise InterpolationError("evaluation outside the knot span")
        out = self.spline(x)
        return float(out) if out.ndim == 0 else out

    def argmin(self):
        """Location and value of the curve minimum over the knot span.

        A cubic piece attains its minimum at an end or at a critical
        point, so the knots plus the derivative's roots inside the span
        hold it exactly. Ties keep the leftmost candidate, so a flat
        curve reports the left endpoint.
        """
        roots = self.spline.derivative().roots(extrapolate=False)
        candidates = np.sort(np.concatenate([self.spline.x, roots[np.isfinite(roots)]]))
        values = self.spline(candidates)
        best = int(np.argmin(values))
        return float(candidates[best]), float(values[best])


def akima_interpolate(xs, ys) -> AkimaCurve:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise InterpolationError(f"knots must be matching 1-d arrays, got {xs.shape} and {ys.shape}")
    if xs.size < 5:
        raise InterpolationError(f"need at least 5 knots, got {xs.size}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InterpolationError("knot positions and values must be finite")
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    if np.any(np.diff(xs) <= 0):
        raise InterpolationError("knot positions must be distinct")
    # imported here: the package itself loads no scipy, scipy.interpolate
    # takes about 0.6 s to import on top of the package's 0.2 s (2 vCPUs),
    # and only the learning-rate sweep fits curves
    from scipy.interpolate import Akima1DInterpolator

    return AkimaCurve(Akima1DInterpolator(xs, ys))


def lr_sweep_points(low: float, high: float, n: int) -> np.ndarray:
    """Log-spaced candidate learning rates for the sweep protocol."""
    return np.logspace(np.log10(low), np.log10(high), n)


def estimate_lr_optimum(lrs, losses) -> tuple[float, float]:
    """Best learning rate from sweep results, interpolating on log10(lr).

    Returns (rate, interpolated loss). The log axis matches how the
    sweep is spaced; the returned rate is mapped back to linear scale.
    """
    lrs = np.asarray(lrs, dtype=np.float64)
    if np.any(lrs <= 0):
        raise InterpolationError("learning rates must be positive")
    curve = akima_interpolate(np.log10(lrs), np.asarray(losses, dtype=np.float64))
    x, y = curve.argmin()
    return float(10.0**x), float(y)
