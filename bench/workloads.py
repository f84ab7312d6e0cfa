"""The four benchmark workloads, driven through the package's public API.

Each workload builds its inputs from the benchmark seed in ``setup``,
runs one unit of work per ``run_unit`` call (a training session, one
eval batch, one round of GP training over every variant, one verify
battery pass), and checks the program's outputs in ``gates``.

A step is the unit the step-time metrics are taken over:

* lm-train: one train step, the interval between successive batch
  requests from the benchmark's own stream (the last step of a session
  has no successor and is not sampled);
* lm-eval-long: one ``lm_eval`` call on one 4x256-token batch;
* gp-train: one optimizer step of every variant, i.e. the sum of the
  i-th step intervals of plain, gated, cem-t1 and cem-t2, so that the
  sample distribution does not depend on how many variants a run
  reached;
* verify-fast: one ``verify.run_all(fast=True)`` pass.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from energyformer import cli, data, verify
from energyformer import model as md
from energyformer import train as tr
from energyformer.tensor import Tape


@dataclass
class Tally:
    """What one measured phase did."""

    step_s: list[float] = field(default_factory=list)  # sampled step durations
    items: int = 0          # tokens / rows / check cases in the sampled steps
    steps: int = 0          # steps executed, sampled or not
    units: int = 0
    attempted: int = 0
    failed: int = 0
    batch_wait_s: float = 0.0


def intervals(stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


@dataclass
class Session:
    stamps: list[float]
    losses: list[float]
    metrics: tr.RunMetrics | None
    error: str | None


def train_session(model, batches, optim, loss_fn, eval_fn, out: Path, tally: Tally,
                  tracer, log_every: int, summary_csv: bool, prefix: str = "") -> Session:
    """train_loop over the benchmark's own batch stream, with the metrics
    file, checkpoint (and for the LM the summary CSV) that the CLI passes."""
    stamps: list[float] = []
    losses: list[float] = []

    def stream():
        while True:
            start = perf_counter()
            stamps.append(start)
            batch = next(batches)
            tally.batch_wait_s += perf_counter() - start
            yield batch

    def counted_loss(m, batch):
        loss = loss_fn(m, batch)
        losses.append(float(loss.data))
        return loss

    if tracer is not None:
        eval_fn = tracer.span("train.eval", eval_fn)
    try:
        metrics = tr.train_loop(
            model,
            stream(),
            optim,
            counted_loss,
            eval_fn=eval_fn,
            log_every=log_every,
            metrics_path=out / f"{prefix}metrics.jsonl",
            summary_csv_path=out / f"{prefix}summary.csv" if summary_csv else None,
            checkpoint_path=out / f"{prefix}model.bin",
        )
    except tr.TrainingError as exc:
        return Session(stamps, losses, None, str(exc))
    return Session(stamps, losses, metrics, None)


def finite_count(values) -> int:
    return sum(1 for v in values if math.isfinite(v))


def rows(h) -> int:
    return int(np.prod(h.shape[:-1]))


def register_flop_models(tracer, cfg: md.ModelConfig) -> None:
    """FLOPs of each traced layer call, computed from count_flops and the
    call's shape (count_flops at seq_len 1 is exact for the row-wise MLP)."""
    if tracer is None:
        return
    mlp_group = {"cem": "layers.cem_mlp", "gated": "layers.reference_gated_mlp",
                 "plain": "layers.plain_mlp"}[cfg.block.mlp]
    per_row = md.count_flops(cfg, 1)["mlp"] / (cfg.n_layers * cfg.reuse)
    tracer.flop_models[mlp_group] = lambda args: per_row * rows(args[0])
    if cfg.block.attention == "none":
        return
    attn_group = {"cem": "layers.cem_attention", "reference": "layers.reference_mha"}[
        cfg.block.attention]
    per_seq: dict[int, float] = {}

    def attention_flops(args):
        seq = args[0].shape[-2]
        if seq not in per_seq:
            per_seq[seq] = md.count_flops(cfg, seq)["attention"] / (cfg.n_layers * cfg.reuse)
        return per_seq[seq] * rows(args[0]) / seq

    tracer.flop_models[attn_group] = attention_flops


class Workload:
    name = ""
    min_units = 1
    # (block config, batch, seq_len) for the isolated layer timings
    iso_shape: tuple

    def setup(self, seed: int, out: Path):
        """Return (state, {timing name: seconds})."""
        raise NotImplementedError

    def warmup(self, state) -> None:
        raise NotImplementedError

    def run_unit(self, state, tally: Tally, tracer) -> None:
        raise NotImplementedError

    def quality(self, state) -> float:
        raise NotImplementedError

    def gates(self, state) -> dict[str, bool]:
        raise NotImplementedError


class LmTrain(Workload):
    """lm-smoke training on 8x64-token batches of the bundled corpus."""

    name = "lm-train"
    SEQ = 65          # 64 input tokens plus the shifted target
    BATCH = 8
    STEPS = 40        # per session; quality is the loss after this many

    def __init__(self):
        self.cfg = md.preset("lm-smoke")
        self.optim = tr.OptimConfig(total_steps=self.STEPS, batch_size=self.BATCH)
        self.iso_shape = (self.cfg.block, self.BATCH, self.SEQ - 1)

    def setup(self, seed, out):
        start = perf_counter()
        windows = data.ingest_text(data.corpus_path(), self.SEQ)
        ingested = perf_counter()
        md.build_model(self.cfg, seed=seed)  # timed only: each session builds its own
        built = perf_counter()
        state = {"seed": seed, "windows": windows, "out": out, "sessions": []}
        return state, {"ingest": ingested - start, "build": built - ingested}

    def warmup(self, state):
        model = md.build_model(self.cfg, seed=state["seed"])
        batches = data.batch_iterator(state["windows"], self.BATCH, seed=state["seed"])
        warm = dataclasses.replace(self.optim, total_steps=2)
        tr.train_loop(model, batches, warm, tr.lm_loss)

    def run_unit(self, state, tally, tracer):
        seed, windows = state["seed"], state["windows"]
        register_flop_models(tracer, self.cfg)
        session = train_session(
            md.build_model(self.cfg, seed=seed),
            data.batch_iterator(windows, self.BATCH, seed=seed),
            self.optim,
            tr.lm_loss,
            lambda m: tr.lm_eval(m, windows[: min(len(windows), 64)]),
            state["out"],
            tally,
            tracer,
            log_every=max(1, self.STEPS // 20),
            summary_csv=True,
        )
        steps = intervals(session.stamps)
        tally.step_s += steps
        tally.items += len(steps) * self.BATCH * (self.SEQ - 1)
        tally.steps += len(session.losses)
        tally.attempted += self.STEPS
        tally.failed += self.STEPS - finite_count(session.losses)
        state["sessions"].append(session)

    def quality(self, state):
        losses = state["sessions"][0].losses
        return losses[-1] if losses else math.nan

    def gates(self, state):
        ok = all(
            s.error is None
            and len(s.losses) == self.STEPS
            and finite_count(s.losses) == self.STEPS
            and s.losses[-1] < s.losses[0]
            for s in state["sessions"]
        )
        return {"finite_loss_lower_at_end": ok}


class LmEvalLong(Workload):
    """Forward-only lm_eval, tape off, on 4x256-token corpus windows."""

    name = "lm-eval-long"
    SEQ = 257
    BATCH = 4
    QUALITY_BATCHES = 8   # eval_loss is the mean over the first 8 batches
    min_units = QUALITY_BATCHES

    def __init__(self):
        self.cfg = md.preset("lm-smoke")
        self.iso_shape = (self.cfg.block, self.BATCH, self.SEQ - 1)

    def setup(self, seed, out):
        start = perf_counter()
        windows = data.ingest_text(data.corpus_path(), self.SEQ)
        ingested = perf_counter()
        model = md.build_model(self.cfg, seed=seed)
        built = perf_counter()
        order = np.random.default_rng(seed).permutation(len(windows))
        n_batches = len(windows) // self.BATCH
        batches = [windows[order[i * self.BATCH:(i + 1) * self.BATCH]] for i in range(n_batches)]
        state = {"model": model, "batches": batches, "next": 0, "losses": []}
        return state, {"ingest": ingested - start, "build": built - ingested}

    def warmup(self, state):
        for batch in state["batches"][-2:]:
            tr.lm_eval(state["model"], batch, batch_size=self.BATCH)

    def run_unit(self, state, tally, tracer):
        register_flop_models(tracer, self.cfg)
        batch = state["batches"][state["next"] % len(state["batches"])]
        state["next"] += 1
        start = perf_counter()
        loss = tr.lm_eval(state["model"], batch, batch_size=self.BATCH)["loss"]
        tally.step_s.append(perf_counter() - start)
        tally.items += self.BATCH * (self.SEQ - 1)
        tally.steps += 1
        tally.attempted += 1
        tally.failed += not math.isfinite(loss)
        state["losses"].append(loss)

    def quality(self, state):
        return float(np.mean(state["losses"][: self.QUALITY_BATCHES]))

    def gates(self, state):
        model = state["model"]
        inputs = state["batches"][0][:, :-1]
        tape_off = md.forward(model, inputs).data
        with Tape() as tape:
            for p in md.named_parameters(model).values():
                tape.watch(p)
            tape_on = md.forward(model, inputs).data
        return {"tape_off_equals_tape_on": bool(np.max(np.abs(tape_off - tape_on)) <= 1e-12)}


class GpTrain(Workload):
    """The gp-regression CLI defaults, one seed, every variant."""

    name = "gp-train"
    VARIANTS = cli.GP_VARIANTS
    D_HIDDEN, D_MLP, N_LAYERS, IN_DIM, N_POINTS = 16, 32, 2, 10, 640
    STEPS = 600

    def __init__(self):
        self.kernel = cli.gp_kernel_spec({"kernel": "rbf", "lengthscale": 0.8})
        self.configs = {
            v: cli.gp_variant_config(v, self.D_HIDDEN, self.D_MLP, self.N_LAYERS, self.IN_DIM)
            for v in self.VARIANTS
        }
        # the GP stream is 512 independent rows; attention, which the GP
        # models lack, is timed in isolation as 8 sequences of 64 of them
        self.iso_shape = (self.configs["cem-t1"].block, 8, 64)

    def setup(self, seed, out):
        start = perf_counter()
        train, test = data.gp_sample(self.kernel, n_points=self.N_POINTS, seed=seed,
                                     in_dim=self.IN_DIM)
        sampled = perf_counter()
        for cfg in self.configs.values():
            md.build_model(cfg, seed=seed)  # timed only: each round builds its own
        built = perf_counter()
        optim = tr.OptimConfig(lr=3e-3, total_steps=self.STEPS, batch_size=len(train),
                               weight_decay=0.0)
        state = {"seed": seed, "train": train, "test": test, "optim": optim, "out": out,
                 "rounds": []}
        return state, {"gp_sample": sampled - start, "build": built - sampled}

    def warmup(self, state):
        warm = dataclasses.replace(state["optim"], total_steps=2)
        for cfg in self.configs.values():
            model = md.build_model(cfg, seed=state["seed"])
            tr.train_loop(model, itertools.repeat(state["train"]), warm, tr.regression_loss)

    def run_unit(self, state, tally, tracer):
        train, test = state["train"], state["test"]
        sessions = {}
        for variant, cfg in self.configs.items():
            register_flop_models(tracer, cfg)
            sessions[variant] = train_session(
                md.build_model(cfg, seed=state["seed"]),
                itertools.repeat(train),
                state["optim"],
                tr.regression_loss,
                lambda m: tr.regression_eval(m, [train, test]),
                state["out"],
                tally,
                tracer,
                log_every=max(1, self.STEPS // 10),
                summary_csv=False,
                prefix=f"{variant}-",
            )
        per_variant = [intervals(s.stamps) for s in sessions.values()]
        n = min(len(steps) for steps in per_variant)
        tally.step_s += [sum(steps[i] for steps in per_variant) for i in range(n)]
        tally.items += n * len(self.VARIANTS) * len(train)
        tally.steps += min(len(s.losses) for s in sessions.values())
        for s in sessions.values():
            tally.attempted += self.STEPS
            tally.failed += self.STEPS - finite_count(s.losses)
        state["rounds"].append(sessions)

    def rmse_test(self, sessions) -> list[float]:
        return [s.metrics.final_eval["rmse_test"] if s.metrics else math.nan
                for s in sessions.values()]

    def quality(self, state):
        return float(np.mean(self.rmse_test(state["rounds"][0])))

    def gates(self, state):
        limit = float(np.std(state["test"].targets))
        ok = all(
            math.isfinite(r) and r < limit
            for sessions in state["rounds"] for r in self.rmse_test(sessions)
        ) and all(
            s.error is None and finite_count(s.losses) == self.STEPS
            for sessions in state["rounds"] for s in sessions.values()
        )
        return {"rmse_test_below_target_std": ok}


class VerifyFast(Workload):
    """Repeated verify.run_all(fast=True), the CLI verify task.

    run_all draws from its own fixed seeds, so the benchmark seed does
    not change this workload's inputs.
    """

    name = "verify-fast"
    QUALITY_CHECK = "model_backward_fd"

    def __init__(self):
        self.iso_shape = (verify.full_feature_config().block, 2, 16)

    def setup(self, seed, out):
        return {"out": out, "reports": []}, {}

    def warmup(self, state):
        verify.run_all(fast=True)

    def run_unit(self, state, tally, tracer):
        start = perf_counter()
        report = verify.run_all(out_path=state["out"] / "verify.json", fast=True)
        tally.step_s.append(perf_counter() - start)
        checks = report["checks"]
        tally.items += sum(c["n_cases"] for c in checks)
        tally.steps += 1
        tally.attempted += len(checks)
        tally.failed += sum(not c["passed"] for c in checks)
        state["reports"].append(report)

    def quality(self, state):
        """Worst analytic-vs-finite-difference gradient error of the model
        stack; finite-difference truncation sets it, not rounding order."""
        first = state["reports"][0]["checks"]
        return next((c["worst_deviation"] for c in first if c["check"] == self.QUALITY_CHECK),
                    math.nan)

    def gates(self, state):
        return {"all_passed": all(r["all_passed"] for r in state["reports"])}


WORKLOADS = {w.name: w for w in (LmTrain, LmEvalLong, GpTrain, VerifyFast)}
