"""Config-driven command line front end.

A JSON experiment spec names a task (gp-regression, lm-smoke, verify,
lr-sweep, count) plus model/optimizer/data payloads and a seed list.
The runner resolves that file, writes every artifact under one directory
per (spec-hash, seed), and keeps all randomness flowing from the listed
seeds. Exit codes: 0 success, 1 runtime failure, 2 invalid spec.
"""

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import verify
from .data import (
    DataError,
    GpKernelSpec,
    NumericalError,
    batch_iterator,
    corpus_path,
    gp_sample,
    ingest_text,
    write_regression_csv,
)
from .model import (
    BlockConfig,
    ConfigError,
    ModelConfig,
    build_model,
    count_flops,
    count_parameters,
    count_parameters_config,
    preset,
)
from .train import (
    InterpolationError,
    OptimConfig,
    TrainingError,
    estimate_lr_optimum,
    lm_eval,
    lm_loss,
    lr_sweep_points,
    regression_eval,
    regression_loss,
    train_loop,
)


class SpecError(ValueError):
    """Experiment spec failed validation; message lists field problems."""


SPEC_VERSION = 1
OUT_ROOT_ENV = "ENERGYFORMER_OUT"

GP_VARIANTS = ("plain", "gated", "cem-t1", "cem-t2")
SEEDS_PROBLEM = "seeds: must be a non-empty list of non-negative integers"
EVAL_WINDOWS = 64  # leading corpus windows held out of lm training for eval


@dataclasses.dataclass
class ExperimentSpec:
    task: str
    version: int = SPEC_VERSION
    seeds: tuple = (0,)
    out: str = ""
    model: dict = dataclasses.field(default_factory=dict)
    optim: dict = dataclasses.field(default_factory=dict)
    data: dict = dataclasses.field(default_factory=dict)
    task_options: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "task": self.task,
            "seeds": list(self.seeds),
            "out": self.out,
            "model": self.model,
            "optim": self.optim,
            "data": self.data,
            "task_options": self.task_options,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        if not isinstance(payload, dict):
            raise SpecError("spec: top level must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError("".join(f"{k}: unknown spec field\n" for k in unknown).strip())
        if "version" not in payload:
            raise SpecError("version: required field is missing")
        if "task" not in payload:
            raise SpecError("task: required field is missing")
        kwargs = dict(payload)
        if "seeds" in kwargs:
            if not isinstance(kwargs["seeds"], (list, tuple)):
                raise SpecError(SEEDS_PROBLEM)
            kwargs["seeds"] = tuple(kwargs["seeds"])
        return cls(**kwargs)

    def validate(self) -> None:
        problems = []
        if self.version != SPEC_VERSION:
            problems.append(f"version: expected {SPEC_VERSION}, got {self.version!r}")
        if self.task not in TASKS:
            problems.append(f"task: must be one of {', '.join(TASKS)}; got {self.task!r}")
        if not self.seeds or not all(isinstance(s, int) and s >= 0 for s in self.seeds):
            problems.append(SEEDS_PROBLEM)
        elif len(set(self.seeds)) != len(self.seeds):
            problems.append("seeds: duplicate entries")
        for field in ("model", "optim", "data", "task_options"):
            if not isinstance(getattr(self, field), dict):
                problems.append(f"{field}: must be a JSON object")
        if not isinstance(self.out, str):
            problems.append("out: must be a string path")
        if problems:
            raise SpecError("\n".join(problems))
        # resolve the payloads now so a bad field fails before any work
        # runs; a wrongly typed value surfaces as a TypeError in validation
        try:
            if self.model:
                resolve_model_config(self.model)
        except (ConfigError, SpecError, TypeError) as exc:
            raise SpecError(f"model: {exc}") from exc
        try:
            if self.optim:
                resolve_optim_config(self.optim)
        except (TrainingError, SpecError, TypeError) as exc:
            raise SpecError(f"optim: {exc}") from exc
        if self.task == "count":
            try:
                count_models(self.task_options)
            except (ConfigError, SpecError, TypeError) as exc:
                raise SpecError(f"task_options.models: {exc}") from exc
            _count_option(self.task_options, "seq_len", 128)
        if self.task == "gp-regression":
            try:
                gp_kernel_spec(self.data)
            except (DataError, TypeError) as exc:
                raise SpecError(f"data: {exc}") from exc
            gp_options(self.task_options)
        if self.task == "lr-sweep":
            sweep_lrs(self.task_options)
        if self.task == "lm-smoke" or self.task == "lr-sweep":
            corpus = self.data.get("corpus", "")
            if corpus and not Path(corpus).exists():
                raise SpecError(f"data.corpus: no such file {corpus!r}")
            seq_len = self.data.get("seq_len", 65)
            if not isinstance(seq_len, int) or seq_len < 2:
                raise SpecError("data.seq_len: must be an integer >= 2")


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def resolve_model_config(payload: dict) -> ModelConfig:
    """Model payload: either a full config dict or {"preset": name} plus
    overriding fields merged on top of the preset."""
    if "preset" in payload:
        base = preset(payload["preset"]).to_dict()
        rest = {k: v for k, v in payload.items() if k != "preset"}
        return ModelConfig.from_dict(_deep_merge(base, rest))
    return ModelConfig.from_dict(payload)


def resolve_optim_config(payload: dict) -> OptimConfig:
    known = {f.name for f in dataclasses.fields(OptimConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SpecError("; ".join(f"{k}: unknown optimizer field" for k in unknown))
    cfg = OptimConfig(**payload)
    cfg.validate()
    return cfg


def gp_kernel_spec(data: dict) -> GpKernelSpec:
    kwargs = {}
    for key in ("lengthscale", "variance", "period", "alpha", "nu"):
        if key in data:
            kwargs[key] = data[key]
    return GpKernelSpec(kind=data.get("kernel", "rbf"), **kwargs)


def _count_option(opts: dict, key: str, default: int) -> int:
    value = opts.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SpecError(f"task_options.{key}: must be an integer >= 1, got {value!r}")
    return value


def _is_rate(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < np.inf


def gp_options(opts: dict) -> tuple[int, int, int, list]:
    """(d_hidden, d_mlp, n_layers, variants). The narrow defaults are on
    purpose: the recursion benefit shows when the MLP is too small to
    shrug off the target's wiggliness. Each variant writes its own files."""
    variants = opts.get("variants", list(GP_VARIANTS))
    try:
        if not isinstance(variants, list) or not variants:
            raise SpecError("must be a non-empty list of variant names")
        for v in variants:
            parse_variant(v)
        if len(set(variants)) != len(variants):
            raise SpecError(f"{variants} repeats a variant")
    except SpecError as exc:
        raise SpecError(f"task_options.variants: {exc}") from exc
    return (_count_option(opts, "d_hidden", 16), _count_option(opts, "d_mlp", 32),
            _count_option(opts, "n_layers", 2), variants)


def sweep_lrs(opts: dict) -> list[float]:
    """task_options.lrs, else n_points rates log-spaced from low to high;
    each names its run directory to 6 significant digits."""
    if "lrs" in opts:
        lrs = opts["lrs"]
    else:
        low, high = opts.get("low", 5e-4), opts.get("high", 8e-3)
        if not (_is_rate(low) and _is_rate(high)):
            raise SpecError(f"task_options.low, high: must be positive finite, got {low!r}, {high!r}")
        lrs = list(lr_sweep_points(low, high, _count_option(opts, "n_points", 5)))
    if (not isinstance(lrs, list) or not lrs or not all(map(_is_rate, lrs))
            or len({f"{lr:.6g}" for lr in lrs}) != len(lrs)):
        raise SpecError(f"task_options.lrs: must be distinct positive finite rates, got {lrs!r}")
    return [float(lr) for lr in lrs]


def parse_variant(name: str):
    """Variant name -> (mlp kind, recursion steps, width multiplier).

    The plain baseline widens its hidden layer by 1.5x so its two
    matrices roughly parameter-match the gated baseline's three.
    """
    if name == "plain":
        return "plain", 1, 1.5
    if name == "gated":
        return "gated", 1, 1.0
    if isinstance(name, str) and name.startswith("cem-t"):
        try:
            steps = int(name[len("cem-t"):])
        except ValueError:
            steps = 0
        if steps >= 1:
            return "cem", steps, 1.0
    raise SpecError(f"unknown variant {name!r} (want plain, gated, or cem-t<N>)")


def spec_hash(spec: ExperimentSpec) -> str:
    payload = spec.to_dict()
    del payload["out"], payload["seeds"]  # sweep identity, not placement
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def task_dir_for(spec: ExperimentSpec) -> Path:
    root = spec.out or os.environ.get(OUT_ROOT_ENV, "runs")
    return Path(root) / f"{spec.task}-{spec_hash(spec)}"


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# tasks


def gp_variant_config(variant: str, d_hidden: int, d_mlp: int, n_layers: int,
                      in_dim: int) -> ModelConfig:
    kind, steps, widen = parse_variant(variant)
    return ModelConfig(
        kind="regressor",
        in_dim=in_dim,
        out_dim=1,
        n_layers=n_layers,
        block=BlockConfig(
            d_hidden=d_hidden,
            d_mlp=int(round(widen * d_mlp)),
            attention="none",
            mlp=kind,
            mlp_steps=steps,
        ),
    )


def _gp_seed_rows(spec_dict: dict, task_dir: Path, seed: int) -> list:
    """All variant results for one seed; paired on one data draw."""
    spec = ExperimentSpec.from_dict(spec_dict)
    kernel = gp_kernel_spec(spec.data)
    d_hidden, d_mlp, n_layers, variants = gp_options(spec.task_options)
    n_points = spec.data.get("n_points", 640)
    in_dim = spec.data.get("in_dim", 10)

    train, test = gp_sample(kernel, n_points=n_points, seed=seed, in_dim=in_dim)
    seed_dir = task_dir / f"seed{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    write_regression_csv(seed_dir / "data.csv", [train, test])

    ocfg = resolve_optim_config(spec.optim) if spec.optim else OptimConfig(
        lr=3e-3, total_steps=600, batch_size=len(train), weight_decay=0.0,
    )
    rows = []
    for variant in variants:
        mcfg = gp_variant_config(variant, d_hidden, d_mlp, n_layers, in_dim)
        model = build_model(mcfg, seed=seed)
        counts = count_parameters(model)
        metrics = train_loop(
            model,
            itertools.repeat(train),
            ocfg,
            loss_fn=regression_loss,
            eval_fn=lambda m: regression_eval(m, [train, test]),
            log_every=max(1, ocfg.total_steps // 10),
            metrics_path=seed_dir / f"{variant}-metrics.jsonl",
            checkpoint_path=seed_dir / f"{variant}-model.bin",
        )
        rows.append({
            "seed": seed,
            "variant": variant,
            "steps": parse_variant(variant)[1],
            "mlp_core_params": counts["mlp_core"],
            "total_params": counts["total"],
            "rmse_train": metrics.final_eval["rmse_train"],
            "rmse_test": metrics.final_eval["rmse_test"],
        })
    return rows


def run_gp_regression(spec: ExperimentSpec, task_dir: Path, jobs: int = 1) -> dict:
    spec_dict = spec.to_dict()
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_gp_seed_rows, itertools.repeat(spec_dict),
                                   itertools.repeat(task_dir), spec.seeds))
    else:
        chunks = [_gp_seed_rows(spec_dict, task_dir, seed) for seed in spec.seeds]
    rows = [row for chunk in chunks for row in chunk]

    header = ["seed", "variant", "steps", "mlp_core_params", "total_params",
              "rmse_train", "rmse_test"]
    _write_csv(task_dir / "results.csv", header, [[r[k] for k in header] for r in rows])
    (task_dir / "gp-results.json").write_text(json.dumps(rows, indent=2) + "\n")

    summary = {}
    for variant in {r["variant"] for r in rows}:
        test_vals = [r["rmse_test"] for r in rows if r["variant"] == variant]
        train_vals = [r["rmse_train"] for r in rows if r["variant"] == variant]
        summary[variant] = {
            "mean_rmse_test": float(np.mean(test_vals)),
            "mean_rmse_train": float(np.mean(train_vals)),
        }
    (task_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    emit_plotdata(task_dir)
    return {"rows": rows, "summary": summary, "dir": str(task_dir)}


def _lm_windows(spec: ExperimentSpec):
    corpus = spec.data.get("corpus", "") or corpus_path()
    seq_len = spec.data.get("seq_len", 65)
    return ingest_text(corpus, seq_len)


def _lm_train_one(spec: ExperimentSpec, seed: int, seed_dir: Path, ocfg: OptimConfig):
    """Train one seed on the corpus windows after the held-out ones.

    Returns the run metrics and the held-out eval of the untrained model.
    """
    windows = _lm_windows(spec)
    held_out, train = windows[:EVAL_WINDOWS], windows[EVAL_WINDOWS:]
    if len(train) < ocfg.batch_size:
        raise DataError(
            f"corpus gives {len(windows)} windows; after holding out {len(held_out)} "
            f"for eval, {len(train)} remain, fewer than batch_size {ocfg.batch_size}"
        )
    model_payload = spec.model or {"preset": "lm-smoke"}
    model = build_model(resolve_model_config(model_payload), seed=seed)
    eval_before = lm_eval(model, held_out)
    stream = batch_iterator(train, ocfg.batch_size, seed=seed)
    seed_dir.mkdir(parents=True, exist_ok=True)
    metrics = train_loop(
        model,
        stream,
        ocfg,
        loss_fn=lm_loss,
        eval_fn=lambda m: lm_eval(m, held_out),
        log_every=max(1, ocfg.total_steps // 20),
        metrics_path=seed_dir / "metrics.jsonl",
        summary_csv_path=seed_dir / "summary.csv",
        checkpoint_path=seed_dir / "model.bin",
    )
    return metrics, eval_before


def run_lm_smoke(spec: ExperimentSpec, task_dir: Path) -> dict:
    ocfg = resolve_optim_config(spec.optim) if spec.optim else OptimConfig(
        total_steps=500, batch_size=8,
    )
    results = {}
    for seed in spec.seeds:
        seed_dir = task_dir / f"seed{seed}"
        t0 = time.perf_counter()
        metrics, eval_before = _lm_train_one(spec, seed, seed_dir, ocfg)
        # on the fixed held-out windows: minibatch train losses are too noisy
        reduction = 1.0 - metrics.final_eval["loss"] / eval_before["loss"]
        results[seed] = {
            "initial_train_loss": metrics.initial_train_loss,
            "final_train_loss": metrics.final_train_loss,
            "reduction": reduction,
            "initial_eval": eval_before,
            "eval": metrics.final_eval,
            "wall_time_s": time.perf_counter() - t0,
        }
        (seed_dir / "result.json").write_text(json.dumps(results[seed], indent=2) + "\n")
    return {"results": results, "dir": str(task_dir)}


def run_lr_sweep(spec: ExperimentSpec, task_dir: Path) -> dict:
    lrs = sweep_lrs(spec.task_options)
    base_optim = dict(spec.optim)
    points = []
    for lr in lrs:
        losses = []
        for seed in spec.seeds:
            ocfg = resolve_optim_config({**base_optim, "lr": lr}) if base_optim else (
                OptimConfig(lr=lr, total_steps=60, batch_size=8))
            seed_dir = task_dir / f"lr{lr:.6g}-seed{seed}"
            metrics, _ = _lm_train_one(spec, seed, seed_dir, ocfg)
            losses.append(metrics.final_eval["loss"])
        points.append({"lr": lr, "loss": float(np.mean(losses)),
                       "per_seed": losses})
    (task_dir / "sweep-points.json").write_text(json.dumps(points, indent=2) + "\n")

    result = {"points": points, "dir": str(task_dir)}
    if len(points) >= 5:
        best_lr, best_loss = estimate_lr_optimum(
            [p["lr"] for p in points], [p["loss"] for p in points],
        )
        result["best_lr"] = best_lr
        result["best_loss"] = best_loss
        (task_dir / "sweep-argmin.json").write_text(
            json.dumps({"best_lr": best_lr, "best_loss": best_loss}) + "\n")
    emit_plotdata(task_dir)
    return result


def run_verify(spec: ExperimentSpec, task_dir: Path) -> dict:
    report = verify.run_all(
        out_path=task_dir / "verify.json",
        fast=spec.task_options.get("fast", True),
    )
    for check in report["checks"]:
        tag = "ok  " if check["passed"] else "FAIL"
        print(f"{tag} {check['check']}: worst={check['worst_deviation']:.3g} "
              f"tol={check['tolerance']:.3g} n={check['n_cases']}")
    if not report["all_passed"]:
        failed = [c["check"] for c in report["checks"] if not c["passed"]]
        raise TrainingError(f"verification suites failed: {', '.join(failed)}")
    return report


def count_models(options: dict) -> dict[str, ModelConfig]:
    """task_options.models by name; an inline entry's "name" defaults to "custom"."""
    models = {}
    for entry in options.get("models", ["ref-86m", "cem-86m"]):
        payload = {"preset": entry} if isinstance(entry, str) else dict(entry)
        name = entry if isinstance(entry, str) else payload.pop("name", "custom")
        if name in models:
            raise SpecError(f"duplicate model name {name!r}")
        models[name] = resolve_model_config(payload)
    return models


def run_count(spec: ExperimentSpec, task_dir: Path) -> dict:
    seq_len = _count_option(spec.task_options, "seq_len", 128)
    rows = []
    table = {}
    for name, cfg in count_models(spec.task_options).items():
        params = count_parameters_config(cfg)
        flops = count_flops(cfg, seq_len=seq_len)
        table[name] = {"params": params, "flops_per_token": flops["per_token"]}
        rows.append([name, params["total"], params["attention_core"],
                     params["mlp_core"], flops["per_token"]])
        print(f"{name}: total={params['total']:,} attention_core={params['attention_core']:,} "
              f"mlp_core={params['mlp_core']:,} flops/token={flops['per_token']:,}")

    ratios = {}
    if len(table) == 2:
        (name_a, a), (name_b, b) = table.items()
        pa, pb = a["params"], b["params"]
        for key in ("attention_core", "mlp_core", "total"):
            if pa[key]:
                frac = Fraction(pb[key], pa[key])
                ratios[key] = {"exact": f"{frac.numerator}/{frac.denominator}",
                               "value": pb[key] / pa[key]}
                print(f"ratio {name_b}/{name_a} {key}: {frac.numerator}/{frac.denominator}"
                      f" = {pb[key] / pa[key]:.4f}")
    _write_csv(
        task_dir / "count.csv",
        ["name", "total_params", "attention_core", "mlp_core", "flops_per_token"],
        rows,
    )
    report = {"models": table, "ratios": ratios}
    (task_dir / "count.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# ---------------------------------------------------------------------------
# plot data


def emit_plotdata(metrics_dir) -> list:
    """Tidy CSVs for downstream plotting, derived from a task directory.

    Learning-rate sweeps gain an interpolated-argmin row when five or
    more points are present; regression results flatten to a
    steps-vs-RMSE table. No rendering happens here.
    """
    metrics_dir = Path(metrics_dir)
    written = []

    sweep_file = metrics_dir / "sweep-points.json"
    if sweep_file.exists():
        points = json.loads(sweep_file.read_text())
        if not points:
            raise DataError(f"empty metrics in {sweep_file}")
        for point in points:
            for key in ("lr", "loss"):
                if key not in point:
                    raise DataError(f"missing metric key {key!r} in {sweep_file}")
                value = point[key]
                if not isinstance(value, (int, float)) or not np.isfinite(value):
                    raise DataError(f"{key} {value!r} in {sweep_file} is not a finite number")
        rows = [[p["lr"], p["loss"], "sample"] for p in points]
        if len(points) >= 5:
            best_lr, best_loss = estimate_lr_optimum(
                [p["lr"] for p in points], [p["loss"] for p in points])
            rows.append([best_lr, best_loss, "akima-argmin"])
        path = metrics_dir / "plot-lr-vs-loss.csv"
        _write_csv(path, ["lr", "loss", "kind"], rows)
        written.append(path)

    gp_file = metrics_dir / "gp-results.json"
    if gp_file.exists():
        rows = json.loads(gp_file.read_text())
        if not rows:
            raise DataError(f"empty metrics in {gp_file}")
        for row in rows:
            for key in ("variant", "steps", "seed", "rmse_test"):
                if key not in row:
                    raise DataError(f"missing metric key {key!r} in {gp_file}")
        flat = [[r["variant"], r["steps"], r["seed"], r["rmse_test"]] for r in rows]
        for variant in sorted({r["variant"] for r in rows}):
            vals = [r["rmse_test"] for r in rows if r["variant"] == variant]
            steps = next(r["steps"] for r in rows if r["variant"] == variant)
            flat.append([variant, steps, "mean", float(np.mean(vals))])
        path = metrics_dir / "plot-steps-vs-rmse.csv"
        _write_csv(path, ["variant", "steps", "seed", "rmse_test"], flat)
        written.append(path)

    if not written:
        raise DataError(f"no metrics found under {metrics_dir}")
    return written


# ---------------------------------------------------------------------------
# entry point


TASKS = {
    "gp-regression": run_gp_regression,
    "lm-smoke": run_lm_smoke,
    "verify": run_verify,
    "lr-sweep": run_lr_sweep,
    "count": run_count,
}


def run_spec(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Run the spec's task in its directory, beside its effective config."""
    task_dir = task_dir_for(spec)
    task_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(spec.to_dict(), indent=2, sort_keys=True)
    (task_dir / "effective-config.json").write_text(text + "\n")
    if spec.task == "gp-regression":  # the only task that fans seeds out
        return run_gp_regression(spec, task_dir, jobs)
    return TASKS[spec.task](spec, task_dir)


def _parse_override(text: str):
    if "=" not in text:
        raise SpecError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if not key:
        raise SpecError(f"--set expects a dotted key before '=', got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings pass through unquoted
    return key, value


def _apply_override(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        nxt = node.setdefault(key, {})
        if not isinstance(nxt, dict):
            raise SpecError(f"{dotted}: {key!r} is not an object, cannot descend")
        node = nxt
    node[keys[-1]] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energyformer",
        description="Run energy-minimization transformer experiments from a JSON spec.",
    )
    parser.add_argument("--spec", required=True, help="path to the experiment spec JSON")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a spec field by dotted path (value parsed as JSON)")
    parser.add_argument("--out", help="output root directory (overrides spec and env)")
    parser.add_argument("--seeds", help="comma-separated seed list, e.g. 0,1,2")
    parser.add_argument("--jobs", type=int, default=1,
                        help="process fan-out across seeds (gp-regression only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = json.loads(Path(args.spec).read_text())
        for override in args.set:
            key, value = _parse_override(override)
            if not isinstance(payload, dict):
                raise SpecError("spec: top level must be a JSON object")
            _apply_override(payload, key, value)
        if args.out:
            payload["out"] = args.out
        if args.seeds:
            try:
                payload["seeds"] = [int(s) for s in args.seeds.split(",") if s]
            except ValueError:
                raise SpecError(f"--seeds: expected comma-separated integers, got {args.seeds!r}")
        if args.jobs < 1:
            raise SpecError(f"--jobs: must be >= 1, got {args.jobs}")
        spec = ExperimentSpec.from_dict(payload)
        spec.validate()
    except (SpecError, ConfigError, TrainingError) as exc:
        print(f"invalid spec:\n{exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"invalid spec: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2

    try:
        run_spec(spec, jobs=args.jobs)
    except (TrainingError, DataError, NumericalError, ConfigError, InterpolationError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
