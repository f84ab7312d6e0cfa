"""Config-driven command line front end.

A JSON experiment spec names a task (gp-regression, lm-smoke, verify,
lr-sweep, count) plus model/optimizer/data payloads and a seed list.
The runner resolves that file into one directory per spec hash, and keeps
all randomness flowing from the listed seeds. A task directory holds
effective-config.json, the task's one result.json record (both replaced
atomically), and each training run's streamed metrics.jsonl and model.bin.
Exit codes: 0 success, 1 runtime failure, 2 invalid spec.
"""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
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
)
from .model import (
    BlockConfig,
    ConfigError,
    ModelConfig,
    build_model,
    check_types,
    count_flops,
    count_parameters,
    count_parameters_config,
    preset,
)
from .serialize import write_atomic
from .tensor import DomainError
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

GP_VARIANTS = ("plain", "gated", "cem-t1", "cem-t2")
GP_KERNEL_SCALES = {f.name: f.default for f in dataclasses.fields(GpKernelSpec) if f.name != "kind"}
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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        if not isinstance(payload, dict):
            raise SpecError("spec: top level must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError("".join(f"{k}: unknown spec field\n" for k in unknown).strip())
        for key in ("version", "task"):
            if key not in payload:
                raise SpecError(f"{key}: required field is missing")
        kwargs = dict(payload)
        if "seeds" in kwargs:
            if not isinstance(kwargs["seeds"], (list, tuple)):
                raise SpecError(SEEDS_PROBLEM)
            kwargs["seeds"] = tuple(kwargs["seeds"])
        return cls(**kwargs)

    def validate(self) -> None:
        problems = []
        if type(self.version) is not int or self.version != SPEC_VERSION:
            problems.append(f"version: expected {SPEC_VERSION}, got {self.version!r}")
        if self.task not in TASKS:
            problems.append(f"task: must be one of {', '.join(TASKS)}; got {self.task!r}")
        if not self.seeds or not all(type(s) is int and s >= 0 for s in self.seeds):
            problems.append(SEEDS_PROBLEM)
        elif len(set(self.seeds)) != len(self.seeds):
            problems.append("seeds: duplicate entries")
        if not isinstance(self.out, str):
            problems.append("out: must be a string path")
        if problems:
            raise SpecError("\n".join(problems))
        # every payload is read and resolved before any work runs
        read = {f: read_payload(self, f) for f in ("model", "optim", "data", "task_options")}
        data, opts = read["data"], read["task_options"]
        for field in ("data", "task_options"):
            for key, value in read[field].items():
                least = 2 if field == "data" and key in ("seq_len", "n_points") else 1
                if type(value) is int and value < least:
                    raise SpecError(f"{field}.{key}: must be an integer >= {least}, got {value}")
        if read["model"]:
            _check("model", resolve_model_config, read["model"])
        if read["optim"]:
            _check("optim", lambda optim: OptimConfig(**optim).validate(), read["optim"])
        if "kernel" in data:
            _check("data", gp_kernel_spec, data)
        if "corpus" in data and data["corpus"] and not Path(data["corpus"]).is_file():
            raise SpecError(f"data.corpus: {data['corpus']!r} is not a file")
        if "variants" in opts:
            variants = opts["variants"]
            for variant in variants:
                _check("task_options.variants", parse_variant, variant)
            if not variants or len(set(variants)) != len(variants):
                raise SpecError(f"task_options.variants: {variants} is empty or repeats a name")
        if "lrs" in opts:
            sweep_lrs(opts)
        if "models" in opts:
            _check("task_options.models", count_models, opts["models"])


def _check(name: str, resolve, value) -> None:
    """resolve(value), its package error re-raised as a SpecError on name."""
    try:
        resolve(value)
    except (ConfigError, DataError, SpecError, TrainingError) as exc:
        raise SpecError(f"{name}: {exc}") from exc


def read_payload(spec: ExperimentSpec, field: str) -> dict:
    """One payload of spec as its task reads it: TASK_KEYS' defaults for it
    with the given values laid over them. A payload the task does not read
    has no keys. A model payload replaces the default whole, since a preset
    cannot sit under a full config, and resolve_model_config checks its
    keys. An unknown key or a value not of its default's type is a SpecError."""
    reads, given = TASK_KEYS[spec.task], getattr(spec, field)
    if not isinstance(given, dict):
        raise SpecError(f"{field}: must be a JSON object")
    if field == "model" and field in reads:
        return given or reads["model"]
    defaults = reads.get(field, {})
    types = {k: None if v is None else [type(v).__name__] for k, v in defaults.items()}
    try:
        check_types(given, types, f"{field}.")
    except ConfigError as exc:
        raise SpecError(f"{exc} (task {spec.task})") from exc
    return {**defaults, **given}


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


def gp_kernel_spec(data: dict) -> GpKernelSpec:
    """The kernel named by data["kernel"], with the scales data gives."""
    scales = {k: v for k, v in data.items() if k in GP_KERNEL_SCALES}
    return GpKernelSpec(data["kernel"], **scales)


def _is_rate(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < np.inf


def sweep_lrs(opts: dict) -> list[float]:
    """Read lr-sweep options' rates: lrs, else n_points rates log-spaced
    from low to high; each names its run directory to 6 significant digits."""
    lrs, low, high = opts["lrs"], opts["low"], opts["high"]
    if lrs is None:
        if not (_is_rate(low) and _is_rate(high)):
            raise SpecError(f"task_options.low, high: must be positive finite, got {low!r}, {high!r}")
        lrs = list(lr_sweep_points(low, high, opts["n_points"]))
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
        digits = name[len("cem-t"):]
        # canonical only: int() would also take "02", "+2", " 2", "1_0"
        # and non-ASCII digits, each naming some cem-t<N> a second way
        if digits.isascii() and digits.isdigit() and digits[0] != "0":
            return "cem", int(digits), 1.0
    raise SpecError(f"unknown variant {name!r} (want plain, gated, or cem-t<N>)")


def spec_hash(spec: ExperimentSpec) -> str:
    payload = spec.to_dict()
    del payload["out"], payload["seeds"]  # sweep identity, not placement
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def task_dir_for(spec: ExperimentSpec) -> Path:
    return Path(spec.out or "runs") / f"{spec.task}-{spec_hash(spec)}"


def write_result(task_dir: Path, result: dict) -> None:
    """Replace task_dir/result.json with result as strict JSON. A non-finite
    number raises DataError and leaves the previous record as it was."""
    try:
        text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{task_dir.name}: result is not finite JSON: {exc}") from exc
    write_atomic(task_dir / "result.json", (text + "\n").encode())


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


def _gp_seed_rows(spec: ExperimentSpec, task_dir: Path, seed: int) -> list:
    """All variant results for one seed; paired on one data draw."""
    data, opts = read_payload(spec, "data"), read_payload(spec, "task_options")
    train, test = gp_sample(gp_kernel_spec(data), n_points=data["n_points"], seed=seed,
                            in_dim=data["in_dim"])
    seed_dir = task_dir / f"seed{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)

    ocfg = OptimConfig(**read_payload(spec, "optim"))
    rows = []
    for variant in opts["variants"]:
        mcfg = gp_variant_config(variant, opts["d_hidden"], opts["d_mlp"], opts["n_layers"],
                                 data["in_dim"])
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
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, initializer=np.seterr,
                                                    initargs=("ignore",)) as pool:  # see main
            chunks = list(pool.map(_gp_seed_rows, itertools.repeat(spec),
                                   itertools.repeat(task_dir), spec.seeds))
    else:
        chunks = [_gp_seed_rows(spec, task_dir, seed) for seed in spec.seeds]
    rows = [row for chunk in chunks for row in chunk]
    summary = {}
    for variant in read_payload(spec, "task_options")["variants"]:
        summary[variant] = {
            f"mean_{key}": float(np.mean([r[key] for r in rows if r["variant"] == variant]))
            for key in ("rmse_test", "rmse_train")
        }
    result = {"rows": rows, "summary": summary}
    write_result(task_dir, result)
    return result


def _lm_windows(spec: ExperimentSpec):
    data = read_payload(spec, "data")
    return ingest_text(data["corpus"] or corpus_path(), data["seq_len"])


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
    model = build_model(resolve_model_config(read_payload(spec, "model")), seed=seed)
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
        checkpoint_path=seed_dir / "model.bin",
    )
    return metrics, eval_before


def run_lm_smoke(spec: ExperimentSpec, task_dir: Path) -> dict:
    ocfg = OptimConfig(**read_payload(spec, "optim"))
    rows = []
    for seed in spec.seeds:
        t0 = time.perf_counter()
        metrics, eval_before = _lm_train_one(spec, seed, task_dir / f"seed{seed}", ocfg)
        # on the fixed held-out windows: minibatch train losses are too noisy
        reduction = 1.0 - metrics.final_eval["loss"] / eval_before["loss"]
        rows.append({
            "seed": seed,
            "initial_train_loss": metrics.initial_train_loss,
            "final_train_loss": metrics.final_train_loss,
            "reduction": reduction,
            "initial_eval": eval_before,
            "eval": metrics.final_eval,
            "wall_time_s": time.perf_counter() - t0,
        })
    result = {"rows": rows}
    write_result(task_dir, result)
    return result


def run_lr_sweep(spec: ExperimentSpec, task_dir: Path) -> dict:
    optim = read_payload(spec, "optim")
    points = []
    for lr in sweep_lrs(read_payload(spec, "task_options")):
        losses = []
        for seed in spec.seeds:
            ocfg = OptimConfig(**optim, lr=lr)
            seed_dir = task_dir / f"lr{lr:.6g}-seed{seed}"
            metrics, _ = _lm_train_one(spec, seed, seed_dir, ocfg)
            losses.append(metrics.final_eval["loss"])
        points.append({"lr": lr, "loss": float(np.mean(losses)),
                       "per_seed": losses})

    result = {"points": points}
    if len(points) >= 5:
        result["best_lr"], result["best_loss"] = estimate_lr_optimum(
            [p["lr"] for p in points], [p["loss"] for p in points],
        )
    write_result(task_dir, result)
    return result


def run_verify(spec: ExperimentSpec, task_dir: Path) -> dict:
    report = verify.run_all(fast=read_payload(spec, "task_options")["fast"])
    write_result(task_dir, report)  # a failing battery still leaves its verdict
    for check in report["checks"]:
        tag = "ok  " if check["passed"] else "FAIL"
        print(f"{tag} {check['check']}: worst={check['worst_deviation']:.3g} "
              f"tol={check['tolerance']:.3g} n={check['n_cases']}")
    if not report["all_passed"]:
        failed = [c["check"] for c in report["checks"] if not c["passed"]]
        raise TrainingError(f"verification suites failed: {', '.join(failed)}")
    return report


def count_models(entries: list) -> dict[str, ModelConfig]:
    """Configs by name from preset names and inline model payloads; an
    inline entry's "name" defaults to "custom"."""
    models = {}
    for entry in entries:
        if not isinstance(entry, (str, dict)):
            raise SpecError(f"{entry!r} is neither a preset name nor a model object")
        payload = {"preset": entry} if isinstance(entry, str) else dict(entry)
        name = entry if isinstance(entry, str) else payload.pop("name", "custom")
        if name in models:
            raise SpecError(f"duplicate model name {name!r}")
        models[name] = resolve_model_config(payload)
    return models


def run_count(spec: ExperimentSpec, task_dir: Path) -> dict:
    opts = read_payload(spec, "task_options")
    table = {}
    for name, cfg in count_models(opts["models"]).items():
        params = count_parameters_config(cfg)
        flops = count_flops(cfg, seq_len=opts["seq_len"])
        table[name] = {"params": params, "flops_per_token": flops["per_token"],
                       "precond_flops_per_call": flops["precond_per_call"]}
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
    result = {"models": table, "ratios": ratios}
    write_result(task_dir, result)
    return result


# ---------------------------------------------------------------------------
# entry point


LM_DATA = {"corpus": "", "seq_len": 65}  # "" reads the bundled corpus
LM_MODEL = {"preset": "lm-smoke"}
OPTIM = dataclasses.asdict(OptimConfig())
SWEEP_OPTIM = {**OPTIM, "total_steps": 60, "batch_size": 8}
del SWEEP_OPTIM["lr"]  # each swept rate sets it

# The payloads each task reads, by key and default; read_payload lays a
# spec's payload over these. A model entry is the payload used when the
# spec gives none.
TASK_KEYS = {
    "gp-regression": {
        "data": {"kernel": "rbf", **GP_KERNEL_SCALES, "n_points": 640, "in_dim": 10},
        # narrow on purpose: the recursion benefit shows when the MLP is too
        # small to shrug off the target's wiggliness
        "task_options": {"variants": list(GP_VARIANTS), "d_hidden": 16, "d_mlp": 32,
                         "n_layers": 2},
        # full batch: the train split is the batch whatever batch_size says
        "optim": {**OPTIM, "lr": 3e-3, "total_steps": 600, "weight_decay": 0.0},
    },
    "lm-smoke": {"data": LM_DATA, "model": LM_MODEL,
                 "optim": {**OPTIM, "total_steps": 500, "batch_size": 8}},
    "verify": {"task_options": {"fast": True}},
    "lr-sweep": {
        "data": LM_DATA, "model": LM_MODEL, "optim": SWEEP_OPTIM,
        "task_options": {"lrs": None, "low": 5e-4, "high": 8e-3, "n_points": 5},
    },
    "count": {"task_options": {"models": ["ref-86m", "cem-86m"], "seq_len": 128}},
}

TASKS = {
    "gp-regression": run_gp_regression,
    "lm-smoke": run_lm_smoke,
    "verify": run_verify,
    "lr-sweep": run_lr_sweep,
    "count": run_count,
}


def run_spec(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Run the spec's task in its directory, beside its effective config;
    returns the record the task wrote to result.json."""
    task_dir = task_dir_for(spec)
    task_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(spec.to_dict(), indent=2, sort_keys=True)
    write_atomic(task_dir / "effective-config.json", (text + "\n").encode())
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
    parser.add_argument("--out", help="output root directory (overrides the spec's out; default runs)")
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
        spec = ExperimentSpec.from_dict(payload)
        spec.validate()
        if args.jobs < 1 or (args.jobs > 1 and spec.task != "gp-regression"):
            raise SpecError(f"--jobs: must be 1, or more for gp-regression only; got {args.jobs}")
    except (SpecError, ConfigError, TrainingError) as exc:
        print(f"invalid spec:\n{exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"invalid spec: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2

    try:
        with np.errstate(all="ignore"):  # non-finite results raise typed errors below
            run_spec(spec, jobs=args.jobs)
    except (TrainingError, DataError, NumericalError, DomainError, ConfigError,
            InterpolationError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
