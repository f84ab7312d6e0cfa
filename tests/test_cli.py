"""Spec parsing, overrides, artifact layout, and the small end-to-end
command paths."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from energyformer import cli
from energyformer.cli import (
    ExperimentSpec,
    SpecError,
    gp_variant_config,
    main,
    parse_variant,
    resolve_model_config,
    run_spec,
    spec_hash,
    task_dir_for,
    write_result,
)
from energyformer.data import DataError, batch_iterator
from energyformer.train import OptimConfig, estimate_lr_optimum, lm_eval
from energyformer.model import build_model, count_parameters_config
from test_serialize import _fail_writes


def _write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# spec handling


def test_spec_round_trip():
    spec = ExperimentSpec(
        task="count", seeds=(0, 1), out="x",
        task_options={"models": ["ref-86m", "cem-86m"]},
    )
    again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


def test_spec_requires_version_and_task():
    with pytest.raises(SpecError, match="version"):
        ExperimentSpec.from_dict({"task": "count"})
    with pytest.raises(SpecError, match="task"):
        ExperimentSpec.from_dict({"version": 1})
    with pytest.raises(SpecError, match="unknown spec field"):
        ExperimentSpec.from_dict({"version": 1, "task": "count", "tsak": 1})


def test_spec_validation_messages():
    with pytest.raises(SpecError, match="task: must be one of"):
        ExperimentSpec(task="nope").validate()
    with pytest.raises(SpecError, match="seeds"):
        ExperimentSpec(task="count", seeds=()).validate()
    with pytest.raises(SpecError, match="seeds: duplicate"):
        ExperimentSpec(task="count", seeds=(1, 1)).validate()
    with pytest.raises(SpecError, match="optim"):
        ExperimentSpec(task="lm-smoke", optim={"lr": -1}).validate()
    with pytest.raises(SpecError, match="model"):
        ExperimentSpec(task="lm-smoke", model={"kind": "banana"}).validate()
    with pytest.raises(SpecError, match="data"):
        ExperimentSpec(task="gp-regression", data={"kernel": "sincos"}).validate()


def test_spec_hash_ignores_placement_fields():
    a = ExperimentSpec(task="count", seeds=(0,), out="runs-a")
    b = ExperimentSpec(task="count", seeds=(1, 2), out="runs-b")
    c = ExperimentSpec(task="count", task_options={"seq_len": 64})
    assert spec_hash(a) == spec_hash(b)
    assert spec_hash(a) != spec_hash(c)


def test_preset_payload_with_overrides():
    cfg = resolve_model_config({"preset": "lm-smoke", "block": {"d_hidden": 32}})
    assert cfg.block.d_hidden == 32
    assert cfg.block.attention == "cem"  # preset fields survive the merge
    with pytest.raises(Exception):
        resolve_model_config({"preset": "no-such-preset"})


def test_variant_parsing():
    assert parse_variant("plain") == ("plain", 1, 1.5)
    assert parse_variant("gated") == ("gated", 1, 1.0)
    assert parse_variant("cem-t1") == ("cem", 1, 1.0)
    assert parse_variant("cem-t4") == ("cem", 4, 1.0)
    assert parse_variant("cem-t10") == ("cem", 10, 1.0)
    # from "cem-t02" on, int() reads each suffix as a number, and all but
    # "cem-t00" would run some cem-t<N> under a second name ("cem-t1_0"
    # as 10 steps)
    for bad in ("cem-t0", "cem-tx", "extra", "cem-t", "cem-t02", "cem-t+2", "cem-t 2",
                "cem-t\u0662", "cem-t1_0", "cem-t2 ", "cem-t00"):
        with pytest.raises(SpecError):
            parse_variant(bad)


def test_variant_parameter_relationships():
    gated = count_parameters_config(gp_variant_config("gated", 32, 128, 2, 10))
    t1 = count_parameters_config(gp_variant_config("cem-t1", 32, 128, 2, 10))
    t2 = count_parameters_config(gp_variant_config("cem-t2", 32, 128, 2, 10))
    plain = count_parameters_config(gp_variant_config("plain", 32, 128, 2, 10))
    assert 3 * t1["mlp_core"] == 2 * gated["mlp_core"]  # the 2/3 core ratio
    assert t1 == t2  # recursion adds no parameters
    assert plain["mlp_core"] == gated["mlp_core"]  # width-matched baseline


# ---------------------------------------------------------------------------
# entry point


KEYS = st.text(alphabet="abc_", min_size=1, max_size=3)  # no '.' or '='
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=st.dictionaries(KEYS, JSON_VALUES, max_size=4),
       path=st.lists(KEYS, min_size=1, max_size=3), value=JSON_VALUES)
def test_set_override_round_trips(tree, path, value):
    node = tree
    for key in path[:-1]:  # the override descends only through objects
        node = node.get(key, {})
        assume(isinstance(node, dict))
    dotted = ".".join(path)
    key, parsed = cli._parse_override(f"{dotted}={json.dumps(value)}")
    assert (key, parsed) == (dotted, value)

    before = copy.deepcopy(tree)
    cli._apply_override(tree, key, parsed)
    node, old = tree, before
    for depth, key in enumerate(path):
        # every key beside the path is unchanged, and a node made on the
        # way down holds only the path
        assert {k: v for k, v in node.items() if k != key} == \
            {k: v for k, v in old.items() if k != key}
        if depth == len(path) - 1:
            assert node[key] == value
        else:
            node, old = node[key], old.get(key, {})


def test_cli_invalid_spec_exits_2(tmp_path, capsys):
    bad = _write_spec(tmp_path, {"version": 1, "task": "wat"})
    assert main(["--spec", bad]) == 2
    assert "task" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("seeds", 5),
    ("model", {"preset": "lm-smoke", "block": {"d_hidden": "abc"}}),
    ("optim", {"lr": "x"}),
    ("model", {"preset": 5}),
    ("seeds", [True]),
    ("version", True),
    ("optim", {"total_steps": 2.5}),
])
def test_cli_wrongly_typed_field_exits_2(tmp_path, capsys, field, value):
    bad = _write_spec(tmp_path, {"version": 1, "task": "lm-smoke", field: value})
    assert main(["--spec", bad]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and field in err


def test_cli_missing_file_exits_2(tmp_path, capsys):
    assert main(["--spec", str(tmp_path / "nope.json")]) == 2
    assert "invalid spec" in capsys.readouterr().err


def test_cli_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    assert main(["--spec", str(path)]) == 2


def test_cli_bad_override_exits_2(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"version": 1, "task": "count"})
    assert main(["--spec", spec, "--set", "no-equals-sign"]) == 2
    assert main(["--spec", spec, "--seeds", "1,two"]) == 2
    assert main(["--spec", spec, "--jobs", "0"]) == 2
    capsys.readouterr()
    assert main(["--spec", spec, "--jobs", "2"]) == 2  # only gp-regression fans out
    assert "--jobs:" in capsys.readouterr().err
    lm_spec = _write_spec(tmp_path, {"version": 1, "task": "lm-smoke"})
    assert main(["--spec", lm_spec, "--set", "optim.lr=-3"]) == 2


@pytest.mark.parametrize("override", [
    "model.block.temperature=NaN",
    "model.block.attn_eta=Infinity",
    "model.block.mlp_eta=-Infinity",
])
def test_cli_non_finite_block_value_exits_2(tmp_path, capsys, override):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "lm-smoke", "out": str(tmp_path / "runs"),
        "model": {"preset": "lm-smoke"},
    })
    assert main(["--spec", spec, "--set", override]) == 2
    assert "invalid spec" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field", ["lr", "eps", "clip", "weight_decay"])
def test_cli_nan_optim_value_exits_2(tmp_path, capsys, field):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "lm-smoke", "out": str(tmp_path / "runs"),
        "optim": {"lr": 1e-3, field: float("nan"), "total_steps": 3, "batch_size": 2},
    })
    assert main(["--spec", spec]) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_diverging_run_exits_1(tmp_path, capsys):
    # a valid spec whose updates overflow: the softmax meets non-finite rows
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "lm-smoke", "out": str(tmp_path / "runs"),
        "optim": {"lr": 1e30, "total_steps": 6, "batch_size": 2, "clip": 1e9},
    })
    with np.errstate(all="ignore"):
        assert main(["--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed")
    assert "Traceback" not in err


def test_cli_diverging_run_prints_only_its_error(tmp_path):
    # the run in its own interpreter, under numpy's default error state: the
    # overflow on the way to the typed error must not warn ahead of it
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "lm-smoke", "out": str(tmp_path / "runs"),
        "optim": {"lr": 1e30, "total_steps": 6, "batch_size": 2, "clip": 1e9},
    })
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "energyformer.cli", "--spec", spec],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 1
    assert proc.stderr.startswith("run failed")
    assert "RuntimeWarning" not in proc.stderr


def test_cli_diverging_gp_run_exits_1(tmp_path, capsys):
    # the normalised stream overflows well before the loss does
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "gp-regression", "out": str(tmp_path / "runs"),
        "optim": {"lr": 1e30, "total_steps": 20, "clip": 1e9},
    })
    assert main(["--spec", spec]) == 1
    assert capsys.readouterr().err.startswith("run failed")


def test_cli_count_end_to_end(tmp_path, capsys):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "count", "out": str(tmp_path / "runs"),
        "task_options": {"models": ["ref-86m", "cem-86m"], "seq_len": 64},
    })
    assert main(["--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "attention_core: 1/2" in out
    assert "mlp_core: 2/3" in out
    run_dirs = list((tmp_path / "runs").glob("count-*"))
    assert len(run_dirs) == 1
    report = json.loads((run_dirs[0] / "result.json").read_text())
    assert report["ratios"]["attention_core"]["exact"] == "1/2"
    assert report["ratios"]["mlp_core"]["exact"] == "2/3"


def test_cli_default_out_root_is_runs(tmp_path, monkeypatch):
    # neither --out nor the spec's out: outputs land under ./runs
    monkeypatch.chdir(tmp_path)
    payload = {"version": 1, "task": "count",
               "task_options": {"models": ["ref-86m", "cem-86m"], "seq_len": 8}}
    assert main(["--spec", _write_spec(tmp_path, payload)]) == 0
    want = Path("runs") / f"count-{spec_hash(ExperimentSpec.from_dict(payload))}"
    assert task_dir_for(ExperimentSpec.from_dict(payload)) == want
    assert [p.name for p in (tmp_path / "runs").iterdir()] == [want.name]
    assert (tmp_path / want / "result.json").exists()


def test_cli_count_named_inline_entries(tmp_path):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "count", "out": str(tmp_path / "runs"),
        "task_options": {"models": [
            {"preset": "cem-86m", "name": "wide", "block": {"d_mlp": 2048}},
            {"preset": "cem-86m", "name": "narrow"},
        ]},
    })
    assert main(["--spec", spec]) == 0
    report = json.loads(next((tmp_path / "runs").glob("count-*/result.json")).read_text())
    assert set(report["models"]) == {"wide", "narrow"}
    assert report["models"]["wide"]["params"]["mlp_core"] > (
        report["models"]["narrow"]["params"]["mlp_core"])


@pytest.mark.parametrize("models", [
    [{"preset": "cem-86m"}, {"preset": "ref-86m"}],  # both default to "custom"
    ["cem-86m", {"preset": "ref-86m", "name": "cem-86m"}],
    [{"preset": "cem-86m", "name": "x", "block": {"d_mlp": "wide"}}],
    [{"preset": "cem-86m", "colour": "red"}],
    ["no-such-preset"],
    [5],
    [{"preset": 5}],
])
def test_cli_bad_count_models_exit_2(tmp_path, capsys, models):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "count", "out": str(tmp_path / "runs"),
        "task_options": {"models": models},
    })
    assert main(["--spec", spec]) == 2
    assert "invalid spec" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("task,options", [  # options: the spec's payloads
    ("gp-regression", {"task_options": {"variants": 5}}),
    ("gp-regression", {"task_options": {"variants": [1]}}),
    ("gp-regression", {"task_options": {"variants": []}}),
    ("gp-regression", {"task_options": {"variants": ["gated", "gated"]}}),  # shared files
    ("gp-regression", {"task_options": {"d_hidden": "x"}}),
    ("gp-regression", {"task_options": {"n_layers": 0}}),
    ("lr-sweep", {"task_options": {"lrs": ["a"]}}),
    ("lr-sweep", {"task_options": {"lrs": [1e-3, -1e-3]}}),
    ("lr-sweep", {"task_options": {"lrs": [1e-3, 1e-3]}}),  # would share a run directory
    ("lr-sweep", {"task_options": {"low": "a"}}),
    ("count", {"task_options": {"seq_len": "x"}}),
    ("count", {"task_options": {"seq_len": 0}}),
    ("gp-regression", {"data": {"n_points": "x"}}),
    ("gp-regression", {"data": {"in_dim": 0}}),
    ("gp-regression", {"data": {"lenghtscale": 0.8}}),
    ("gp-regression", {"task_options": {"d_hiden": 8}}),
    ("lr-sweep", {"task_options": {"lr": [1e-3]}}),  # typo for lrs
    ("lr-sweep", {"optim": {"lr": 1e-3}}),  # each swept rate sets it
    ("verify", {"task_options": {"fast": "no"}}),
    ("gp-regression", {"model": {"preset": "lm-smoke"}}),  # variants make the models
    ("count", {"optim": {"lr": 1e-3}}),
    ("lm-smoke", {"data": {"seq_len": 1}}),
    ("gp-regression", {"task_options": {"variants": ["cem-t2", "cem-t02"]}}),  # one model twice
])
def test_cli_malformed_task_options_exit_2(tmp_path, capsys, task, options):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": task, "out": str(tmp_path / "runs"), **options,
    })
    assert main(["--spec", spec]) == 2
    err = capsys.readouterr().err
    field, payload = next(iter(options.items()))
    assert "invalid spec" in err and f"{field}.{next(iter(payload))}" in err
    assert not (tmp_path / "runs").exists()


def test_cli_effective_config_round_trips(tmp_path):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "count", "out": str(tmp_path / "runs"),
    })
    assert main(["--spec", spec, "--set", "task_options.seq_len=32"]) == 0
    run_dir = next((tmp_path / "runs").glob("count-*"))
    payload = json.loads((run_dir / "effective-config.json").read_text())
    again = ExperimentSpec.from_dict(payload)
    again.validate()
    assert again.task_options["seq_len"] == 32
    assert spec_hash(again) == run_dir.name.split("-")[-1]


def test_cli_overrides_reach_nested_fields(tmp_path):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "lm-smoke", "out": str(tmp_path / "runs"),
        "data": {"seq_len": 17},
        "model": {"preset": "lm-smoke", "block": {"d_hidden": 16, "n_heads": 2,
                                                  "d_mlp": 32, "attn_precond_rank": 2,
                                                  "mlp_precond_rank": 2}},
        "optim": {"total_steps": 4, "batch_size": 4},
    })
    assert main(["--spec", spec, "--set", "optim.total_steps=2",
                 "--seeds", "7"]) == 0
    run_dir = next((tmp_path / "runs").glob("lm-smoke-*"))
    payload = json.loads((run_dir / "effective-config.json").read_text())
    assert payload["optim"]["total_steps"] == 2
    assert payload["seeds"] == [7]
    (result,) = json.loads((run_dir / "result.json").read_text())["rows"]
    assert result["seed"] == 7
    assert np.isfinite(result["final_train_loss"])
    assert (run_dir / "seed7" / "model.bin").exists()


LM_SPEC = dict(
    task="lm-smoke",
    model={"preset": "lm-smoke", "n_layers": 1,
           "block": {"d_hidden": 8, "n_heads": 2, "d_mlp": 16}},
    optim={"total_steps": 2, "batch_size": 4},
)


def test_lm_smoke_eval_windows_are_held_out(tmp_path, monkeypatch):
    seen = {}

    def spy_batches(windows, batch_size, seed=0):
        seen["train"] = np.asarray(windows)
        return batch_iterator(windows, batch_size, seed=seed)

    def spy_eval(model, windows):
        seen["eval"] = np.asarray(windows)
        return lm_eval(model, windows)

    monkeypatch.setattr(cli, "batch_iterator", spy_batches)
    monkeypatch.setattr(cli, "lm_eval", spy_eval)
    spec = ExperimentSpec(out=str(tmp_path / "runs"), **LM_SPEC)
    cli._lm_train_one(spec, 0, tmp_path / "seed0", OptimConfig(**spec.optim))
    # 65-byte windows of the bundled corpus are all distinct, so disjoint
    # contents mean disjoint windows
    train_rows = {w.tobytes() for w in seen["train"]}
    eval_rows = {w.tobytes() for w in seen["eval"]}
    assert len(eval_rows) == 64
    assert len(train_rows) + len(eval_rows) == len(cli._lm_windows(spec))
    assert not train_rows & eval_rows


def test_lm_smoke_reduction_is_held_out_eval_before_and_after(tmp_path):
    spec = ExperimentSpec(out=str(tmp_path / "runs"), **LM_SPEC)
    (result,) = run_spec(spec)["rows"]
    held_out = cli._lm_windows(spec)[: cli.EVAL_WINDOWS]
    before = lm_eval(build_model(resolve_model_config(LM_SPEC["model"]), seed=0), held_out)
    assert result["reduction"] == 1.0 - result["eval"]["loss"] / before["loss"]
    assert result["initial_eval"] == before


def test_lm_smoke_corpus_too_small_for_held_out_split(tmp_path):
    corpus = tmp_path / "tiny.txt"
    corpus.write_bytes(bytes(range(97, 123)) * 44)  # 67 windows of 17: 3 left to train
    spec = ExperimentSpec(out=str(tmp_path / "runs"), data={
        "seq_len": 17, "corpus": str(corpus)}, **LM_SPEC)
    with pytest.raises(DataError, match="67 windows"):
        cli._lm_train_one(spec, 0, tmp_path / "seed0", OptimConfig(**spec.optim))


def test_gp_task_writes_paired_artifacts(tmp_path):
    spec = ExperimentSpec(
        task="gp-regression", seeds=(0, 1), out=str(tmp_path / "runs"),
        data={"kernel": "rbf", "n_points": 60},
        optim={"lr": 3e-3, "total_steps": 6, "batch_size": 48,
               "weight_decay": 0.0},
        task_options={"d_hidden": 8, "d_mlp": 16,
                      "variants": ["gated", "cem-t1", "cem-t2"]},
    )
    out = run_spec(spec)
    assert json.loads((task_dir_for(spec) / "result.json").read_text()) == out
    rows = out["rows"]
    assert len(rows) == 6  # 2 seeds x 3 variants
    by_seed = {(r["seed"], r["variant"]): r for r in rows}
    assert by_seed[(0, "cem-t1")]["total_params"] == by_seed[(0, "cem-t2")]["total_params"]
    # each seed draws its own problem
    assert by_seed[(0, "gated")]["rmse_test"] != by_seed[(1, "gated")]["rmse_test"]
    assert list(out["summary"]) == ["gated", "cem-t1", "cem-t2"]  # the spec's order
    for variant, means in out["summary"].items():
        for key in ("rmse_test", "rmse_train"):
            vals = [by_seed[(seed, variant)][key] for seed in spec.seeds]
            assert means[f"mean_{key}"] == float(np.mean(vals))


def test_gp_task_deterministic_per_seed(tmp_path):
    results = []
    for tag in ("a", "b"):
        spec = ExperimentSpec(
            task="gp-regression", seeds=(3,), out=str(tmp_path / tag),
            data={"kernel": "matern", "n_points": 50},
            optim={"lr": 3e-3, "total_steps": 5, "batch_size": 40,
                   "weight_decay": 0.0},
            task_options={"d_hidden": 8, "d_mlp": 16, "variants": ["cem-t1"]},
        )
        results.append(run_spec(spec)["rows"][0]["rmse_test"])
    assert results[0] == results[1]


def test_lr_sweep_produces_argmin_annotation(tmp_path):
    spec = ExperimentSpec(
        task="lr-sweep", seeds=(0,), out=str(tmp_path / "runs"),
        data={"seq_len": 17},
        model={"kind": "lm", "vocab_size": 256, "n_layers": 1,
               "block": {"d_hidden": 16, "n_heads": 2, "d_mlp": 32}},
        optim={"total_steps": 3, "batch_size": 4},
        task_options={"n_points": 5, "low": 1e-3, "high": 8e-3},
    )
    out = run_spec(spec)
    assert json.loads((task_dir_for(spec) / "result.json").read_text()) == out
    points = out["points"]
    assert len(points) == 5
    best = estimate_lr_optimum([p["lr"] for p in points], [p["loss"] for p in points])
    assert (out["best_lr"], out["best_loss"]) == best


def test_lr_sweep_under_five_points_has_no_argmin(tmp_path):
    spec = ExperimentSpec(
        task="lr-sweep", seeds=(0,), out=str(tmp_path / "runs"),
        data={"seq_len": 17}, model=LM_SPEC["model"], optim=LM_SPEC["optim"],
        task_options={"lrs": [1e-3]},
    )
    out = run_spec(spec)
    assert list(out) == ["points"] and len(out["points"]) == 1


def test_lr_sweep_scores_held_out_eval_loss(tmp_path):
    spec = ExperimentSpec(
        task="lr-sweep", seeds=(0, 1), out=str(tmp_path / "runs"),
        data={"seq_len": 17}, model=LM_SPEC["model"], optim=LM_SPEC["optim"],
        task_options={"lrs": [1e-3, 4e-3]},
    )
    out = run_spec(spec)
    for point in out["points"]:
        for seed, loss in zip(spec.seeds, point["per_seed"]):
            run_dir = task_dir_for(spec) / f"lr{point['lr']:.6g}-seed{seed}"
            records = [json.loads(line)
                       for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
            final_eval = [r["value"] for r in records
                          if r["split"] == "eval" and r["metric"] == "loss"][-1]
            assert loss == final_eval


def test_verify_task_end_to_end(tmp_path, capsys):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "verify", "out": str(tmp_path / "runs"),
        "task_options": {"fast": True},
    })
    assert main(["--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    run_dir = next((tmp_path / "runs").glob("verify-*"))
    report = json.loads((run_dir / "result.json").read_text())
    assert report["all_passed"] is True


def test_verify_task_failing_battery_leaves_its_verdict(tmp_path, capsys, monkeypatch):
    report = {"all_passed": False, "checks": [
        {"check": "descent", "passed": False, "worst_deviation": 0.5, "tolerance": 0.0,
         "n_cases": 3}]}
    monkeypatch.setattr(cli.verify, "run_all", lambda fast: report)
    spec = _write_spec(tmp_path, {"version": 1, "task": "verify", "out": str(tmp_path / "runs")})
    assert main(["--spec", spec]) == 1
    assert "verification suites failed: descent" in capsys.readouterr().err
    run_dir = next((tmp_path / "runs").glob("verify-*"))
    assert json.loads((run_dir / "result.json").read_text()) == report


# ---------------------------------------------------------------------------
# result records


TINY_LM = {"data": {"seq_len": 17}, "model": LM_SPEC["model"], "optim": LM_SPEC["optim"]}
TINY_TASKS = {  # task: (spec payloads, the run files it leaves)
    "gp-regression": (
        {"data": {"n_points": 20, "in_dim": 2}, "optim": {"total_steps": 2},
         "task_options": {"d_hidden": 8, "d_mlp": 16, "variants": ["gated", "cem-t1"]}},
        [f"seed0/{v}-{f}" for v in ("gated", "cem-t1") for f in ("metrics.jsonl", "model.bin")],
    ),
    "lm-smoke": (TINY_LM, ["seed0/metrics.jsonl", "seed0/model.bin"]),
    "lr-sweep": (
        {**TINY_LM, "task_options": {"lrs": [1e-3, 2e-3]}},
        [f"lr{lr}-seed0/{f}" for lr in ("0.001", "0.002") for f in ("metrics.jsonl", "model.bin")],
    ),
    "verify": ({}, []),
    "count": ({"task_options": {"seq_len": 8}}, []),
}


@pytest.mark.parametrize("task", list(TINY_TASKS))
def test_task_dir_holds_config_result_and_run_files_only(tmp_path, capsys, task):
    payloads, run_files = TINY_TASKS[task]
    spec = ExperimentSpec(task=task, out=str(tmp_path / "runs"), **payloads)
    out = run_spec(spec)
    task_dir = task_dir_for(spec)
    files = {str(p.relative_to(task_dir)) for p in task_dir.rglob("*") if p.is_file()}
    assert files == {"effective-config.json", "result.json", *run_files}
    assert json.loads((task_dir / "result.json").read_text()) == out


def test_write_result_rejects_non_finite_numbers(tmp_path):
    write_result(tmp_path, {"points": [{"lr": 1e-3, "loss": 2.0}]})
    before = (tmp_path / "result.json").read_bytes()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DataError, match=f"{tmp_path.name}: result is not finite JSON"):
            write_result(tmp_path, {"points": [{"lr": 1e-3, "loss": bad}]})
        assert (tmp_path / "result.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]


def test_failed_result_write_keeps_previous_result(tmp_path, monkeypatch):
    write_result(tmp_path, {"rows": [{"seed": 0, "reduction": 0.25}]})
    before = (tmp_path / "result.json").read_bytes()
    _fail_writes(monkeypatch)
    with pytest.raises(OSError):
        write_result(tmp_path, {"rows": [{"seed": 0, "reduction": 0.5}] * 100})
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]  # no temp file left
    assert (tmp_path / "result.json").read_bytes() == before


def test_cli_corpus_directory_exits_2(tmp_path, capsys):
    spec = _write_spec(tmp_path, {
        "version": 1, "task": "lm-smoke", "out": str(tmp_path / "runs"),
        "data": {"corpus": str(tmp_path)},
    })
    assert main(["--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and "data.corpus" in err
    assert not (tmp_path / "runs").exists()


def test_cli_unwritable_out_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    spec = _write_spec(tmp_path, {"version": 1, "task": "count",
                                  "task_options": {"seq_len": 8}})
    assert main(["--spec", spec, "--out", str(blocker / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed")
    assert "Traceback" not in err
