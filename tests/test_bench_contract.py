"""The bench under bench/ reaches into the package by name.

Its tracer skips a patch point it cannot find and its isolated timings
look layer functions up by name, so a rename under src/ would quietly
zero per-layer bench rows. Its workloads' constructors call CLI, model
and verify helpers by name, so a rename there would fail only the
bench. Its per-layer GFLOP/s divide flop models it builds from
model.count_flops. These tests make such a rename fail here.
"""

import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import isolated  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from energyformer import layers  # noqa: E402


def _resolve(module: str, attribute: str):
    obj = importlib.import_module(module)
    for part in attribute.split("."):  # a dotted attribute is a method
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize(
    "module,attribute",
    [(module, attribute) for _, module, attribute in tracing.PATCH_POINTS],
    ids=[f"{module}.{attribute}" for _, module, attribute in tracing.PATCH_POINTS],
)
def test_trace_patch_point_resolves(module, attribute):
    assert callable(_resolve(module, attribute))


@pytest.mark.parametrize("stem", sorted(isolated.LAYERS))
def test_isolated_layer_resolves(stem):
    fn_name = isolated.LAYERS[stem][3]
    assert callable(getattr(layers, fn_name, None)), f"energyformer.layers.{fn_name}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_constructs(name):
    block, batch, seq = workloads.WORKLOADS[name]().iso_shape  # what run.py reads
    assert callable(getattr(block, "validate", None)) and batch >= 1 and seq >= 1


def _workload_configs():
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = cls()
        configs = getattr(workload, "configs", {"": getattr(workload, "cfg", None)})
        for variant, cfg in configs.items():
            if cfg is not None:  # verify-fast builds its own models
                yield pytest.param(workload, cfg, id=f"{name}-{variant}" if variant else name)


@pytest.mark.parametrize("workload,cfg", list(_workload_configs()))
def test_flop_models_count_positive(workload, cfg):
    tracer = SimpleNamespace(flop_models={})  # all register_flop_models touches
    workloads.register_flop_models(tracer, cfg)
    assert tracer.flop_models
    _, batch, seq = workload.iso_shape
    h = np.zeros((batch, seq, cfg.block.d_hidden))  # a layer call's input
    for group, model in tracer.flop_models.items():
        flops = model((h,))
        assert math.isfinite(flops) and flops > 0, group
