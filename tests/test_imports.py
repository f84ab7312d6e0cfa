"""The package loads scipy only where it is needed: the verify oracles'
energies (scipy.special) and the learning-rate sweep's Akima fit
(scipy.interpolate). Training, evaluation, GP sampling and counting run
on numpy alone, so none of them pays scipy's import time or memory."""

import json
import os
import subprocess
import sys
from pathlib import Path

# a fresh interpreter, since this test session has imported scipy itself
PROBE = """
import itertools, json, sys
from pathlib import Path
import energyformer.cli as cli
from energyformer import data, model as md, train as tr, verify

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = Path(sys.argv[1])
seen = {"import": scipy_modules()}

ocfg = tr.OptimConfig(total_steps=2, batch_size=4)
windows = data.ingest_text(data.corpus_path(), 65)
lm = md.build_model(md.preset("lm-smoke"), seed=0)
tr.train_loop(lm, data.batch_iterator(windows[4:], 4), ocfg, loss_fn=tr.lm_loss,
              eval_fn=lambda m: tr.lm_eval(m, windows[:4]), checkpoint_path=out / "lm.bin")
tr.lm_eval(lm, windows[:2])
seen["lm"] = scipy_modules()

for kind in data.KERNEL_KINDS:
    train, test = data.gp_sample(data.GpKernelSpec(kind), n_points=24, seed=0, in_dim=3)
for variant in cli.GP_VARIANTS:
    gp = md.build_model(cli.gp_variant_config(variant, 8, 16, 2, 3), seed=0)
    tr.train_loop(gp, itertools.repeat(train), ocfg, loss_fn=tr.regression_loss,
                  eval_fn=lambda m: tr.regression_eval(m, [train, test]),
                  checkpoint_path=out / f"{variant}.bin")
seen["gp"] = scipy_modules()

md.count_flops(md.preset("lm-smoke"), 64)
seen["count"] = scipy_modules()

seen["verify_passed"] = verify.run_all(fast=True)["all_passed"]
seen["verify"] = scipy_modules()
print(json.dumps(seen))
"""


def test_training_eval_sampling_and_counting_load_no_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    for stage in ("import", "lm", "gp", "count"):
        assert seen[stage] == [], stage
    # the oracles still run in the same process, loading the energies' scipy.special
    assert seen["verify_passed"]
    assert "scipy.special" in seen["verify"]
