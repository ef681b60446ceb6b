"""Checks on the benchmark itself: metric declarations, determinism of the
counts it reports, tracer hygiene and tracer coverage.

    python -m pytest benchmark/tests -q
"""

import dataclasses
import json
import os
import re

import pytest

import gridseg.data
import gridseg.grid
import gridseg.metrics
import gridseg.ops
import gridseg.optim
import gridseg.tensor
import gridseg.train
from gridseg.grid import build_grid

import run
import workloads
from tracer import CONV_KINDS, OP_KINDS, Tracer, coverage_check

END_TO_END = ["setup_s", "train_samples_per_s", "train_step_ms_p50", "train_step_ms_p90",
              "eval_scenes_per_s", "eval_scene_ms_p50", "eval_scene_ms_p90",
              "eval_mean_iou", "peak_traced_mib"]
# printed with the others, left out of BENCHMARK.json (see README.md)
EXTRA = [f"wall.{name}" for name in END_TO_END[1:7]] + ["host.probe_ms_p50", "train_loss",
                                                        "failed_frac"]
PER_LAYER = (
    [f"ops.{k}.{m}" for k in OP_KINDS for m in ("fwd_ms", "bwd_ms", "calls", "out_mib")]
    + [f"ops.{k}.{m}" for k in CONV_KINDS for m in ("gmac", "gmac_per_s")]
    + ["tensor.backward_ms", "tensor.backward_self_ms", "tensor.accumulate_calls",
       "tensor.grad_allocs", "grid.forward_ms", "grid.forward_self_ms", "dropout.mask_ms",
       "dropout.kept_frac", "optim.step_ms", "optim.tensors", "optim.mparams",
       "train.batch_ms", "train.save_checkpoint_ms", "train.load_checkpoint_ms",
       "train.checkpoint_mib", "data.generate_ms", "data.resize_ms", "metrics.predict_ms",
       "metrics.forward_ms", "metrics.vote_self_ms", "metrics.score_ms",
       "metrics.avg_sizes_ms", "trace.overhead_frac", "trace.unattributed_frac"])
# per-layer figures that count work rather than time it
COUNTS = re.compile(r"\.(calls|gmac|out_mib)$|^tensor\.(grad_allocs|accumulate_calls)$"
                    r"|^optim\.(tensors|mparams)$|^dropout\.kept_frac$")

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str) -> workloads.Workload:
    """The named workload on a handful of scenes, so a run takes seconds."""
    return dataclasses.replace(workloads.WORKLOADS[name], n_train=8, n_eval=3, setups=2)


def test_every_metric_is_declared_with_a_unit():
    specs = run.metric_specs()
    assert list(specs["end_to_end"]) == END_TO_END
    assert sorted(specs["per_layer"]) == sorted(PER_LAYER)
    for group in specs.values():
        for name, spec in group.items():
            assert NAME.fullmatch(name), name
            assert spec["unit"]
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = specs["end_to_end"]["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_quality_guards_repeat_exactly(name, tmp_path):
    w = small(name)
    a = workloads.run_untraced(w, 3, 0.5, str(tmp_path))
    b = workloads.run_untraced(w, 3, 0.5, str(tmp_path))
    assert set(a["metrics"]) == set(END_TO_END) and set(a["extra"]) == set(EXTRA)
    assert a["failed"] == 0 and a["extra"]["failed_frac"] == 0.0
    assert a["extra"]["train_loss"] == b["extra"]["train_loss"]
    assert a["metrics"]["eval_mean_iou"] == b["metrics"]["eval_mean_iou"]


def test_host_scaling_is_the_identity_at_the_reference_speed(monkeypatch, tmp_path):
    # every step, scene and snapshot tail is paired with a probe; at the
    # reference probe time the scaled figures must equal the wall-clock ones
    monkeypatch.setattr(workloads.hostspeed, "probe", lambda: workloads.hostspeed.REFERENCE_S)
    r = workloads.run_untraced(small("desk_train"), 3, 0.5, str(tmp_path))
    for name in END_TO_END[1:7]:
        assert r["metrics"][name] == pytest.approx(r["extra"][f"wall.{name}"], rel=1e-12)
    assert r["samples"]["eval_scene_ms_p50"] == r["samples"]["train_step_ms_p50"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    w = small(name)
    a = workloads.run_traced(w, 5, str(tmp_path))
    b = workloads.run_traced(w, 5, str(tmp_path))
    assert set(a["metrics"]) == set(PER_LAYER)
    assert a["checks"]["traced op outputs equal activation_tally"]
    counts = [k for k in PER_LAYER if COUNTS.search(k)]
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}
    assert a["metrics"]["optim.tensors"] == len(build_grid(w.grid, (64, 64)).named_parameters())
    assert 0.0 < a["metrics"]["dropout.kept_frac"] <= 1.0
    assert a["metrics"]["metrics.predict_ms"] > 0.0


def _wrapped_targets():
    owners = [gridseg.data, gridseg.grid.GridModel, gridseg.metrics,
              gridseg.metrics.ConfusionMatrix, gridseg.metrics.InstanceScore, gridseg.ops,
              gridseg.optim.Adam, gridseg.tensor.Tape, gridseg.tensor.Tensor, gridseg.train]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_tracer_restores_every_attribute_by_identity():
    before = _wrapped_targets()
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            assert _wrapped_targets() != before
            raise KeyError("body fails")  # the attributes come back anyway
    after = _wrapped_targets()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("batch,side", [(4, 64), (1, 48)])
def test_traced_outputs_cover_activation_tally(name, batch, side):
    model = build_grid(workloads.WORKLOADS[name].grid, (side, side), seed=0)
    seen, expected = coverage_check(model, batch)
    assert seen == expected


def test_coverage_check_notices_an_untraced_op(monkeypatch):
    model = build_grid(workloads.WORKLOADS["desk_train"].grid, (64, 64), seed=0)

    class OpsWithHiddenRelu:
        relu = staticmethod(gridseg.ops.relu)  # bound now, so the tracer never sees it

        def __getattr__(self, name):
            return getattr(gridseg.ops, name)

    monkeypatch.setattr(gridseg.grid, "ops", OpsWithHiddenRelu())
    seen, expected = coverage_check(model, 2)
    assert seen < expected
