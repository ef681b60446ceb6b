"""The benchmark's workloads and the closed-loop client that drives them.

One process, one client: the next train step or eval scene starts only
after the previous one returns. The client calls gridseg's public entry
points the way ``gridseg train`` and ``gridseg eval`` do, looking each
one up on its module at call time so a tracer's wrappers apply.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import numpy as np

import gridseg.data
import gridseg.metrics
import gridseg.train
from gridseg.config import RunConfig
from gridseg.grid import GridSpec, build_grid, symmetric_columns

import hostspeed
from tracer import MIB, Tracer, coverage_check, layer_metrics

STOCK = RunConfig()  # the desk-scale defaults that `gridseg train` uses
SIDE = STOCK.augment.out_size
UNATTRIBUTED_BOUND = 0.10  # largest share of traced wall time outside every root span
IOU_FLOOR = 0.30  # an untrained model that predicts only background scores about 0.2
SCENES_PER_SEED = 10_000  # workload seeds draw from disjoint ranges of scene seeds
WARMUP_SCENES = 32  # the warm-up epoch: 8 steps


@dataclass(frozen=True)
class Workload:
    grid: GridSpec
    n_train: int = STOCK.data.n_train
    n_eval: int = STOCK.data.n_eval
    setups: int = 9  # set-ups per untraced run; setup_s is their median


WIDE = dataclasses.replace(STOCK.grid, n_streams=3, column_kinds=symmetric_columns(1, 1),
                           base_channels=16, fusion="concat", vertical_residual=True)

WORKLOADS = {
    # many small ops: dispatch, grid orchestration, tape replay and the
    # per-tensor Adam loop carry a large share of the step
    "desk_train": Workload(STOCK.grid),
    # few large ops: BLAS-bound; the only user of concat, 1x1 projections
    # and stride-2 1x1 shortcuts
    "wide_train": Workload(WIDE),
}


# ---------------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------------


class StepClock:
    """Notes when each ``Adam.step`` of one optimizer returns.

    ``between``, if given, runs after every step, outside the step's time:
    ``stamps[i]`` is when step ``i`` returned and ``resumes[i]`` when
    ``between`` did, so the next step starts there.
    """

    def __init__(self, optim, between=None):
        self.stamps: list[float] = []
        self.resumes: list[float] = []

        def step():
            # looked up on the class at call time, so a tracer's wrapper applies
            lr = type(optim).step(optim)
            self.stamps.append(time.perf_counter())
            if between is not None:
                between()
            self.resumes.append(time.perf_counter())
            return lr

        optim.step = step


@dataclass
class TrainPhase:
    step_s: list[float] = dataclasses.field(default_factory=list)
    # per epoch: time from the last step to the end of train_run (the snapshot),
    # and how many steps came before it in step_s
    tail_s: list[float] = dataclasses.field(default_factory=list)
    tail_after: list[int] = dataclasses.field(default_factory=list)
    samples: int = 0
    losses: list[float] = dataclasses.field(default_factory=list)  # per epoch
    snapshots: list[str] = dataclasses.field(default_factory=list)
    failed: int = 0

    @property
    def wall_s(self) -> float:
        """Wall time of the train_run calls, less what ran between steps."""
        return sum(self.step_s) + sum(self.tail_s)


@dataclass
class EvalPhase:
    scene_s: list[float] = dataclasses.field(default_factory=list)
    failed: int = 0
    mismatches: int = 0  # a re-scored scene whose report changed


def train_config(epochs: int) -> gridseg.train.TrainConfig:
    return dataclasses.replace(STOCK.train, epochs=epochs, snapshot_every=1)


def train_epochs(st: dict, first_epoch: int, workdir: str, *, n_epochs: int,
                 scenes=None, snapshot: bool = True, phase: TrainPhase | None = None,
                 between=None) -> TrainPhase:
    """``n_epochs`` whole epochs, one ``train_run`` call each.

    A step's latency runs from the previous step's return (or the epoch's
    start) to its own ``Adam.step`` return; the epoch-end snapshot counts
    in wall time but in no step. ``between`` runs after every step and
    counts in neither: the next step starts when it returns.
    """
    phase = TrainPhase() if phase is None else phase
    scenes = st["scenes"] if scenes is None else scenes
    clock = StepClock(st["optim"], between)
    for epoch in range(first_epoch, first_epoch + n_epochs):
        path = os.path.join(workdir, f"epoch{epoch}.grdn") if snapshot else None
        start = time.perf_counter()
        try:
            records = gridseg.train.train_run(
                st["model"], scenes, STOCK.augment, train_config(epoch + 1), seed=STOCK.seed,
                optim=st["optim"], epochs_done=epoch, snapshot_path=path)
        except Exception:  # a failed step is counted, and the run goes on
            traceback.print_exc()
            records = None
            phase.failed += 1
        starts = [start] + clock.resumes
        phase.step_s += [b - a for a, b in zip(starts, clock.stamps)]
        phase.tail_s.append(time.perf_counter() - starts[len(clock.stamps)])
        phase.tail_after.append(len(phase.step_s))
        phase.samples += len(clock.stamps) * STOCK.train.batch_size
        clock.stamps.clear()
        clock.resumes.clear()
        if records is not None:
            phase.losses.append(records[0]["loss"])
            if path:
                phase.snapshots.append(path)
    del st["optim"].step  # drop the clock; the class method shows through again
    return phase


def eval_scene(model, scene, phase: EvalPhase):
    """Score one scene with one ``evaluate_scenes`` call, as ``gridseg eval``
    scores it (scale 1.0, ``threads=1``); None if the call fails."""
    start = time.perf_counter()
    try:
        report = gridseg.metrics.evaluate_scenes(
            model, [scene], ignore_label=STOCK.train.ignore_label, threads=1)
    except Exception:  # a failed scene is counted, and the run goes on
        traceback.print_exc()
        report = None
        phase.failed += 1
    phase.scene_s.append(time.perf_counter() - start)
    return report


def eval_pass(model, held_out, *, n_scenes: int | None = None, tracer: Tracer | None = None,
              phase: EvalPhase | None = None, reports: dict | None = None) -> EvalPhase:
    """Score held-out scenes in order, one ``eval_scene`` each.

    ``reports`` maps scene index to its first report; a later report for
    the same scene must equal it.
    """
    phase = EvalPhase() if phase is None else phase
    reports = {} if reports is None else reports
    for k in range(len(held_out) if n_scenes is None else n_scenes):
        if tracer is not None:
            tracer.step = k
        report = eval_scene(model, held_out[k], phase)
        if report is not None and reports.setdefault(k, report) != report:
            phase.mismatches += 1
    if tracer is not None:
        tracer.step = None
    return phase


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _scenes(n: int, first_seed: int):
    d = STOCK.data
    return gridseg.data.generate_dataset(n, seed=first_seed, width=d.width, height=d.height,
                                         num_classes=STOCK.grid.num_classes,
                                         max_shapes=d.max_shapes)


def setup(w: Workload, seed: int) -> dict:
    """Training and held-out scenes, model and optimizer.

    The workload seed picks the scenes only. Model initialisation, shuffling,
    patches and dropout use the stock config's seed, so a run's figures
    depend on its inputs and not on a lucky or unlucky initialisation.
    """
    first = seed * SCENES_PER_SEED
    model = build_grid(w.grid, (SIDE, SIDE), seed=STOCK.seed)
    return {"scenes": _scenes(w.n_train, first),
            "held_out": _scenes(w.n_eval, first + w.n_train),
            "model": model,
            "optim": gridseg.train.make_optimizer(model, STOCK.train)}


def same_state(model_a, optim_a, model_b, optim_b) -> bool:
    """Bit-exact equality of parameters, buffers and Adam state."""
    pairs = [(a.data, b.data) for (_, a), (_, b) in
             zip(model_a.named_parameters(), model_b.named_parameters())]
    pairs += [(a, b) for (_, a), (_, b) in
              zip(model_a.named_buffers(), model_b.named_buffers())]
    pairs += list(zip(optim_a.m, optim_b.m)) + list(zip(optim_a.v, optim_b.v))
    return optim_a.t == optim_b.t and all(np.array_equal(a, b) for a, b in pairs)


def traced_peak_mib(fn) -> float:
    """tracemalloc peak while ``fn`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _ms_percentiles(seconds: list[float]) -> tuple[float, float]:
    ms = np.asarray(seconds) * 1000.0
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


def _warm_up(st: dict, workdir: str) -> TrainPhase:
    """Epoch 0 over a few scenes, plus three eval scenes."""
    warm = train_epochs(st, 0, workdir, n_epochs=1, scenes=st["scenes"][:WARMUP_SCENES],
                        snapshot=False)
    eval_pass(st["model"], st["held_out"], n_scenes=3)
    return warm


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(w: Workload, seed: int, seconds: float, workdir: str) -> dict:
    """Set-ups, warm-up, one step under tracemalloc, then timed epochs until
    ``seconds`` have passed.

    After every timed train step the host-speed probe runs, then one
    held-out scene is scored, the scenes taken in turn, so that eval latency
    is sampled at the same points in time as train latency rather than in a
    few bursts between epochs. Neither counts in the step's latency or the
    train wall time. Latencies and throughputs are reported scaled by the
    probe next to each step and scene (see hostspeed.py); the wall-clock
    figures are printed and recorded beside them.

    Loss and IoU are taken at the first timed epoch, so they do not depend on
    how many epochs fit in the time.
    """
    setup_s = []
    for _ in range(w.setups):
        start = time.perf_counter()
        st = setup(w, seed)
        setup_s.append(time.perf_counter() - start)
    model, held_out = st["model"], st["held_out"]
    warm = _warm_up(st, workdir)
    batch = st["scenes"][:STOCK.train.batch_size]
    peak = traced_peak_mib(
        lambda: train_epochs(st, 1, workdir, n_epochs=1, scenes=batch, snapshot=False))

    train, ev, probes = TrainPhase(), EvalPhase(), []
    turn = itertools.count()

    def score_next_scene():
        probes.append(hostspeed.probe())
        eval_scene(model, held_out[next(turn) % len(held_out)], ev)

    begin = time.perf_counter()
    epoch = 2
    while epoch == 2 or time.perf_counter() - begin < seconds:
        train_epochs(st, epoch, workdir, n_epochs=1, phase=train, between=score_next_scene)
        epoch += 1

    checks, rescored = {}, EvalPhase()
    loss = iou = None
    if train.snapshots:
        last, last_optim, _ = gridseg.train.load_checkpoint(train.snapshots[-1])
        checks["checkpoint round trip is bit-exact"] = same_state(model, st["optim"],
                                                                  last, last_optim)
        # the restored model must score scenes exactly as the live one does
        reports = {}
        eval_pass(model, held_out, n_scenes=3, phase=rescored, reports=reports)
        eval_pass(last, held_out, n_scenes=3, phase=rescored, reports=reports)
        first, _, _ = gridseg.train.load_checkpoint(train.snapshots[0])
        loss = train.losses[0]
        iou = gridseg.metrics.evaluate_scenes(
            first, held_out, ignore_label=STOCK.train.ignore_label, threads=1)["mean_iou"]
    checks["train loss is finite"] = loss is not None and math.isfinite(loss)
    checks["loss falls from the warm-up epoch"] = bool(warm.losses and train.losses) and \
        train.losses[-1] < warm.losses[0]
    checks[f"held-out mean IoU is at least {IOU_FLOOR}"] = iou is not None and iou >= IOU_FLOOR
    checks["a restored snapshot repeats the live model's reports"] = \
        bool(rescored.scene_s) and rescored.mismatches == 0
    checks["no step or scene failed"] = train.failed == 0 and ev.failed + rescored.failed == 0

    # step i and scene i pair with probe i; an epoch's tail with its last step's
    scale = [hostspeed.REFERENCE_S / p for p in probes]
    steps = [t * k for t, k in zip(train.step_s, scale)]
    scenes = [t * k for t, k in zip(ev.scene_s, scale)]
    tails = [t * (scale[n - 1] if n else 1.0) for t, n in zip(train.tail_s, train.tail_after)]
    step_p50, step_p90 = _ms_percentiles(steps)
    scene_p50, scene_p90 = _ms_percentiles(scenes)
    wall_step_p50, wall_step_p90 = _ms_percentiles(train.step_s)
    wall_scene_p50, wall_scene_p90 = _ms_percentiles(ev.scene_s)
    attempted = len(train.step_s) + train.failed + len(ev.scene_s) + len(rescored.scene_s)
    failed = train.failed + ev.failed + rescored.failed
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "train_samples_per_s": train.samples / (sum(steps) + sum(tails)),
            "train_step_ms_p50": step_p50,
            "train_step_ms_p90": step_p90,
            "eval_scenes_per_s": len(scenes) / sum(scenes),
            "eval_scene_ms_p50": scene_p50,
            "eval_scene_ms_p90": scene_p90,
            "eval_mean_iou": iou,
            "peak_traced_mib": peak,
        },
        # printed and recorded, but not in BENCHMARK.json (see README.md)
        "extra": {
            "wall.train_samples_per_s": train.samples / train.wall_s,
            "wall.train_step_ms_p50": wall_step_p50,
            "wall.train_step_ms_p90": wall_step_p90,
            "wall.eval_scenes_per_s": len(ev.scene_s) / sum(ev.scene_s),
            "wall.eval_scene_ms_p50": wall_scene_p50,
            "wall.eval_scene_ms_p90": wall_scene_p90,
            "host.probe_ms_p50": 1000.0 * statistics.median(probes),
            "train_loss": loss,
            "failed_frac": failed / attempted,
        },
        # how many values each figure rests on
        "samples": {
            "setup_s": len(setup_s),
            "train_samples_per_s": train.samples,
            "train_step_ms_p50": len(train.step_s),
            "train_step_ms_p90": len(train.step_s),
            "eval_scenes_per_s": len(ev.scene_s),
            "eval_scene_ms_p50": len(ev.scene_s),
            "eval_scene_ms_p90": len(ev.scene_s),
        },
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def run_traced(w: Workload, seed: int, workdir: str) -> dict:
    """Set-up under the tracer, warm-up, one untraced reference epoch, one
    traced epoch, then one traced validation pass for the metrics module.
    The length is fixed by the workload, not by a clock, so the counts
    repeat exactly for a seed."""
    tracer = Tracer()
    with tracer.installed():
        st = setup(w, seed)
    model, held_out = st["model"], st["held_out"]
    _warm_up(st, workdir)
    ref = train_epochs(st, 1, workdir, n_epochs=1, snapshot=False)
    with tracer.installed():
        tracer.step, tracer.auto_step = 0, True
        traced = train_epochs(st, 2, workdir, n_epochs=1)
        n_steps, tracer.step = tracer.step, None
        loaded, loaded_optim, _ = gridseg.train.load_checkpoint(traced.snapshots[-1])
    scoring = Tracer()
    with scoring.installed():
        scored = eval_pass(model, held_out, tracer=scoring)

    seen, expected = coverage_check(model, STOCK.train.batch_size)
    metrics = layer_metrics(tracer, n_steps)
    metrics.update({k: v for k, v in layer_metrics(scoring, len(held_out)).items()
                    if k.startswith("metrics.")})
    metrics["trace.overhead_frac"] = (statistics.median(traced.step_s)
                                      / statistics.median(ref.step_s) - 1.0)
    metrics["trace.unattributed_frac"] = 1.0 - tracer.root_seconds() / traced.wall_s
    failed = traced.failed + scored.failed
    checks = {
        "checkpoint round trip is bit-exact": same_state(model, st["optim"], loaded,
                                                         loaded_optim),
        "traced op outputs equal activation_tally": seen == expected,
        f"unattributed share is at most {UNATTRIBUTED_BOUND}":
            metrics["trace.unattributed_frac"] <= UNATTRIBUTED_BOUND,
        "no step or scene failed": failed == 0,
    }
    return {"checks": checks, "attempted": len(traced.step_s) + traced.failed + len(held_out),
            "failed": failed, "metrics": metrics, "spans": _joined(tracer.spans, scoring.spans),
            "coverage": {"traced_bytes": seen, "expected_bytes": expected}}


def _joined(first: list[list], second: list[list]) -> list[list]:
    """One span list; parent indices of the second list shift past the first."""
    shift = len(first)
    return first + [[name, start, end, None if parent is None else parent + shift, step]
                    for name, start, end, parent, step in second]
