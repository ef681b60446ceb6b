"""Central finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tape, backward


@dataclass
class GradcheckReport:
    max_rel_error: float
    mean_rel_error: float
    checked: int
    skipped: int
    worst: tuple[str, int, float, float] | None = None  # (param, flat index, analytic, numeric)

    def to_dict(self) -> dict:
        worst = None
        if self.worst is not None:
            name, idx, ana, num = self.worst
            worst = {"param": name, "index": idx, "analytic": ana, "numeric": num}
        return {
            "max_rel_error": self.max_rel_error,
            "mean_rel_error": self.mean_rel_error,
            "checked": self.checked,
            "skipped": self.skipped,
            "worst": worst,
        }


def finite_diff_gradcheck(loss_fn, named_params, n_coords: int = 50,
                          step: float = 1e-5, seed: int = 0) -> GradcheckReport:
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn(tape)`` must rebuild the forward pass from the current
    parameter values and return the scalar loss tensor, recording on the
    tape when one is given. Coordinates are sampled uniformly over the
    concatenated parameter space; entries whose current value is exactly
    0 are skipped (non-differentiable kink guard). Parameters are left
    unmodified on return.
    """
    named_params = list(named_params)
    if not named_params:
        raise ValueError("finite_diff_gradcheck needs at least one parameter")
    for _, p in named_params:
        p.zero_grad()
    tape = Tape()
    loss = loss_fn(tape)
    backward(tape, loss)

    sizes = np.array([p.size for _, p in named_params])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_coords, total), replace=False)

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rel_errs = []
    skipped = 0
    worst = None
    for flat in sorted(int(v) for v in picks):
        pi = int(np.searchsorted(offsets, flat, side="right") - 1)
        name, p = named_params[pi]
        idx = flat - int(offsets[pi])
        orig = p.data.flat[idx]
        if orig == 0.0:
            skipped += 1
            continue
        p.data.flat[idx] = orig + step
        f_plus = float(loss_fn(None).data)
        p.data.flat[idx] = orig - step
        f_minus = float(loss_fn(None).data)
        p.data.flat[idx] = orig
        num = (f_plus - f_minus) / (2.0 * step)
        ana = float(p.grad.flat[idx]) if p.grad is not None else 0.0
        rel = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
        rel_errs.append(rel)
        if worst is None or rel > worst[0]:
            worst = (rel, name, idx, ana, num)

    if not rel_errs:
        return GradcheckReport(0.0, 0.0, 0, skipped)
    _, wname, widx, wana, wnum = worst
    return GradcheckReport(
        max_rel_error=float(max(rel_errs)),
        mean_rel_error=float(np.mean(rel_errs)),
        checked=len(rel_errs),
        skipped=skipped,
        worst=(wname, widx, wana, wnum),
    )
