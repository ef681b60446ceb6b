"""Central finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .tensor import Tape, backward


@dataclass
class GradcheckReport:
    max_rel_error: float
    mean_rel_error: float
    checked: int
    skipped: int
    worst: dict | None = None  # param, index (flat), analytic, numeric

    def to_dict(self) -> dict:
        return asdict(self)


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
        p.grad = None
    tape = Tape()
    loss = loss_fn(tape)
    backward(tape, loss)

    sizes = np.array([p.size for _, p in named_params])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_coords, total), replace=False)

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows = []  # (relative error, report dict) per checked coordinate
    skipped = 0
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
        rows.append((rel, {"param": name, "index": idx, "analytic": ana, "numeric": num}))

    if not rows:
        return GradcheckReport(0.0, 0.0, 0, skipped)
    max_rel, worst = max(rows, key=lambda r: r[0])  # the first maximum
    return GradcheckReport(max_rel, float(np.mean([rel for rel, _ in rows])), len(rows),
                           skipped, worst)
