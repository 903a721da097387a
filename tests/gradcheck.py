"""Finite-difference gradient checking of the hand-derived losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_block: list[float]
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def finite_diff_check(loss_and_grads, params: list[np.ndarray], h: float = 1e-4,
                      tol: float = 1e-4, max_entries_per_block: int | None = None,
                      rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_and_grads(params) -> (loss, grads)`` must be deterministic. If
    ``max_entries_per_block`` is given, only a random subset of entries is
    checked per parameter block (speeds up large nets).
    """
    _, grads = loss_and_grads(params)
    per_block = []
    for b, (p, g) in enumerate(zip(params, grads)):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        idx = np.arange(flat_p.size)
        if max_entries_per_block is not None and flat_p.size > max_entries_per_block:
            idx = (rng or np.random.default_rng(0)).choice(
                flat_p.size, size=max_entries_per_block, replace=False)
        worst = 0.0
        for i in idx:
            orig = flat_p[i]
            flat_p[i] = orig + h
            lo_hi, _ = loss_and_grads(params)
            flat_p[i] = orig - h
            lo_lo, _ = loss_and_grads(params)
            flat_p[i] = orig
            fd = (lo_hi - lo_lo) / (2.0 * h)
            denom = max(abs(fd), abs(flat_g[i]), 1e-4)
            worst = max(worst, abs(fd - flat_g[i]) / denom)
        per_block.append(worst)
    return GradCheckReport(max(per_block) if per_block else 0.0, per_block, tol)
