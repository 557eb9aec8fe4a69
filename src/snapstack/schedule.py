"""Cyclical learning-rate schedule and cycle-phase queries.

Within each cycle the rate follows a shifted cosine from alpha_max down to
alpha_min, then restarts instantly at alpha_max. The schedule is indexed by
iteration, not epoch, so capture policies can address exact trajectory points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, json_kind


@dataclass(frozen=True)
class CycleConfig:
    alpha_min: float
    alpha_max: float
    cycle_len: int
    total_iters: int

    def __post_init__(self):
        # a store header holds each as a JSON number; numpy's are kept as the plain one
        for name, hint in (("alpha_min", float), ("alpha_max", float),
                           ("cycle_len", int), ("total_iters", int)):
            object.__setattr__(self, name, json_kind(hint, getattr(self, name), name))
        if not (0.0 < self.alpha_min < self.alpha_max):
            raise InputError(
                f"need 0 < alpha_min < alpha_max, got {self.alpha_min}, {self.alpha_max}"
            )
        if self.cycle_len < 2:
            raise InputError(f"cycle_len must be at least 2, got {self.cycle_len}")
        if self.total_iters < self.cycle_len:
            raise InputError(
                f"total_iters ({self.total_iters}) must cover at least one cycle "
                f"({self.cycle_len})"
            )

    @property
    def num_cycles(self) -> int:
        """Number of completed cycles."""
        return self.total_iters // self.cycle_len

    @property
    def min_phase(self) -> int:
        """Phase of the rate minimum: the last iteration of each cycle."""
        return self.cycle_len - 1

    @property
    def mid_phase(self) -> int:
        """Phase of the half-amplitude crossing: the first integer phase with
        phase/(cycle_len-1) >= 1/2, which avoids float comparisons against the
        cosine right at the crossing. For cycle_len == 2 it is the minimum."""
        return self.cycle_len // 2


def lr_at(cfg: CycleConfig, t: int) -> float:
    """Learning rate at iteration t.

    Cycle endpoints are returned exactly (alpha_max at phase 0, alpha_min at
    the last phase); interior points follow the cosine formula, which agrees
    with those endpoints up to rounding.
    """
    if not 0 <= t < cfg.total_iters:
        raise InputError(f"iteration {t} outside [0, {cfg.total_iters})")
    phase = t % cfg.cycle_len
    if phase == 0:
        return cfg.alpha_max
    if phase == cfg.min_phase:
        return cfg.alpha_min
    u = phase / (cfg.cycle_len - 1)
    return cfg.alpha_min + 0.5 * (cfg.alpha_max - cfg.alpha_min) * (1.0 + math.cos(math.pi * u))


def cycle_minima(cfg: CycleConfig) -> list[int]:
    """Iteration indices where the rate bottoms out, one per completed cycle."""
    return list(range(cfg.min_phase, cfg.total_iters, cfg.cycle_len))

