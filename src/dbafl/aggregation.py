"""Dynamic scaling factor, asynchronous aggregation rule, defense filter, FedAVG baseline."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

# Accuracy floor before division and the clamp bounds on the scaling factor.
ACC_FLOOR = 0.01
EPS_MIN = 0.01
EPS_MAX = 100.0


class DefenseMode(enum.Enum):
    OFF = "off"
    THRESHOLD_FRACTION = "threshold"


@dataclass(frozen=True)
class DefensePolicy:
    mode: DefenseMode
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")

    @classmethod
    def off(cls) -> "DefensePolicy":
        return cls(DefenseMode.OFF)

    @classmethod
    def threshold(cls, theta: float) -> "DefensePolicy":
        return cls(DefenseMode.THRESHOLD_FRACTION, theta)


def scaling_factor(acc_local: float, acc_global_prev: float) -> float:
    """clamp(max(acc_local, 0.01) / max(acc_global_prev, 0.01), 0.01, 100)."""
    ratio = max(acc_local, ACC_FLOOR) / max(acc_global_prev, ACC_FLOOR)
    return min(max(ratio, EPS_MIN), EPS_MAX)


def _check_dims(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"parameter dimension mismatch: {a.shape} vs {b.shape}")


def aggregate_async(w_global_prev: ModelParams, w_local: ModelParams, eps: float) -> ModelParams:
    """(w_global_prev + eps * w_local) / (1 + eps), componentwise."""
    w_global_prev = np.asarray(w_global_prev, dtype=float)
    w_local = np.asarray(w_local, dtype=float)
    _check_dims(w_global_prev, w_local)
    return (w_global_prev + eps * w_local) / (1.0 + eps)


def defense_filter(acc_local: float, acc_global_prev: float, policy: DefensePolicy) -> bool:
    """Accept (True) unless strictly below theta * acc_global_prev; Off accepts everything."""
    return policy.mode is DefenseMode.OFF or bool(acc_local >= policy.theta * acc_global_prev)


def aggregate_fedavg(models, sizes) -> ModelParams:
    """Sample-size-weighted componentwise mean."""
    models = [np.asarray(m, dtype=float) for m in models]
    if not models or len(models) != len(sizes):
        raise ValueError("need equally many models and sizes, at least one each")
    if any(s <= 0 for s in sizes):
        raise ValueError("sizes must be positive")
    for m in models[1:]:
        _check_dims(models[0], m)
    total = float(sum(sizes))
    out = np.zeros_like(models[0])
    for m, s in zip(models, sizes):
        out += (s / total) * m
    return out

