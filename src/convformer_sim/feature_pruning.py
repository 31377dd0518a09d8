"""Feature-map pruning: thresholding, pruned attention, cost adjustment.

Feature maps are thresholded at two points — post-softmax attention
probabilities and post-activation MLP maps — and the resulting zero masks
skip multiply-accumulates in the first consumer of each map (the A.V product
or the next linear layer); zeros are not yet followed into later layers.
Pruned softmax rows are NOT renormalized: dropped products model
zero-skipping hardware, and theta = 0 stays a bit-exact identity. Thresholds
use strict inequality (|x| < theta), so theta = 0 prunes nothing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, SelfCheckError
from .hwmodel import CostReport, HardwareConfig, price
from .workload import softmax_rows


class Granularity(str, Enum):
    ELEMENT = "element"
    ROW = "row"
    COLUMN = "column"


@dataclass(frozen=True)
class PruneConfig:
    theta_attn: float = 0.01    # threshold on post-softmax probabilities
    theta_act: float = 0.001    # threshold on post-activation magnitudes
    granularity: Granularity = Granularity.ELEMENT

    def __post_init__(self):
        if self.theta_attn < 0 or self.theta_act < 0:
            raise ConfigError("prune thresholds must be >= 0")


@dataclass
class SparsityStats:
    pruned_fraction: float = 0.0
    skipped_macs: int = 0
    output_mse: float = 0.0
    output_cosine: float = 1.0
    elided_output_elems: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def prune_mask(t: np.ndarray, theta: float, granularity: Granularity
               ) -> tuple[np.ndarray, float]:
    """Boolean mask (True = pruned) and pruned fraction.

    ROW/COLUMN prune a whole vector only when every element is below theta;
    rows are the last axis, columns the second-to-last.
    """
    if theta < 0:
        raise ConfigError("theta must be >= 0")
    a = np.abs(t)
    if granularity is Granularity.ELEMENT:
        mask = a < theta
    elif granularity is Granularity.ROW:
        rows = a.max(axis=-1, keepdims=True) < theta
        mask = np.broadcast_to(rows, t.shape).copy()
    else:
        cols = a.max(axis=-2, keepdims=True) < theta
        mask = np.broadcast_to(cols, t.shape).copy()
    return mask, float(mask.sum()) / mask.size


def pruned_attention_execute(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             config: PruneConfig) -> tuple[np.ndarray, SparsityStats]:
    """Attention with the post-softmax map thresholded; no renormalization.

    q is (heads, N, d); k, v are (heads, N_r, d). Stats compare against the
    dense unpruned output of the same operands.
    """
    d = q.shape[-1]
    heads, n, _ = q.shape
    exact = np.empty_like(q)
    out = np.empty_like(q)
    total_pruned = 0
    zero_rows = 0
    for h in range(heads):
        probs = softmax_rows((q[h] @ k[h].T) / math.sqrt(d))
        exact[h] = probs @ v[h]   # dense_attention's expression for this head
        mask, _ = prune_mask(probs, config.theta_attn, config.granularity)
        out[h] = np.where(mask, 0.0, probs) @ v[h]
        total_pruned += int(mask.sum())
        zero_rows += int(mask.all(axis=-1).sum())

    n_elems = heads * n * k.shape[1]
    diff = out - exact
    mse = float((diff * diff).mean())
    no = float(np.linalg.norm(out))
    ne = float(np.linalg.norm(exact))
    if np.array_equal(out, exact):
        cosine = 1.0  # identical outputs must not round below 1
    elif no == 0.0 or ne == 0.0:
        cosine = 0.0
    else:
        cosine = float((out * exact).sum() / (no * ne))

    elided = 0
    if config.granularity in (Granularity.ROW, Granularity.COLUMN):
        # fully-zero output rows can be elided from dense-layout traffic
        elided = zero_rows * d
    stats = SparsityStats(
        pruned_fraction=total_pruned / n_elems,
        skipped_macs=total_pruned * d,
        output_mse=mse,
        output_cosine=cosine,
        elided_output_elems=elided,
    )
    return out, stats


def prune_activation_map(t: np.ndarray, theta: float, granularity: Granularity,
                         downstream_cols: int) -> tuple[np.ndarray, SparsityStats]:
    """Threshold a post-activation token map (N x c); skips in the next GEMM."""
    mask, frac = prune_mask(t, theta, granularity)
    pruned = np.where(mask, 0.0, t)
    stats = SparsityStats(pruned_fraction=frac,
                          skipped_macs=int(mask.sum()) * downstream_cols)
    return pruned, stats


def sparse_cost_adjust(report: CostReport, stats: SparsityStats,
                       hw: HardwareConfig,
                       granularity: Granularity = Granularity.ELEMENT
                       ) -> CostReport:
    """Cost report with skipped MACs removed (idealized perfect zero-skipping).

    Cycles and MAC energy drop proportionally to skipped work. EMA shrinks
    only for ROW/COLUMN granularity, where whole vectors are elided from the
    dense layout; element-level sparsity saves compute, not traffic.
    """
    if stats.skipped_macs > report.macs:
        raise SelfCheckError(
            f"skipped {stats.skipped_macs} MACs exceeds report total {report.macs}")
    macs = report.macs - stats.skipped_macs
    ema = report.ema_bytes
    if granularity in (Granularity.ROW, Granularity.COLUMN):
        ema = max(0, ema - stats.elided_output_elems * hw.element_bytes)
    cycles, energy = price(macs, ema, report.sram_accesses, hw)
    return replace(report, ema_bytes=ema, macs=macs, cycles=cycles,
                   energy_pj=energy)
