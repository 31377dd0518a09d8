"""Attention tiling: EMA model, tile search, load scheduling, core executor.

The mechanism modeled here keeps the attention score matrix on chip so it
never spills to DRAM. Two residency modes exist:

* ``RESIDENT_KV`` — K and V fit on chip whole; they are loaded exactly once
  (right-operand-first: the right matrix of each GEMM becomes the stationary
  operand), and Q streams through in row tiles. Softmax sees full score rows,
  so results match the dense reference bit-for-bit up to BLAS ordering.
* ``STREAMING_KV`` — K/V are streamed in column blocks once per Q tile and an
  online softmax (running max / running sum / rescaled accumulator) replaces
  the dense row softmax.

``tiling=None`` is the comparison baseline, whose score matrix spills to DRAM
and is re-read; every function below takes it like a tiling, and
``tiled_attention_execute`` executes both. Each compute step of a schedule is
one ``touch``: a query tile (``"tile"``), a streamed K/V block (``"block"``) or
the end of a streamed query tile (``"finalize"``).

Every closed-form EMA and buffer formula in this module is byte-exact against
a replay of the emitted transaction schedule through ``ScratchpadSim``; the
test suite enforces this for the whole search grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, ConfigError
from .hwmodel import (HardwareConfig, ScratchpadSim, Txn, check_keys, parse_number,
                      replay)
from .workload import AttentionDims, divisors, softmax_rows, tile_intervals


class ResidencyMode(str, Enum):
    RESIDENT_KV = "resident_kv"
    STREAMING_KV = "streaming_kv"


@dataclass(frozen=True)
class AttentionTiling:
    t_q: int                 # query row-tile, tokens
    t_k: int                 # key/value column-tile, tokens
    mode: ResidencyMode

    def to_dict(self) -> dict:
        return dict(asdict(self), mode=self.mode.value)


def tiling_spec(spec) -> dict:
    """A fixed ``schedule.attention`` tiling, checked and with integer sizes.

    ``{"t_q", "mode": "resident_kv"}`` keeps K and V whole, so each layer's
    t_k is its N_r; ``{"t_q", "t_k", "mode": "streaming_kv"}`` streams them.
    Sizes are range-checked per layer, by ``check_tiling``.
    """
    check_keys("schedule.attention", spec, ("t_q", "t_k", "mode"))
    modes = [m.value for m in ResidencyMode]
    if spec.get("mode") not in modes:
        raise ConfigError(f"schedule.attention.mode must be one of {modes}, "
                          f"got {spec.get('mode')!r}")
    streaming = spec["mode"] == ResidencyMode.STREAMING_KV
    if "t_k" in spec and not streaming:
        raise ConfigError("schedule.attention.t_k is not allowed with resident_kv: "
                          "K and V are whole, so t_k is each layer's N_r")
    sizes = ("t_q", "t_k") if streaming else ("t_q",)
    return {"mode": spec["mode"],
            **{k: parse_number(f"schedule.attention.{k}", spec.get(k), integer=True)
               for k in sizes}}


def check_tiling(dims: AttentionDims, tiling: AttentionTiling | None,
                 where: str = "tiling", field: str = ""):
    """Range-check ``tiling`` on ``dims``; an error names ``where`` and ``field + key``."""
    if tiling is None:
        return
    for key, top in (("t_q", dims.N), ("t_k", dims.N_r)):
        if not 1 <= getattr(tiling, key) <= top:
            raise ConfigError(f"{where}: {field}{key}={getattr(tiling, key)} out of [1, {top}]")
    if tiling.mode is ResidencyMode.RESIDENT_KV and tiling.t_k != dims.N_r:
        raise ConfigError(f"{where}: resident mode requires t_k = N_r")


# ---------------------------------------------------------------------------
# Closed-form EMA and buffer requirement
# ---------------------------------------------------------------------------

def attention_ema(dims: AttentionDims, tiling: AttentionTiling | None) -> int:
    """DRAM bytes for one attention core; infeasible tilings still get a cost."""
    check_tiling(dims, tiling)
    passes = (1 if tiling is None or tiling.mode is ResidencyMode.RESIDENT_KV
              else math.ceil(dims.N / tiling.t_q))
    spill = 2 * dims.N * dims.N_r if tiling is None else 0  # S written and re-read
    per_head = 2 * dims.N * dims.d + 2 * dims.N_r * dims.d * passes + spill
    return dims.heads * per_head * dims.element_bytes


def tiling_buffer_bytes(dims: AttentionDims, tiling: AttentionTiling | None,
                        hw: HardwareConfig) -> int:
    """Peak live scratchpad bytes for the tiling; raises if over capacity.

    Heads are processed sequentially, so the requirement is per-head. The
    baseline holds Q, K and S while it scores, then V, S and O. The resident
    layout holds K, V, one score tile, and a shared Q/O tile (Q is dead once
    scores exist, so the output reuses its buffer). The streaming layout
    holds a Q tile, K/V blocks, one score block, and the online-softmax
    state (accumulator plus running max and sum vectors).
    """
    check_tiling(dims, tiling)
    if tiling is None:
        elems = dims.N * dims.d + dims.N_r * dims.d + dims.N * dims.N_r
    elif tiling.mode is ResidencyMode.RESIDENT_KV:
        elems = (2 * dims.N_r * dims.d          # K, V resident
                 + tiling.t_q * dims.N_r        # score tile
                 + tiling.t_q * dims.d)         # shared Q/O tile
    else:
        elems = (2 * tiling.t_k * dims.d        # K, V blocks
                 + tiling.t_q * tiling.t_k      # score block
                 + 2 * tiling.t_q * dims.d      # Q tile + accumulator
                 + 2 * tiling.t_q)              # running max + running sum
    req = elems * dims.element_bytes
    if req > hw.scratchpad_bytes:
        raise CapacityError(req, hw.scratchpad_bytes, what="attention core")
    return req


def search_attention_tiling(dims: AttentionDims, hw: HardwareConfig) -> AttentionTiling:
    """Exhaustive tile search: minimum EMA over divisors of N and N_r, both modes.

    Ties break toward larger t_q, then resident over streaming, then larger
    t_k — fewer schedule iterations at equal traffic.
    """
    fits: list[AttentionTiling] = []
    need = math.inf   # the smallest rejected request
    for t_q in divisors(dims.N):
        candidates = [AttentionTiling(t_q, dims.N_r, ResidencyMode.RESIDENT_KV)]
        candidates += [AttentionTiling(t_q, t_k, ResidencyMode.STREAMING_KV)
                       for t_k in divisors(dims.N_r)]
        for cand in candidates:
            try:
                tiling_buffer_bytes(dims, cand, hw)
                fits.append(cand)
            except CapacityError as e:
                need = min(need, e.requested)
    if not fits:
        raise CapacityError(need, hw.scratchpad_bytes, "the smallest attention tiling")
    return min(fits, key=lambda c: (attention_ema(dims, c), -c.t_q,
                                    c.mode is ResidencyMode.STREAMING_KV, -c.t_k))


# ---------------------------------------------------------------------------
# Transaction schedules (the load-order artifact)
# ---------------------------------------------------------------------------

def schedule_attention(dims: AttentionDims, tiling: AttentionTiling | None) -> list[Txn]:
    """Ordered scratchpad transactions for one attention core, all heads.

    Right matrices come first: in resident mode K and V are allocated and
    loaded before any Q tile and each of their bytes is loaded exactly once
    per head; in streaming mode they are re-streamed once per Q tile. The
    baseline (``None``) scores the whole sequence as one query tile, spills
    S, and reads it back beside V to compute the tile.
    """
    check_tiling(dims, tiling)
    eb = dims.element_bytes
    txns: list[Txn] = []
    if tiling is None:
        qb, kvb, sb = dims.N * dims.d * eb, dims.N_r * dims.d * eb, dims.N * dims.N_r * eb
        for h in range(dims.heads):
            txns += [Txn("alloc", "Q", qb, h), Txn("load", "Q", qb, h, what="load_q"),
                     Txn("alloc", "K", kvb, h), Txn("load", "K", kvb, h, what="load_k"),
                     Txn("alloc", "S", sb, h), Txn("touch", "S", sb, h, 0, what="scores"),
                     Txn("store", "S", sb, h, what="spill_s"),
                     Txn("free", "S", 0, h), Txn("free", "K", 0, h), Txn("free", "Q", 0, h),
                     Txn("alloc", "V", kvb, h), Txn("load", "V", kvb, h, what="load_v"),
                     Txn("alloc", "S", sb, h), Txn("load", "S", sb, h, what="reload_s"),
                     Txn("alloc", "O", qb, h), Txn("touch", "O", sb + qb, h, 0, what="tile"),
                     Txn("store", "O", qb, h, what="store_o"),
                     Txn("free", "O", 0, h), Txn("free", "S", 0, h), Txn("free", "V", 0, h)]
        return txns
    q_tiles = tile_intervals(dims.N, tiling.t_q)
    if tiling.mode is ResidencyMode.RESIDENT_KV:
        kv_bytes = dims.N_r * dims.d * eb
        for h in range(dims.heads):
            txns += [Txn("alloc", "K", kv_bytes, h),
                     Txn("load", "K", kv_bytes, h, what="load_k"),
                     Txn("alloc", "V", kv_bytes, h),
                     Txn("load", "V", kv_bytes, h, what="load_v"),
                     Txn("alloc", "QO", tiling.t_q * dims.d * eb, h),
                     Txn("alloc", "S", tiling.t_q * dims.N_r * eb, h)]
            for t, (lo, hi) in enumerate(q_tiles):
                q_bytes, s_bytes = (hi - lo) * dims.d * eb, (hi - lo) * dims.N_r * eb
                # scores and softmax pass over S, the context writes the tile
                txns += [Txn("load", "QO", q_bytes, h, t, what="load_q"),
                         Txn("touch", "S", 2 * s_bytes + q_bytes, h, t, what="tile"),
                         Txn("store", "QO", q_bytes, h, t, what="store_o")]
            txns += [Txn("free", region, 0, h) for region in ("S", "QO", "V", "K")]
    else:
        k_blocks = tile_intervals(dims.N_r, tiling.t_k)
        kv_block, q_tile = tiling.t_k * dims.d * eb, tiling.t_q * dims.d * eb
        for h in range(dims.heads):
            txns += [Txn("alloc", "K", kv_block, h), Txn("alloc", "V", kv_block, h),
                     Txn("alloc", "Q", q_tile, h), Txn("alloc", "ACC", q_tile, h),
                     Txn("alloc", "M", tiling.t_q * eb, h),
                     Txn("alloc", "L", tiling.t_q * eb, h),
                     Txn("alloc", "S", tiling.t_q * tiling.t_k * eb, h)]
            for t, (lo, hi) in enumerate(q_tiles):
                q_bytes = (hi - lo) * dims.d * eb
                txns.append(Txn("load", "Q", q_bytes, h, t, what="load_q"))
                for b, (blo, bhi) in enumerate(k_blocks):
                    kv_bytes = (bhi - blo) * dims.d * eb
                    # the score block, then the online update of the accumulator
                    txns += [Txn("load", "K", kv_bytes, h, t, b, "load_k"),
                             Txn("load", "V", kv_bytes, h, t, b, "load_v"),
                             Txn("touch", "S", (hi - lo) * (bhi - blo) * eb + q_bytes,
                                 h, t, b, "block")]
                txns += [Txn("touch", "ACC", q_bytes, h, t, what="finalize"),
                         Txn("store", "ACC", q_bytes, h, t, what="store_o")]
            txns += [Txn("free", region, 0, h)
                     for region in ("S", "L", "M", "ACC", "Q", "V", "K")]
    return txns


# ---------------------------------------------------------------------------
# Online softmax
# ---------------------------------------------------------------------------

@dataclass
class SoftmaxState:
    m: np.ndarray    # running row max, (t_q,)
    l: np.ndarray    # running row sum of exponentials, (t_q,)
    acc: np.ndarray  # rescaled output accumulator, (t_q, d)


def init_softmax_state(rows: int, d: int) -> SoftmaxState:
    return SoftmaxState(m=np.full(rows, -np.inf), l=np.zeros(rows),
                        acc=np.zeros((rows, d)))


def online_softmax_update(state: SoftmaxState, s_block: np.ndarray,
                          v_block: np.ndarray) -> SoftmaxState:
    """One streaming-softmax step over a (rows x t_k) score block."""
    m_new = np.maximum(state.m, s_block.max(axis=1))
    scale = np.exp(state.m - m_new)  # exp(-inf) = 0 on the first block
    e = np.exp(s_block - m_new[:, None])
    l_new = state.l * scale + e.sum(axis=1)
    acc_new = state.acc * scale[:, None] + e @ v_block
    return SoftmaxState(m=m_new, l=l_new, acc=acc_new)


# ---------------------------------------------------------------------------
# Execution (interprets the schedule, so traffic matches by construction)
# ---------------------------------------------------------------------------

def tiled_attention_execute(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                            dims: AttentionDims, tiling: AttentionTiling | None,
                            sim: ScratchpadSim) -> np.ndarray:
    """softmax(QK^T/sqrt(d))V, replaying the core's schedule through ``sim``.

    q is (heads, N, d); k, v are (heads, N_r, d); ``tiling=None`` runs the
    spilled-score baseline. A ``"tile"`` step attends its query tile over all
    of K and V; the streaming state starts at block 0 of each query tile and
    ends at ``"finalize"``. Capacity errors from the simulator propagate: an
    infeasible tiling cannot be executed.
    """
    assert q.shape == (dims.heads, dims.N, dims.d)
    assert k.shape == v.shape == (dims.heads, dims.N_r, dims.d)
    t_q, t_k = (dims.N, dims.N_r) if tiling is None else (tiling.t_q, tiling.t_k)
    q_tiles, k_blocks = tile_intervals(dims.N, t_q), tile_intervals(dims.N_r, t_k)
    inv_scale = 1.0 / math.sqrt(dims.d)
    out = np.empty_like(q)
    state: SoftmaxState | None = None

    def compute(txn: Txn):
        nonlocal state
        if txn.action != "touch":
            return
        h, (lo, hi) = txn.head, q_tiles[txn.tile]
        if txn.what == "tile":
            out[h, lo:hi] = softmax_rows((q[h, lo:hi] @ k[h].T) * inv_scale) @ v[h]
        elif txn.what == "block":
            if txn.block == 0:
                state = init_softmax_state(hi - lo, dims.d)
            blk = slice(*k_blocks[txn.block])
            state = online_softmax_update(state, (q[h, lo:hi] @ k[h, blk].T) * inv_scale,
                                          v[h, blk])
        elif txn.what == "finalize":
            out[h, lo:hi] = state.acc / state.l[:, None]

    replay(schedule_attention(dims, tiling), sim, compute)
    return out


def untiled_attention_execute(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                              dims: AttentionDims, sim: ScratchpadSim) -> np.ndarray:
    """The baseline core, ``tiled_attention_execute`` with ``tiling=None``."""
    return tiled_attention_execute(q, k, v, dims, None, sim)
