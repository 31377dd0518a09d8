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

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import CapacityError, ConfigError
from .hwmodel import (HardwareConfig, ScratchpadSim, Txn, bounded, check_derived,
                      parse_fields, parse_number, replay)
from .workload import (Attention, AttentionDims, NetworkGraph, divisors, softmax_rows,
                       tile_intervals)


class ResidencyMode(str, Enum):
    RESIDENT_KV = "resident_kv"
    STREAMING_KV = "streaming_kv"


@dataclass(frozen=True)
class AttentionTiling:
    """One layer's tiling and its cost: the record ``run`` prints and ``schedule.attention``
    reads back (``fixed_tiling``). ``t_q``, ``mode`` and, streaming, ``t_k`` choose it;
    resident K/V are whole, so there t_k is N_r. The fields after ``mode`` are derived."""
    t_q: int = bounded(1)    # query row-tile, tokens; at most the layer's N
    t_k: int = bounded(1)    # key/value column-tile, tokens; at most the layer's N_r
    mode: ResidencyMode
    element_bytes: int = None
    ema_bytes: int = None
    buffer_bytes: int = None


def fixed_tiling(record, dims: AttentionDims, hw: HardwareConfig) -> AttentionTiling | None:
    """The tiling a layer's ``schedule.attention`` record fixes, costed as the search costs
    it (None for ``"baseline"``). Its sizes are held to the layer's N and N_r, and a
    derived field it gives must equal the recomputed one."""
    if record == "baseline":
        tiling_buffer_bytes(dims, None, hw)
        return None
    given = parse_fields("schedule.attention", record, AttentionTiling, required=("t_q", "mode"))
    streaming = given["mode"] is ResidencyMode.STREAMING_KV   # else t_k is N_r
    tiling = AttentionTiling(given["t_q"], given.get("t_k") if streaming else dims.N_r,
                             given["mode"])
    for key, top in (("t_q", dims.N), ("t_k", dims.N_r)):   # and a streaming t_k left out
        parse_number(f"schedule.attention.{key}", getattr(tiling, key), True, most=top)
    tiling = costed(dims, tiling, hw)
    check_derived("schedule.attention.", given, tiling, record, "t_q, mode and a streaming t_k")
    return tiling


def swept_tilings(attention, graph: NetworkGraph, t_q) -> dict:
    """A ``t_q`` sweep row's ``schedule.attention``: each attention layer, and each key of
    the map ``attention`` (``plan_network`` holds keys to layers), at ``t_q``. A record that
    is a tiling keeps its mode and t_k and drops its derived fields; any other is resident."""
    layers = [n.id for n in graph.nodes if isinstance(n.op, Attention)]
    if not layers:
        raise ConfigError("a t_q sweep sets schedule.attention.t_q, but the graph has no "
                          "attention layer")
    records = attention if isinstance(attention, dict) else {}
    kept = {node: {k: v for k, v in r.items() if k in ("t_k", "mode")}
            for node, r in records.items() if isinstance(r, dict)}
    return {node: dict(kept.get(node, {"mode": ResidencyMode.RESIDENT_KV.value}), t_q=t_q)
            for node in [*records, *layers]}


# ---------------------------------------------------------------------------
# Closed-form EMA and buffer requirement
# ---------------------------------------------------------------------------

def attention_ema(dims: AttentionDims, tiling: AttentionTiling | None) -> int:
    """DRAM bytes for one attention core; infeasible tilings still get a cost."""
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


def costed(dims: AttentionDims, tiling: AttentionTiling, hw: HardwareConfig
           ) -> AttentionTiling:
    """``tiling`` with its derived fields on ``dims``; CapacityError if it does not fit."""
    return replace(tiling, buffer_bytes=tiling_buffer_bytes(dims, tiling, hw),
                   element_bytes=dims.element_bytes, ema_bytes=attention_ema(dims, tiling))


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
                fits.append(costed(dims, cand, hw))
            except CapacityError as e:
                need = min(need, e.requested)
    if not fits:
        raise CapacityError(need, hw.scratchpad_bytes, "the smallest attention tiling")
    return min(fits, key=lambda c: (c.ema_bytes, -c.t_q,
                                    c.mode is ResidencyMode.STREAMING_KV, -c.t_k))


# ---------------------------------------------------------------------------
# Transaction schedules (the load-order artifact)
# ---------------------------------------------------------------------------

def schedule_attention(dims: AttentionDims, tiling: AttentionTiling | None) -> list[Txn]:
    """Ordered scratchpad transactions for one head of an attention core.

    Heads run one after another and each allocates and frees the same regions, so a
    core replays this list once per head. Right matrices come first: in resident mode
    K and V are allocated and loaded before any Q tile and each of their bytes is
    loaded exactly once; in streaming mode they are re-streamed once per Q tile. The
    baseline (``None``) scores the whole sequence as one query tile, spills S, and
    reads it back beside V to compute the tile.
    """
    eb = dims.element_bytes
    if tiling is None:
        qb, kvb, sb = dims.N * dims.d * eb, dims.N_r * dims.d * eb, dims.N * dims.N_r * eb
        return [Txn("alloc", "Q", qb), Txn("load", "Q", qb, what="load_q"),
                Txn("alloc", "K", kvb), Txn("load", "K", kvb, what="load_k"),
                Txn("alloc", "S", sb), Txn("touch", "S", sb, 0, what="scores"),
                Txn("store", "S", sb, what="spill_s"),
                Txn("free", "S", 0), Txn("free", "K", 0), Txn("free", "Q", 0),
                Txn("alloc", "V", kvb), Txn("load", "V", kvb, what="load_v"),
                Txn("alloc", "S", sb), Txn("load", "S", sb, what="reload_s"),
                Txn("alloc", "O", qb), Txn("touch", "O", sb + qb, 0, what="tile"),
                Txn("store", "O", qb, what="store_o"),
                Txn("free", "O", 0), Txn("free", "S", 0), Txn("free", "V", 0)]
    q_tiles = tile_intervals(dims.N, tiling.t_q)
    if tiling.mode is ResidencyMode.RESIDENT_KV:
        kv_bytes = dims.N_r * dims.d * eb
        txns = [Txn("alloc", "K", kv_bytes), Txn("load", "K", kv_bytes, what="load_k"),
                Txn("alloc", "V", kv_bytes), Txn("load", "V", kv_bytes, what="load_v"),
                Txn("alloc", "QO", tiling.t_q * dims.d * eb),
                Txn("alloc", "S", tiling.t_q * dims.N_r * eb)]
        for t, (lo, hi) in enumerate(q_tiles):
            q_bytes, s_bytes = (hi - lo) * dims.d * eb, (hi - lo) * dims.N_r * eb
            # scores and softmax pass over S, the context writes the tile
            txns += [Txn("load", "QO", q_bytes, t, what="load_q"),
                     Txn("touch", "S", 2 * s_bytes + q_bytes, t, what="tile"),
                     Txn("store", "QO", q_bytes, t, what="store_o")]
        return txns + [Txn("free", region, 0) for region in ("S", "QO", "V", "K")]
    k_blocks = tile_intervals(dims.N_r, tiling.t_k)
    kv_block, q_tile = tiling.t_k * dims.d * eb, tiling.t_q * dims.d * eb
    txns = [Txn("alloc", "K", kv_block), Txn("alloc", "V", kv_block),
            Txn("alloc", "Q", q_tile), Txn("alloc", "ACC", q_tile),
            Txn("alloc", "M", tiling.t_q * eb), Txn("alloc", "L", tiling.t_q * eb),
            Txn("alloc", "S", tiling.t_q * tiling.t_k * eb)]
    for t, (lo, hi) in enumerate(q_tiles):
        q_bytes = (hi - lo) * dims.d * eb
        txns.append(Txn("load", "Q", q_bytes, t, what="load_q"))
        for b, (blo, bhi) in enumerate(k_blocks):
            kv_bytes = (bhi - blo) * dims.d * eb
            # the score block, then the online update of the accumulator
            txns += [Txn("load", "K", kv_bytes, t, b, "load_k"),
                     Txn("load", "V", kv_bytes, t, b, "load_v"),
                     Txn("touch", "S", (hi - lo) * (bhi - blo) * eb + q_bytes, t, b, "block")]
        txns += [Txn("touch", "ACC", q_bytes, t, what="finalize"),
                 Txn("store", "ACC", q_bytes, t, what="store_o")]
    return txns + [Txn("free", region, 0) for region in ("S", "L", "M", "ACC", "Q", "V", "K")]


# ---------------------------------------------------------------------------
# Online softmax
# ---------------------------------------------------------------------------

def online_softmax_update(m: np.ndarray, l: np.ndarray, acc: np.ndarray, s_block: np.ndarray,
                          v_block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One streaming-softmax step over a (rows x t_k) score block: the running row max
    ``m`` (rows,), row sum of exponentials ``l`` (rows,) and rescaled output accumulator
    ``acc`` (rows, d), updated."""
    m_new = np.maximum(m, s_block.max(axis=1))
    scale = np.exp(m - m_new)  # exp(-inf) = 0 on the first block
    e = np.exp(s_block - m_new[:, None])
    return m_new, l * scale + e.sum(axis=1), acc * scale[:, None] + e @ v_block


# ---------------------------------------------------------------------------
# Execution (interprets the schedule, so traffic matches by construction)
# ---------------------------------------------------------------------------

def tiled_attention_execute(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                            dims: AttentionDims, tiling: AttentionTiling | None,
                            sim: ScratchpadSim) -> np.ndarray:
    """softmax(QK^T/sqrt(d))V, replaying the one-head schedule through ``sim`` once per head.

    q is (heads, N, d); k, v are (heads, N_r, d); ``tiling=None`` runs the
    spilled-score baseline. ``replay`` calls ``compute`` with the head on each touch. A
    ``"tile"`` step attends its query tile over all of K and V; the streaming
    state starts at block 0 of each query tile and ends at ``"finalize"``; the
    baseline's ``"scores"`` step only counts traffic. Capacity errors from the
    simulator propagate: an infeasible tiling cannot be executed.
    """
    assert q.shape == (dims.heads, dims.N, dims.d)
    assert k.shape == v.shape == (dims.heads, dims.N_r, dims.d)
    t_q, t_k = (dims.N, dims.N_r) if tiling is None else (tiling.t_q, tiling.t_k)
    q_tiles, k_blocks = tile_intervals(dims.N, t_q), tile_intervals(dims.N_r, t_k)
    inv_scale = 1.0 / math.sqrt(dims.d)
    out = np.empty_like(q)
    state = None   # the streamed query tile's (m, l, acc)

    def compute(h: int, txn: Txn):
        nonlocal state
        lo, hi = q_tiles[txn.tile]
        if txn.what == "tile":
            out[h, lo:hi] = softmax_rows((q[h, lo:hi] @ k[h].T) * inv_scale) @ v[h]
        elif txn.what == "block":
            if txn.block == 0:
                state = np.full(hi - lo, -np.inf), np.zeros(hi - lo), np.zeros((hi - lo, dims.d))
            blk = slice(*k_blocks[txn.block])
            state = online_softmax_update(*state, (q[h, lo:hi] @ k[h, blk].T) * inv_scale,
                                          v[h, blk])
        elif txn.what == "finalize":
            _, l, acc = state
            out[h, lo:hi] = acc / l[:, None]

    txns = schedule_attention(dims, tiling)
    for h in range(dims.heads):
        replay(txns, sim, functools.partial(compute, h))
    return out


def untiled_attention_execute(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                              dims: AttentionDims, sim: ScratchpadSim) -> np.ndarray:
    """The baseline core, ``tiled_attention_execute`` with ``tiling=None``."""
    return tiled_attention_execute(q, k, v, dims, None, sim)
