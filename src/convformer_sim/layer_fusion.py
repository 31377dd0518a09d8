"""Layer-fusion scheduling: halo arithmetic, group costing, DP partition, executor.

Consecutive spatial/pointwise layers are grouped so their intermediate feature
maps live entirely on chip: only the first layer's input, the last layer's
output, and weights ever touch DRAM. Convolution tiles need halo (extra input
border); the halo is either recomputed per tile (extra MACs, minimal buffer)
or cached in line buffers (no extra MACs, extra buffer). A dynamic program
over split points picks the minimum-EMA partition of a chain under the
scratchpad capacity.

Attention is global over tokens, so it can never sit inside a spatially tiled
group; chains handed to the partitioner contain only conv / downsample /
linear / norm / activation layers, and attention (plus residual adds) is
stitched between chains at DRAM granularity by the pipeline module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (AttentionInSliceError, CapacityError, NoFeasiblePlanError,
                     ShapeError)
from .hwmodel import HardwareConfig, ScratchpadSim, Txn, replay
from .workload import (Attention, Conv2D, Downsample, GELU, LayerNode,
                       LayerNorm, Linear, NetworkGraph, TensorShape,
                       conv2d_region, divisors, gelu, layernorm, linear_tokens,
                       op_cost, tile_intervals)


class HaloPolicy(str, Enum):
    RECOMPUTE = "recompute"
    CACHE = "cache"


@dataclass(frozen=True)
class TileShape:
    h_t: int
    w_t: int

    @property
    def area(self) -> int:
        return self.h_t * self.w_t


@dataclass(frozen=True)
class ChainLayer:
    node: LayerNode
    in_shape: TensorShape
    out_shape: TensorShape


@dataclass(frozen=True)
class FusionGroup:
    start: int            # first layer index in the chain, inclusive
    end: int              # last layer index, inclusive
    tile: TileShape
    policy: HaloPolicy
    weights_resident: bool

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end,
                "tile": [self.tile.h_t, self.tile.w_t],
                "policy": self.policy.value,
                "weights_resident": self.weights_resident}


@dataclass
class FusionPlan:
    groups: list[FusionGroup]
    total_ema: int
    total_extra_macs: int
    group_ema: list[int]
    group_extra_macs: list[int]

    def to_dict(self) -> dict:
        return {
            "groups": [dict(g.to_dict(), ema_bytes=e, extra_macs=m)
                       for g, e, m in zip(self.groups, self.group_ema,
                                          self.group_extra_macs)],
            "total_ema": self.total_ema,
            "total_extra_macs": self.total_extra_macs,
        }


# ---------------------------------------------------------------------------
# Spatial geometry
# ---------------------------------------------------------------------------

def _spatial_params(node: LayerNode) -> tuple[int, int, int]:
    """(k, stride, pad); pointwise layers pass extents through unchanged."""
    op = node.op
    if isinstance(op, Conv2D):
        return op.k, op.stride, op.pad
    if isinstance(op, Downsample):
        return op.k, op.stride, 0
    if isinstance(op, (Linear, LayerNorm, GELU)):
        return 1, 1, 0
    if isinstance(op, Attention):
        raise AttentionInSliceError(
            f"{node.id}: attention cannot be spatially tiled inside a fusion group")
    raise ShapeError(node.id, f"op {op!r} not allowed in a fusion chain")


def _back_interval(lo: int, hi: int, k: int, s: int, p: int, in_len: int
                   ) -> tuple[int, int]:
    if hi <= lo:  # empty stays empty (pad-grown layers can produce these)
        anchor = min(max(lo * s - p, 0), in_len)
        return anchor, anchor
    lo2 = max(lo * s - p, 0)
    hi2 = min((hi - 1) * s - p + k, in_len)
    if hi2 <= lo2:  # the whole tile lands in the padding ring
        lo2 = hi2 = min(lo2, in_len)
    return lo2, hi2


def _axis_regions(layers: Sequence[ChainLayer], axis: int, lo: int, hi: int
                  ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Per-layer (input, output) intervals along one axis for one output tile."""
    n = len(layers)
    ins: list[tuple[int, int]] = [None] * n   # type: ignore[list-item]
    outs: list[tuple[int, int]] = [None] * n  # type: ignore[list-item]
    cur = (lo, hi)
    for i in reversed(range(n)):
        outs[i] = cur
        k, s, p = _spatial_params(layers[i].node)
        in_len = layers[i].in_shape.h if axis == 0 else layers[i].in_shape.w
        cur = _back_interval(cur[0], cur[1], k, s, p, in_len)
        ins[i] = cur
    return ins, outs


def _merged_length(intervals: Sequence[tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    total = 0
    last_end = -1
    for lo, hi in sorted(intervals):
        lo = max(lo, last_end)
        if hi > lo:
            total += hi - lo
            last_end = hi
        else:
            last_end = max(last_end, hi)
    return total


def _axis_walks(layers: Sequence[ChainLayer], axis: int, step: int
                ) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """``_axis_regions`` of every tile of ``step`` along one axis of the group output."""
    last = layers[-1].out_shape
    total = last.h if axis == 0 else last.w
    return [_axis_regions(layers, axis, lo, hi)
            for lo, hi in tile_intervals(total, step)]


def _tile_walks(layers: Sequence[ChainLayer], tile: TileShape) -> list[tuple]:
    """(row walk, column walk) of every tile, row-major."""
    return list(product(_axis_walks(layers, 0, tile.h_t),
                        _axis_walks(layers, 1, tile.w_t)))


# ---------------------------------------------------------------------------
# Group cost and feasibility
# ---------------------------------------------------------------------------

def _line_buffers(layers: Sequence[ChainLayer], eb: int) -> list[tuple[int, int]]:
    """(layer index, bytes) of the halo line buffer of each k > 1 layer under CACHE."""
    return [(li, (k - 1) * layer.in_shape.w * layer.in_shape.c * eb)
            for li, layer in enumerate(layers)
            if (k := _spatial_params(layer.node)[0]) > 1]


class _GroupCost:
    """Costs every (tile, halo policy, weight residency) option of one group.

    Row walks depend only on ``h_t`` and column walks only on ``w_t``, so each
    is built once per tile extent, as (n_tiles, n_layers) arrays of per-layer
    input and output interval lengths plus the first layer's input intervals.
    """

    def __init__(self, layers: Sequence[ChainLayer], hw: HardwareConfig):
        self.layers = layers
        self.hw = hw
        self.c_in = np.array([l.in_shape.c for l in layers], dtype=np.int64)
        self.c_out = np.array([l.out_shape.c for l in layers], dtype=np.int64)
        costs = [op_cost(l.node.op, l.in_shape) for l in layers]
        self.w = np.array([w for w, _ in costs], dtype=np.int64)
        # (pixels, MACs per pixel) per layer, as Python ints: the recompute
        # MAC count can outgrow int64 where the live-element counts cannot
        self.macs = [(l.out_shape.h * l.out_shape.w, ppm)
                     for l, (_, ppm) in zip(layers, costs)]
        self.line_buffers = sum(b for _, b in _line_buffers(layers, hw.element_bytes))
        self.walks: tuple[dict, dict] = ({}, {})

    def _walk(self, axis: int, step: int):
        if step not in self.walks[axis]:
            walks = _axis_walks(self.layers, axis, step)
            ins = np.array([[hi - lo for lo, hi in w_in] for w_in, _ in walks],
                           dtype=np.int64)
            outs = np.array([[hi - lo for lo, hi in w_out] for _, w_out in walks],
                            dtype=np.int64)
            self.walks[axis][step] = ins, outs, [w_in[0] for w_in, _ in walks]
        return self.walks[axis][step]

    def options(self, tile: TileShape
                ) -> dict[tuple[HaloPolicy, bool], tuple[int, int, int]]:
        """(policy, resident) -> (buffer_bytes, ema_bytes, extra_macs).

        Options come in search order: RECOMPUTE before CACHE, resident
        weights before streamed.

        The buffer is the peak live bytes over every (tile, layer) pair of the
        fused replay, plus resident weights and (under CACHE) per-layer halo
        line buffers. Intermediate maps contribute zero EMA; under RECOMPUTE
        the first layer's input halo is re-read per tile and overlapping
        intermediate pixels are recomputed, under CACHE each needed input
        byte is read once and no pixel is computed twice.
        """
        eb = self.hw.element_bytes
        row_in, row_out, row_first = self._walk(0, tile.h_t)
        col_in, col_out, col_first = self._walk(1, tile.w_t)
        live = (row_in[:, None] * col_in[None] * self.c_in
                + row_out[:, None] * col_out[None] * self.c_out)
        peak = {True: int(live.max()) * eb, False: int((live + self.w).max()) * eb}
        input_elems = {
            HaloPolicy.RECOMPUTE: int(row_in[:, 0].sum()) * int(col_in[:, 0].sum()),
            HaloPolicy.CACHE: _merged_length(row_first) * _merged_length(col_first)}
        extra_macs = {
            HaloPolicy.RECOMPUTE: sum(
                (int(sr) * int(sc) - full) * ppm for sr, sc, (full, ppm)
                in zip(row_out.sum(0), col_out.sum(0), self.macs)),
            HaloPolicy.CACHE: 0}
        last = self.layers[-1].out_shape
        output_bytes = last.h * last.w * last.c * eb
        w_bytes = int(self.w.sum()) * eb
        n_tiles = len(row_first) * len(col_first)
        options = {}
        for policy in (HaloPolicy.RECOMPUTE, HaloPolicy.CACHE):
            line_buffers = self.line_buffers if policy is HaloPolicy.CACHE else 0
            input_bytes = input_elems[policy] * int(self.c_in[0]) * eb
            for resident in (True, False):
                buf = peak[resident] + (w_bytes if resident else 0) + line_buffers
                ema = input_bytes + output_bytes + w_bytes * (1 if resident else n_tiles)
                options[policy, resident] = buf, ema, extra_macs[policy]
        return options


def group_ema(layers: Sequence[ChainLayer], tile: TileShape, policy: HaloPolicy,
              weights_resident: bool, hw: HardwareConfig) -> tuple[int, int]:
    """(ema_bytes, extra_macs) for one fusion group (see ``_GroupCost.options``)."""
    _, ema, extra = _GroupCost(layers, hw).options(tile)[policy, weights_resident]
    return ema, extra


def group_buffer_bytes(layers: Sequence[ChainLayer], tile: TileShape,
                       policy: HaloPolicy, weights_resident: bool,
                       hw: HardwareConfig) -> int:
    """Peak live scratchpad bytes of the fused replay; raises over capacity.

    The peak uses the exact clamped extents the executor allocates (see
    ``_GroupCost.options``).
    """
    req, _, _ = _GroupCost(layers, hw).options(tile)[policy, weights_resident]
    if req > hw.scratchpad_bytes:
        raise CapacityError(req, hw.scratchpad_bytes, what="fusion group")
    return req


# ---------------------------------------------------------------------------
# Partition search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupChoice:
    tile: TileShape
    policy: HaloPolicy
    weights_resident: bool
    ema: int
    extra_macs: int
    buffer_bytes: int


def best_group_choice(layers: Sequence[ChainLayer], hw: HardwareConfig
                      ) -> GroupChoice | None:
    """Minimum-EMA (tile, policy, residency) for one group, or None if infeasible.

    Ties prefer larger tiles, then fewer extra MACs, then the smaller buffer.
    """
    cost = _GroupCost(layers, hw)
    best: tuple | None = None
    choice: GroupChoice | None = None
    for tile in _tile_candidates(layers):
        for (policy, resident), (buf, ema, extra) in cost.options(tile).items():
            if buf > hw.scratchpad_bytes:
                continue
            key = (ema, -tile.area, extra, buf,
                   0 if policy is HaloPolicy.RECOMPUTE else 1)
            if best is None or key < best:
                best = key
                choice = GroupChoice(tile, policy, resident, ema, extra, buf)
    return choice


def _tile_candidates(layers: Sequence[ChainLayer]) -> list[TileShape]:
    last = layers[-1].out_shape
    return [TileShape(h_t, w_t) for h_t in divisors(last.h)
            for w_t in divisors(last.w)]


def _singleton_infeasible(layer: ChainLayer, hw: HardwareConfig
                          ) -> NoFeasiblePlanError:
    """The error for a layer that fits no tile alone, with its smallest shortfall."""
    cost = _GroupCost([layer], hw)
    need = min(buf for tile in _tile_candidates([layer])
               for buf, _, _ in cost.options(tile).values())
    return NoFeasiblePlanError(
        f"layer {layer.node.id} cannot fit the scratchpad even as a singleton "
        f"group: its smallest candidate needs {need} B of {hw.scratchpad_bytes} B "
        f"(shortfall {need - hw.scratchpad_bytes} B)")


def fixed_tile_choice(layers: Sequence[ChainLayer], tile: TileShape,
                      policy: HaloPolicy, hw: HardwareConfig) -> GroupChoice:
    """Resident weights if they fit at this tile, else streamed weights.

    Raises ``CapacityError`` with the streamed requirement if neither fits.
    """
    options = _GroupCost(layers, hw).options(tile)
    for resident in (True, False):
        buf, ema, extra = options[policy, resident]
        if buf <= hw.scratchpad_bytes:
            return GroupChoice(tile, policy, resident, ema, extra, buf)
    raise CapacityError(buf, hw.scratchpad_bytes, what="fusion group")


def plan_from_choices(spans: Sequence[tuple[int, int, GroupChoice]]) -> FusionPlan:
    """A plan from (start, end, choice) groups in chain order."""
    emas = [c.ema for _, _, c in spans]
    extras = [c.extra_macs for _, _, c in spans]
    groups = [FusionGroup(i, j, c.tile, c.policy, c.weights_resident)
              for i, j, c in spans]
    return FusionPlan(groups, sum(emas), sum(extras), emas, extras)


def partition_chain(chain: Sequence[ChainLayer], hw: HardwareConfig) -> FusionPlan:
    """Minimum-EMA partition of a linear chain into fusion groups.

    DP over split points: best[j] = min over i of best[i-1] + cost(i..j),
    where cost enumerates tile candidates (divisors of the group's output
    dims) and both halo policies. Ties break toward fewer groups.
    """
    n = len(chain)
    if n == 0:
        return plan_from_choices([])
    memo: dict[tuple[int, int], GroupChoice | None] = {}

    def cost(i: int, j: int) -> GroupChoice | None:
        if (i, j) not in memo:
            memo[(i, j)] = best_group_choice(chain[i:j + 1], hw)
        return memo[(i, j)]

    # best[j] = (ema, n_groups) for chain[0..j]
    best: list[tuple[int, int] | None] = [None] * n
    back: list[tuple[int, GroupChoice] | None] = [None] * n
    for j in range(n):
        for i in range(j + 1):
            c = cost(i, j)
            if c is None:
                continue
            prev = (0, 0) if i == 0 else best[i - 1]
            if prev is None:
                continue
            cand = (prev[0] + c.ema, prev[1] + 1)
            if best[j] is None or cand < best[j]:
                best[j] = cand
                back[j] = (i, c)
    if best[n - 1] is None:
        first = next(i for i in range(n) if cost(i, i) is None)
        raise _singleton_infeasible(chain[first], hw)

    spans: list[tuple[int, int, GroupChoice]] = []
    j = n - 1
    while j >= 0:
        i, c = back[j]  # type: ignore[misc]
        spans.append((i, j, c))
        j = i - 1
    return plan_from_choices(spans[::-1])


def singleton_plan(chain: Sequence[ChainLayer], hw: HardwareConfig) -> FusionPlan:
    """Fusion-free baseline: every layer is its own group (full-map tile if it fits)."""
    spans: list[tuple[int, int, GroupChoice]] = []
    for i, layer in enumerate(chain):
        full = TileShape(layer.out_shape.h, layer.out_shape.w)
        try:
            chosen = fixed_tile_choice([layer], full, HaloPolicy.RECOMPUTE, hw)
        except CapacityError:
            chosen = best_group_choice([layer], hw)
        if chosen is None:
            raise _singleton_infeasible(layer, hw)
        spans.append((i, i, chosen))
    return plan_from_choices(spans)


# ---------------------------------------------------------------------------
# Fused schedule and execution
# ---------------------------------------------------------------------------

def schedule_group(layers: Sequence[ChainLayer], tile: TileShape,
                   policy: HaloPolicy, weights_resident: bool,
                   hw: HardwareConfig) -> list[Txn]:
    """Ordered scratchpad transactions of one fusion group, tile by tile.

    Each tile loads its first-layer input region (under CACHE only the bytes
    no earlier tile loaded), runs every layer on chip and stores the last
    layer's output. The compute step of layer ``li`` on row-major tile ``t``
    is the touch tagged ``tile=t, block=li``.
    """
    eb = hw.element_bytes
    w = [op_cost(l.node.op, l.in_shape)[0] * eb for l in layers]
    line_buffers = _line_buffers(layers, eb) if policy is HaloPolicy.CACHE else []
    c_in0 = layers[0].in_shape.c
    covered = np.zeros((layers[0].in_shape.h, layers[0].in_shape.w), dtype=bool)
    resident_w = sum(w) if weights_resident else 0
    txns: list[Txn] = []
    if resident_w:
        txns += [Txn("alloc", "gW", resident_w), Txn("load", "gW", resident_w)]
    txns += [Txn("alloc", f"gLB{li}", nbytes) for li, nbytes in line_buffers]
    for t, ((r_ins, r_outs), (c_ins, c_outs)) in enumerate(_tile_walks(layers, tile)):
        (ir0, ir1), (ic0, ic1) = r_ins[0], c_ins[0]
        prev, prev_bytes = "tin", (ir1 - ir0) * (ic1 - ic0) * c_in0 * eb
        if policy is HaloPolicy.RECOMPUTE:
            load = prev_bytes
        else:
            region = covered[ir0:ir1, ic0:ic1]
            load = int(region.size - region.sum()) * c_in0 * eb
            region[...] = True
        txns += [Txn("alloc", "tin", prev_bytes), Txn("load", "tin", load)]
        for li, layer in enumerate(layers):
            (or0, or1), (oc0, oc1) = r_outs[li], c_outs[li]
            name = f"tb{li}"
            out_bytes = (or1 - or0) * (oc1 - oc0) * layer.out_shape.c * eb
            streamed = 0 if weights_resident else w[li]
            txns.append(Txn("alloc", name, out_bytes))
            if streamed:
                txns += [Txn("alloc", "tw", streamed), Txn("load", "tw", streamed)]
            txns.append(Txn("touch", name, prev_bytes + streamed + out_bytes,
                            tile=t, block=li, what="layer"))
            if streamed:
                txns.append(Txn("free", "tw", 0))
            txns.append(Txn("free", prev, 0))
            prev, prev_bytes = name, out_bytes
        txns += [Txn("store", prev, prev_bytes), Txn("free", prev, 0)]
    txns += [Txn("free", f"gLB{li}", 0) for li, _ in line_buffers]
    if resident_w:
        txns.append(Txn("free", "gW", 0))
    return txns


def _layer_tile_forward(layer: ChainLayer, cur: np.ndarray,
                        cur_origin: tuple[int, int],
                        out_rows: tuple[int, int], out_cols: tuple[int, int],
                        params: dict[str, np.ndarray]) -> np.ndarray:
    op = layer.node.op
    if isinstance(op, (Conv2D, Downsample)):
        return conv2d_region(cur, op, params["w"], params["b"],
                             out_rows, out_cols, origin=cur_origin)
    if isinstance(op, Linear):
        return linear_tokens(cur, params["w"], params["b"])
    if isinstance(op, LayerNorm):
        return layernorm(cur)
    if isinstance(op, GELU):
        return gelu(cur)
    raise ShapeError(layer.node.id, f"op {op!r} not executable in a fused group")


def _group_compute(layers: Sequence[ChainLayer], walks: list[tuple],
                   x: np.ndarray, out: np.ndarray,
                   params: dict[str, dict[str, np.ndarray]]):
    """Numerics of ``schedule_group``'s compute steps: one layer on one tile.

    ``walks`` are the group's ``_tile_walks``; layer 0 reads its tile's input
    region of ``x`` and the last layer writes into ``out``.
    """
    cur: np.ndarray | None = None

    def compute(txn: Txn):
        nonlocal cur
        if txn.what != "layer":
            return
        li = txn.block
        (r_ins, r_outs), (c_ins, c_outs) = walks[txn.tile]
        if li == 0:
            (ir0, ir1), (ic0, ic1) = r_ins[0], c_ins[0]
            cur = x[:, ir0:ir1, ic0:ic1]
            origin = (ir0, ic0)
        else:
            origin = (r_outs[li - 1][0], c_outs[li - 1][0])
        cur = _layer_tile_forward(layers[li], cur, origin, r_outs[li], c_outs[li],
                                  params[layers[li].node.id])
        if li == len(layers) - 1:
            out[:, slice(*r_outs[li]), slice(*c_outs[li])] = cur

    return compute


def fused_execute(chain: Sequence[ChainLayer], plan: FusionPlan, x: np.ndarray,
                  sim: ScratchpadSim,
                  params: dict[str, dict[str, np.ndarray]],
                  hw: HardwareConfig) -> np.ndarray:
    """Execute a fusion plan tile-by-tile, replaying each group's schedule.

    Intermediate maps within a group never touch DRAM; the resulting counters
    match ``group_ema`` byte-exactly and the output matches the dense
    reference path.
    """
    cur = np.asarray(x, dtype=np.float64)
    for group in plan.groups:
        layers = chain[group.start:group.end + 1]
        last = layers[-1].out_shape
        out = np.empty((last.c, last.h, last.w), dtype=np.float64)
        compute = _group_compute(layers, _tile_walks(layers, group.tile), cur, out,
                                 params)
        replay(schedule_group(layers, group.tile, group.policy,
                              group.weights_resident, hw), sim, compute)
        cur = out
    return cur


# ---------------------------------------------------------------------------
# Chain extraction from a graph
# ---------------------------------------------------------------------------

FUSABLE_OPS = (Conv2D, Downsample, Linear, LayerNorm, GELU)


def chain_from_nodes(graph: NetworkGraph, node_ids: Sequence[str]) -> list[ChainLayer]:
    return [ChainLayer(graph.node(i), graph.in_shape(graph.node(i)),
                       graph.out_shape(i)) for i in node_ids]


def split_into_segments(graph: NetworkGraph) -> list[tuple[str, list[LayerNode]]]:
    """Partition the graph into ('chain', nodes) and ('barrier', [node]) segments.

    A chain extends only while each node's output feeds exactly the next node;
    attention and residual adds are barriers (their operands live in DRAM), and
    any node with fan-out ends its chain because its output must be DRAM-visible
    to the other consumers.
    """
    consumers = graph.consumers()
    segments: list[tuple[str, list[LayerNode]]] = []
    current: list[LayerNode] = []
    for node in graph.nodes:
        if isinstance(node.op, FUSABLE_OPS):
            if current and node.preds != (current[-1].id,):
                segments.append(("chain", current))
                current = []
            current.append(node)
            if len(consumers[node.id]) != 1:
                segments.append(("chain", current))
                current = []
        else:
            if current:
                segments.append(("chain", current))
                current = []
            segments.append(("barrier", [node]))
    if current:
        segments.append(("chain", current))
    return segments
