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
from typing import Sequence

import numpy as np

from .errors import (AttentionInSliceError, CapacityError, NoFeasiblePlanError,
                     ShapeError)
from .hwmodel import HardwareConfig, ScratchpadSim
from .workload import (Attention, Conv2D, Downsample, GELU, LayerNode,
                       LayerNorm, Linear, NetworkGraph, TensorShape,
                       conv2d_region, gelu, layernorm, weight_elems_with_shape)


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


def halo_input_extent(tile: TileShape, layers: Sequence[ChainLayer]) -> list[TileShape]:
    """Input extent each layer must consume so the last layer emits ``tile``.

    Walks backward: a conv grows the extent to (e-1)*stride + k, clamped to
    the layer's full input size; pointwise layers pass it through. Returned
    in layer order (index i is the input extent of layers[i]).
    """
    extents: list[TileShape] = [None] * len(layers)  # type: ignore[list-item]
    eh, ew = tile.h_t, tile.w_t
    for i in reversed(range(len(layers))):
        k, s, _ = _spatial_params(layers[i].node)
        eh = min((eh - 1) * s + k, layers[i].in_shape.h)
        ew = min((ew - 1) * s + k, layers[i].in_shape.w)
        extents[i] = TileShape(eh, ew)
    return extents


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


def _tile_intervals(total: int, step: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


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


def _per_pixel_macs(layer: ChainLayer) -> int:
    op = layer.node.op
    if isinstance(op, Conv2D):
        return op.c_out * (op.c_in // op.groups) * op.k * op.k
    if isinstance(op, Downsample):
        return layer.in_shape.c * layer.in_shape.c * op.k * op.k
    if isinstance(op, Linear):
        return op.c_in * op.c_out
    return 0


def _group_weight_elems(layers: Sequence[ChainLayer]) -> int:
    return sum(weight_elems_with_shape(l.node, l.in_shape) for l in layers)


def _group_axis_walks(layers: Sequence[ChainLayer], tile: TileShape):
    """Axis walks for every tile row / tile column at the group output."""
    last = layers[-1].out_shape
    row_tiles = _tile_intervals(last.h, tile.h_t)
    col_tiles = _tile_intervals(last.w, tile.w_t)
    rows = [_axis_regions(layers, 0, lo, hi) for lo, hi in row_tiles]
    cols = [_axis_regions(layers, 1, lo, hi) for lo, hi in col_tiles]
    return rows, cols


# ---------------------------------------------------------------------------
# Group cost and feasibility
# ---------------------------------------------------------------------------

def _line_buffer_bytes(layers: Sequence[ChainLayer], hw: HardwareConfig) -> int:
    total = 0
    for layer in layers:
        k, _, _ = _spatial_params(layer.node)
        if k > 1:
            total += (k - 1) * layer.in_shape.w * layer.in_shape.c * hw.element_bytes
    return total


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
        self.w = np.array([weight_elems_with_shape(l.node, l.in_shape)
                           for l in layers], dtype=np.int64)
        # (pixels, MACs per pixel) per layer, as Python ints: the recompute
        # MAC count can outgrow int64 where the live-element counts cannot
        self.macs = [(l.out_shape.h * l.out_shape.w, _per_pixel_macs(l))
                     for l in layers]
        self.line_buffers = _line_buffer_bytes(layers, hw)
        self.walks: tuple[dict, dict] = ({}, {})

    def _walk(self, axis: int, step: int):
        if step not in self.walks[axis]:
            last = self.layers[-1].out_shape
            total = last.h if axis == 0 else last.w
            walks = [_axis_regions(self.layers, axis, lo, hi)
                     for lo, hi in _tile_intervals(total, step)]
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


def _divisors(n: int) -> list[int]:
    return [i for i in range(1, n + 1) if n % i == 0]


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
    return [TileShape(h_t, w_t) for h_t in _divisors(last.h)
            for w_t in _divisors(last.w)]


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


def partition_chain(chain: Sequence[ChainLayer], hw: HardwareConfig) -> FusionPlan:
    """Minimum-EMA partition of a linear chain into fusion groups.

    DP over split points: best[j] = min over i of best[i-1] + cost(i..j),
    where cost enumerates tile candidates (divisors of the group's output
    dims) and both halo policies. Ties break toward fewer groups.
    """
    n = len(chain)
    if n == 0:
        return FusionPlan([], 0, 0, [], [])
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

    groups: list[FusionGroup] = []
    emas: list[int] = []
    extras: list[int] = []
    j = n - 1
    while j >= 0:
        i, c = back[j]  # type: ignore[misc]
        groups.append(FusionGroup(i, j, c.tile, c.policy, c.weights_resident))
        emas.append(c.ema)
        extras.append(c.extra_macs)
        j = i - 1
    groups.reverse()
    emas.reverse()
    extras.reverse()
    return FusionPlan(groups, sum(emas), sum(extras), emas, extras)


def singleton_plan(chain: Sequence[ChainLayer], hw: HardwareConfig) -> FusionPlan:
    """Fusion-free baseline: every layer is its own group (full-map tile if it fits)."""
    groups: list[FusionGroup] = []
    emas: list[int] = []
    extras: list[int] = []
    for i, layer in enumerate(chain):
        full = TileShape(layer.out_shape.h, layer.out_shape.w)
        chosen: GroupChoice | None = None
        for resident in (True, False):
            try:
                buf = group_buffer_bytes([layer], full, HaloPolicy.RECOMPUTE,
                                         resident, hw)
            except CapacityError:
                continue
            ema, extra = group_ema([layer], full, HaloPolicy.RECOMPUTE, resident, hw)
            chosen = GroupChoice(full, HaloPolicy.RECOMPUTE, resident, ema, extra, buf)
            break
        if chosen is None:
            chosen = best_group_choice([layer], hw)
        if chosen is None:
            raise _singleton_infeasible(layer, hw)
        groups.append(FusionGroup(i, i, chosen.tile, chosen.policy,
                                  chosen.weights_resident))
        emas.append(chosen.ema)
        extras.append(chosen.extra_macs)
    return FusionPlan(groups, sum(emas), sum(extras), emas, extras)


# ---------------------------------------------------------------------------
# Fused execution
# ---------------------------------------------------------------------------

def _layer_tile_forward(layer: ChainLayer, cur: np.ndarray,
                        cur_origin: tuple[int, int],
                        out_rows: tuple[int, int], out_cols: tuple[int, int],
                        params: dict[str, np.ndarray]) -> np.ndarray:
    op = layer.node.op
    if isinstance(op, (Conv2D, Downsample)):
        return conv2d_region(cur, op, params["w"], params["b"],
                             out_rows, out_cols, origin=cur_origin)
    if isinstance(op, Linear):
        c, h, w = cur.shape
        tok = cur.reshape(c, h * w).T @ params["w"] + params["b"]
        return tok.T.reshape(op.c_out, h, w)
    if isinstance(op, LayerNorm):
        return layernorm(cur)
    if isinstance(op, GELU):
        return gelu(cur)
    raise ShapeError(layer.node.id, f"op {op!r} not executable in a fused group")


def fused_execute(chain: Sequence[ChainLayer], plan: FusionPlan, x: np.ndarray,
                  sim: ScratchpadSim,
                  params: dict[str, dict[str, np.ndarray]],
                  hw: HardwareConfig) -> np.ndarray:
    """Execute a fusion plan tile-by-tile, issuing all DRAM traffic via ``sim``.

    Intermediate maps within a group never touch DRAM; the resulting counters
    match ``group_ema`` byte-exactly and the output matches the dense
    reference path.
    """
    eb = hw.element_bytes
    cur_input = np.asarray(x, dtype=np.float64)
    for gi, group in enumerate(plan.groups):
        layers = chain[group.start:group.end + 1]
        rows, cols = _group_axis_walks(layers, group.tile)
        last = layers[-1].out_shape
        out_full = np.empty((last.c, last.h, last.w), dtype=np.float64)
        w_elems = _group_weight_elems(layers)

        if group.weights_resident and w_elems > 0:
            sim.alloc("gW", w_elems * eb)
            sim.load("gW", w_elems * eb)
        if group.policy is HaloPolicy.CACHE:
            for li, layer in enumerate(layers):
                k, _, _ = _spatial_params(layer.node)
                if k > 1:
                    sim.alloc(f"gLB{li}",
                              (k - 1) * layer.in_shape.w * layer.in_shape.c * eb)
            covered = np.zeros((layers[0].in_shape.h, layers[0].in_shape.w),
                               dtype=bool)

        c_in0 = layers[0].in_shape.c
        for r_ins, r_outs in rows:
            for c_ins, c_outs in cols:
                # first-layer input region for this tile
                (ir0, ir1), (ic0, ic1) = r_ins[0], c_ins[0]
                in_bytes = (ir1 - ir0) * (ic1 - ic0) * c_in0 * eb
                sim.alloc("tin", in_bytes)
                if group.policy is HaloPolicy.RECOMPUTE:
                    sim.load("tin", in_bytes)
                else:
                    region = covered[ir0:ir1, ic0:ic1]
                    novel = int(region.size - region.sum())
                    sim.load("tin", novel * c_in0 * eb)
                    covered[ir0:ir1, ic0:ic1] = True
                cur = cur_input[:, ir0:ir1, ic0:ic1]
                cur_origin = (ir0, ic0)
                prev_name = "tin"
                prev_bytes = in_bytes
                for li, layer in enumerate(layers):
                    (or0, or1), (oc0, oc1) = r_outs[li], c_outs[li]
                    out_bytes = (or1 - or0) * (oc1 - oc0) * layer.out_shape.c * eb
                    name = f"tb{li}"
                    sim.alloc(name, out_bytes)
                    wl = weight_elems_with_shape(layer.node, layer.in_shape)
                    w_bytes = 0
                    if wl > 0 and not group.weights_resident:
                        w_bytes = wl * eb
                        sim.alloc("tw", w_bytes)
                        sim.load("tw", w_bytes)
                    cur = _layer_tile_forward(layer, cur, cur_origin,
                                              (or0, or1), (oc0, oc1),
                                              params[layer.node.id])
                    cur_origin = (or0, oc0)
                    sim.touch(name, prev_bytes + w_bytes + out_bytes)
                    if w_bytes:
                        sim.free("tw")
                    sim.free(prev_name)
                    prev_name = name
                    prev_bytes = out_bytes
                sim.store(prev_name, prev_bytes)
                sim.free(prev_name)
                (fr0, fr1), (fc0, fc1) = r_outs[-1], c_outs[-1]
                out_full[:, fr0:fr1, fc0:fc1] = cur

        if group.policy is HaloPolicy.CACHE:
            for li, layer in enumerate(layers):
                k, _, _ = _spatial_params(layer.node)
                if k > 1:
                    sim.free(f"gLB{li}")
        if group.weights_resident and w_elems > 0:
            sim.free("gW")
        cur_input = out_full
    return cur_input


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
    consumers: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for n in graph.nodes:
        for p in n.preds:
            consumers[p].append(n.id)

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
