import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import convformer_sim as cs
from convformer_sim.cli import build_graph
from convformer_sim.errors import CapacityError, ConfigError
from convformer_sim.hwmodel import HardwareConfig, ScratchpadSim
from convformer_sim.layer_fusion import (FusionGroup, HaloPolicy,
                                         best_group_choice, chain_from_nodes,
                                         fixed_tile_choice, fused_execute,
                                         group_buffer_bytes, group_ema, partition_chain,
                                         singleton_plan, split_into_segments)
from convformer_sim.hwmodel import replay
from convformer_sim.layer_fusion import (POLICIES, _candidate_table, _GroupTable,
                                         _line_buffer, _tile_walks, _walk, schedule_group)
from convformer_sim.workload import (Add, Attention, Conv2D, Downsample, GELU,
                                     LayerNode, LayerNorm, Linear, NetworkGraph,
                                     TensorShape, infer_shapes, init_params,
                                     op_cost, reference_execute, seeded_input)

RECOMPUTE = HaloPolicy.RECOMPUTE
CACHE = HaloPolicy.CACHE


def make_chain_graph(ops, input_shape):
    nodes = []
    prev = ()
    for i, op in enumerate(ops):
        nodes.append(LayerNode(f"L{i}", op, prev))
        prev = (f"L{i}",)
    return infer_shapes(NetworkGraph(nodes, input_shape))


def chain_of(graph):
    return chain_from_nodes(graph, graph.nodes)


# ---------------------------------------------------------------------------
# Independent per-pixel oracle: tags every input read and computed pixel
# ---------------------------------------------------------------------------

def _kspad(op):
    if isinstance(op, Conv2D):
        return op.k, op.stride, op.pad
    if isinstance(op, Downsample):
        return op.k, op.stride, 0
    return 1, 1, 0


def _back_pixels(layer, out_pixels):
    k, s, p = _kspad(layer.node.op)
    in_h, in_w = layer.in_shape.h, layer.in_shape.w
    need = set()
    for r, c in out_pixels:
        for dr in range(k):
            for dc in range(k):
                rr, cc = r * s - p + dr, c * s - p + dc
                if 0 <= rr < in_h and 0 <= cc < in_w:
                    need.add((rr, cc))
    return need


def _ppm(layer):
    op = layer.node.op
    if isinstance(op, Conv2D):
        return op.c_out * (op.c_in // op.groups) * op.k * op.k
    if isinstance(op, Downsample):
        return layer.in_shape.c ** 2 * op.k * op.k
    if isinstance(op, Linear):
        return op.c_in * op.c_out
    return 0


def per_pixel_oracle(layers, tile, policy, resident, hw):
    """Brute-force (ema, extra_macs): per-tile pixel sets, no interval math."""
    eb = hw.element_bytes
    last = layers[-1].out_shape
    tiles = []
    for r0 in range(0, last.h, tile[0]):
        for c0 in range(0, last.w, tile[1]):
            tiles.append({(r, c)
                          for r in range(r0, min(r0 + tile[0], last.h))
                          for c in range(c0, min(c0 + tile[1], last.w))})
    input_reads = 0
    covered = set()
    computed = [0] * len(layers)
    for pixels in tiles:
        cur = pixels
        for li in reversed(range(len(layers))):
            computed[li] += len(cur)
            cur = _back_pixels(layers[li], cur)
        if policy is RECOMPUTE:
            input_reads += len(cur)
        else:
            input_reads += len(cur - covered)
            covered |= cur
    c_in0 = layers[0].in_shape.c
    w_elems = sum(op_cost(l.node.op)[0] for l in layers)
    ema = (input_reads * c_in0 + last.h * last.w * last.c) * eb \
        + w_elems * eb * (1 if resident else len(tiles))
    extra = 0
    if policy is RECOMPUTE:
        for li, layer in enumerate(layers):
            full = layer.out_shape.h * layer.out_shape.w
            extra += (computed[li] - full) * _ppm(layer)
    return ema, extra


# ---------------------------------------------------------------------------
# Halo arithmetic
# ---------------------------------------------------------------------------

def in_lengths(graph, lo, hi, axis=0):
    """Per-layer input extents along one axis for the output tile [lo, hi)."""
    los, his = _walk(chain_of(graph), np.array([lo]), np.array([hi]), axis)
    return (his - los)[0, :-1].tolist()


class TestHaloExtent:
    def test_single_3x3(self):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 32, 32))
        assert in_lengths(g, 8, 16) == [10]

    def test_stacked_3x3(self):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 32, 32))
        assert in_lengths(g, 8, 16) == [12, 10]

    def test_1x1_passthrough(self):
        g = make_chain_graph([Conv2D(4, 8, 1)], TensorShape(1, 4, 16, 16))
        assert in_lengths(g, 5, 10) == [5]
        assert in_lengths(g, 7, 14, axis=1) == [7]

    def test_pointwise_passthrough(self):
        g = make_chain_graph([LayerNorm(), Linear(4, 8), GELU()],
                             TensorShape(1, 4, 16, 16))
        assert in_lengths(g, 4, 8) == [4, 4, 4]

    def test_extent_clamped_to_input(self):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 8, 8))
        assert in_lengths(g, 0, 8) == [8]  # not 10: clamped at borders

    def test_stride_composition(self):
        g = make_chain_graph([Conv2D(4, 4, 3, 2, 1)], TensorShape(1, 4, 32, 32))
        assert in_lengths(g, 8, 16) == [17]  # (8-1)*2 + 3

    def test_attention_rejected(self):
        g = infer_shapes(NetworkGraph([LayerNode("a", Attention(1, 4))],
                                      TensorShape(1, 4, 4, 4)))
        with pytest.raises(ConfigError, match=r"Attention\(.*\): has no spatial window"):
            in_lengths(g, 0, 2)


# ---------------------------------------------------------------------------
# Group EMA
# ---------------------------------------------------------------------------

class TestGroupEma:
    def test_single_layer_full_tile(self, hw):
        g = make_chain_graph([Conv2D(4, 8, 3, 1, 1)], TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        ema, extra = group_ema(layers, (16, 16), RECOMPUTE, True, hw)
        w = op_cost(layers[0].node.op)[0]
        assert ema == (4 * 256 + 8 * 256 + w) * hw.element_bytes
        assert extra == 0

    def test_two_convs_full_tile_eliminates_intermediate(self, hw):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        ema, extra = group_ema(layers, (16, 16), RECOMPUTE, True, hw)
        w = sum(op_cost(l.node.op)[0] for l in layers)
        assert ema == (4 * 256 + 4 * 256 + w) * hw.element_bytes
        assert extra == 0

    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    @pytest.mark.parametrize("resident", [True, False])
    def test_two_convs_tiled_vs_per_pixel_oracle(self, hw, policy, resident):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        tile = (8, 8)
        got = group_ema(layers, tile, policy, resident, hw)
        assert got == per_pixel_oracle(layers, tile, policy, resident, hw)

    @pytest.mark.parametrize("ops,shape,tile", [
        ([Conv2D(2, 4, 3, 1, 1), GELU(), Conv2D(4, 2, 3, 1, 1)],
         TensorShape(1, 2, 12, 12), (4, 6)),
        ([Conv2D(3, 3, 5, 1, 2), Conv2D(3, 6, 3, 1, 0)],
         TensorShape(1, 3, 16, 16), (7, 7)),  # ragged tiles
        ([Downsample(2, 2), Conv2D(4, 4, 3, 1, 1)],
         TensorShape(1, 4, 16, 16), (4, 4)),
        ([Conv2D(2, 2, 3, 2, 1), Conv2D(2, 4, 1)],
         TensorShape(1, 2, 16, 16), (2, 8)),
        ([LayerNorm(), Linear(4, 8), GELU(), Linear(8, 4)],
         TensorShape(1, 4, 8, 8), (2, 2)),
        ([Conv2D(2, 2, 3, 1, 1, groups=2), Conv2D(2, 2, 3, 1, 1)],
         TensorShape(1, 2, 10, 10), (5, 5)),
    ])
    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    def test_grid_vs_per_pixel_oracle(self, hw, ops, shape, tile, policy):
        layers = chain_of(make_chain_graph(ops, shape))
        got = group_ema(layers, tile, policy, False, hw)
        assert got == per_pixel_oracle(layers, tile, policy, False, hw)

    def test_cache_never_rereads_input(self, hw):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        ema_c, extra_c = group_ema(layers, (4, 4), CACHE, True, hw)
        ema_r, extra_r = group_ema(layers, (4, 4), RECOMPUTE, True, hw)
        assert ema_c < ema_r  # halo re-reads eliminated
        assert extra_c == 0 and extra_r > 0

    def test_weight_streaming_multiplies_by_tiles(self, hw):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        w = op_cost(layers[0].node.op)[0]
        ema_res, _ = group_ema(layers, (8, 8), RECOMPUTE, True, hw)
        ema_str, _ = group_ema(layers, (8, 8), RECOMPUTE, False, hw)
        assert ema_str - ema_res == 3 * w * hw.element_bytes  # 4 tiles vs 1


# ---------------------------------------------------------------------------
# Feasibility vs fused-replay high-water
# ---------------------------------------------------------------------------

class TestGroupFeasible:
    def test_map_larger_than_scratchpad(self):
        hw = HardwareConfig(scratchpad_bytes=128)
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 32, 32))
        with pytest.raises(CapacityError):
            group_buffer_bytes(chain_of(g), (32, 32), RECOMPUTE, False, hw)

    def test_pointwise_chain_requirement_is_tiles_only(self, hw):
        g = make_chain_graph([GELU(), GELU()], TensorShape(1, 4, 8, 8))
        req = group_buffer_bytes(chain_of(g), (4, 4), RECOMPUTE, True, hw)
        assert req == 2 * 4 * 4 * 4 * hw.element_bytes  # in tile + out tile

    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    @pytest.mark.parametrize("resident", [True, False])
    def test_requirement_equals_replay_high_water(self, hw, policy, resident):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), GELU(), Conv2D(4, 8, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        tile = (4, 4)
        req = group_buffer_bytes(layers, tile, policy, resident, hw)
        plan = [FusionGroup(0, 2, tile, policy, resident, 0, 0, 0)]
        sim = ScratchpadSim(hw.scratchpad_bytes)
        params = init_params(g, 0)
        fused_execute(layers, plan, seeded_input(g, 0), sim, params, hw)
        assert sim.high_water == req


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def plan_ema(plan) -> int:
    """A chain's plan's EMA, the sum over its groups."""
    return sum(group.ema_bytes for group in plan)


def brute_force_partition(chain, hw):
    """Oracle: the minimum (EMA, group count) over all 2^(n-1) contiguous
    partitions, each group at its ``best_group_choice``."""
    n = len(chain)
    best = None
    for mask in range(1 << (n - 1)):
        bounds = [0]
        for b in range(n - 1):
            if mask >> b & 1:
                bounds.append(b + 1)
        bounds.append(n)
        total = 0
        ok = True
        for i, j in zip(bounds, bounds[1:]):
            choice = best_group_choice(chain[i:j], hw)
            if choice is None:
                ok = False
                break
            total += choice.ema_bytes
        if ok and (best is None or (total, len(bounds) - 1) < best):
            best = (total, len(bounds) - 1)
    return best


class TestPartition:
    def test_single_layer_chain(self, hw):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 8, 8))
        plan = partition_chain(chain_of(g), hw)
        assert len(plan) == 1
        assert plan_ema(plan) == plan[0].ema_bytes

    def test_toy_chain_matches_brute_force(self, hw):
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        plan = partition_chain(chain, hw)
        assert (plan_ema(plan), len(plan)) == brute_force_partition(chain, hw)

    def test_constrained_scratchpad_matches_brute_force(self):
        hw = HardwareConfig(scratchpad_bytes=2048)
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        plan = partition_chain(chain, hw)
        assert (plan_ema(plan), len(plan)) == brute_force_partition(chain, hw)

    def test_huge_scratchpad_fuses_everything(self):
        hw = HardwareConfig(scratchpad_bytes=1 << 30)
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        plan = partition_chain(chain, hw)
        assert len(plan) == 1
        last = chain[-1].out_shape
        assert plan[0].tile == (last.h, last.w)
        w = sum(op_cost(l.node.op)[0] for l in chain)
        first = chain[0].in_shape
        expect = (first.c * first.h * first.w + last.c * last.h * last.w + w)
        assert plan_ema(plan) == expect * hw.element_bytes

    def test_no_feasible_plan(self):
        hw = HardwareConfig(scratchpad_bytes=16)
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 16, 16))
        with pytest.raises(CapacityError):
            partition_chain(chain_of(g), hw)

    def test_no_feasible_plan_names_layer_and_deficit(self):
        hw = HardwareConfig(scratchpad_bytes=64)
        chain = chain_of(cs.build_preset("toy-chain"))
        needs = []
        for layer in chain:
            requested = []
            for tile, policy, resident in candidates([layer]):
                try:
                    group_buffer_bytes([layer], tile, policy, resident, hw)
                except CapacityError as e:
                    requested.append(e.requested)
                else:
                    break
            else:
                needs.append((layer.node.id, min(requested)))
        assert needs, "every tile must overflow for this test to mean anything"
        layer_id, need = needs[0]
        with pytest.raises(CapacityError) as info:
            partition_chain(chain, hw)
        msg = str(info.value)
        assert f"layer {layer_id} " in msg
        assert (info.value.requested, info.value.available) == (need, hw.scratchpad_bytes)
        assert f"(deficit {need - hw.scratchpad_bytes} B)" in msg

    def test_fused_beats_singletons_on_presets(self, hw):
        for preset in cs.PRESETS:
            g = cs.build_preset(preset)
            for kind, nodes in split_into_segments(g):
                if kind != "chain" or len(nodes) < 2:
                    continue
                chain = chain_from_nodes(g, nodes)
                fused = partition_chain(chain, hw)
                single = singleton_plan(chain, hw)
                assert plan_ema(fused) < plan_ema(single), preset

    def test_policy_trade(self, hw):
        # fixed group and tile with >1 boundary: recompute pays MACs,
        # cache pays buffer
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        tile = (8, 8)
        _, extra_r = group_ema(layers, tile, RECOMPUTE, True, hw)
        _, extra_c = group_ema(layers, tile, CACHE, True, hw)
        buf_r = group_buffer_bytes(layers, tile, RECOMPUTE, True, hw)
        buf_c = group_buffer_bytes(layers, tile, CACHE, True, hw)
        assert extra_r > 0 and extra_c == 0
        lb = sum((3 - 1) * l.in_shape.w * l.in_shape.c * hw.element_bytes
                 for l in layers)
        assert buf_c == buf_r + lb


def divisors(n):
    return [i for i in range(1, n + 1) if n % i == 0]


def candidates(layers):
    last = layers[-1].out_shape
    for h_t in divisors(last.h):
        for w_t in divisors(last.w):
            for policy in (RECOMPUTE, CACHE):
                for resident in (True, False):
                    yield (h_t, w_t), policy, resident


def exhaustive_choice(layers, hw, start=0):
    """Minimum of the search's tie-break key over every candidate, as the
    group of a chain whose layers from ``start`` on are ``layers``. Each tile
    is costed in its own one-tile table, which yields all four of its
    (policy, residency) options, so the oracle does not share the
    multi-tile broadcast of the search it checks."""
    best = None
    tables = {}
    for tile, policy, resident in candidates(layers):
        if tile not in tables:
            tables[tile] = _GroupTable(layers, hw, [((tile[0],), (tile[1],))])
        option = tables[tile].choice(0, 0, 0, 0, POLICIES.index(policy),
                                     0 if resident else 1)
        ema, extra, buf = option.ema_bytes, option.extra_macs, option.buffer_bytes
        if buf > hw.scratchpad_bytes:
            continue
        key = (ema, -tile[0] * tile[1], extra, not resident, buf,
               0 if policy is RECOMPUTE else 1)
        if best is None or key < best[0]:
            best = key, FusionGroup(start, start + len(layers) - 1, tile, policy,
                                    resident, ema, extra, buf)
    return None if best is None else best[1]


# 1024 B makes some sub-chains infeasible; the others are the golden sizes
@pytest.mark.parametrize("cap", [1024, 2048, 8192, 65536, 262144])
def test_best_group_choice_matches_exhaustive_enumeration(cap):
    hw = HardwareConfig(scratchpad_bytes=cap)
    checked = infeasible = 0
    for preset in cs.PRESETS:
        g = cs.build_preset(preset)
        for kind, nodes in split_into_segments(g):
            if kind != "chain":
                continue
            chain = chain_from_nodes(g, nodes)
            for i in range(len(chain)):
                for j in range(i, len(chain)):
                    want = exhaustive_choice(chain[i:j + 1], hw)
                    assert best_group_choice(chain[i:j + 1], hw) == want, \
                        (preset, i, j)
                    checked += 1
                    infeasible += want is None
    assert checked > 0
    if cap == 1024:
        assert 0 < infeasible < checked


# ---------------------------------------------------------------------------
# Fused execution
# ---------------------------------------------------------------------------

class TestFusedExecute:
    def test_singleton_plan_bit_identical(self, hw):
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        params = init_params(g, 0)
        x = seeded_input(g, 0)
        ref = reference_execute(g, x, params)
        plan = singleton_plan(chain, hw)
        sim = ScratchpadSim(hw.scratchpad_bytes)
        out = fused_execute(chain, plan, x, sim, params, hw)
        np.testing.assert_array_equal(out, ref)
        assert sim.ema_bytes == plan_ema(plan)

    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    def test_fused_toy_chain_8x8(self, hw, policy):
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        params = init_params(g, 0)
        x = seeded_input(g, 0)
        ref = reference_execute(g, x, params)
        tile = (8, 8)
        ema, extra = group_ema(chain, tile, policy, True, hw)
        plan = [FusionGroup(0, 3, tile, policy, True, ema, extra, 0)]
        sim = ScratchpadSim(hw.scratchpad_bytes)
        out = fused_execute(chain, plan, x, sim, params, hw)
        assert np.max(np.abs(out - ref)) <= 1e-12
        assert sim.ema_bytes == ema  # counters match the formula exactly

    def test_optimal_plan_matches_reference_on_presets(self, hw):
        for preset in ("toy-chain", "segformer-micro"):
            g = cs.build_preset(preset)
            params = init_params(g, 0)
            for kind, nodes in split_into_segments(g):
                if kind != "chain":
                    continue
                chain = chain_from_nodes(g, nodes)
                plan = partition_chain(chain, hw)
                first = chain[0].node
                x = seeded_input(g, 0) if not first.preds else None
                if x is None:
                    continue  # only the entry chain has a direct input here
                ref = x
                for layer in chain:
                    from convformer_sim.workload import layer_forward
                    ref = layer_forward(layer.node, [ref], params[layer.node.id])
                sim = ScratchpadSim(hw.scratchpad_bytes)
                out = fused_execute(chain, plan, x, sim, params, hw)
                assert np.max(np.abs(out - ref)) <= 1e-9
                assert sim.ema_bytes == plan_ema(plan)


    @pytest.mark.parametrize("tile", [(6, 5), (2, 5), (3, 1)])
    def test_donated_tiles_keep_the_references_bytes(self, tile):
        # each GELU writes into its linear's channel-last tile only where no
        # LayerNorm reads it, as in the reference; LayerNorm's sums over 16
        # channels round by layout
        g = make_chain_graph([Linear(4, 16), GELU(), LayerNorm(), Linear(16, 16), GELU(),
                              Conv2D(16, 16, 3, 1, 1, groups=16), GELU(), Linear(16, 16)],
                             TensorShape(1, 4, 6, 5))
        chain, params, x = chain_of(g), init_params(g, 0), seeded_input(g, 0)
        hw = HardwareConfig(scratchpad_bytes=1 << 20)
        plan = [fixed_tile_choice(chain, tile, RECOMPUTE, hw)]
        out = fused_execute(chain, plan, x, ScratchpadSim(hw.scratchpad_bytes), params, hw)
        assert out.tobytes() == reference_execute(g, x, params).tobytes()

    def test_a_mix_ffn_holds_one_hidden_map(self):
        """fc1 -> 3x3 depthwise -> GELU -> fc2 at 56x56: the depthwise conv and the
        GELU write into fc1's 128-channel map, in the reference and in one
        whole-map group, so neither executor holds two such maps at once."""
        g = make_chain_graph([LayerNorm(), Linear(32, 128),
                              Conv2D(128, 128, 3, 1, 1, groups=128), GELU(),
                              Linear(128, 32)], TensorShape(1, 32, 56, 56))
        chain, params, x = chain_of(g), init_params(g, 0), seeded_input(g, 0)
        hw = HardwareConfig(scratchpad_bytes=1 << 30)
        plan = [fixed_tile_choice(chain, (56, 56), RECOMPUTE, hw)]
        hidden = 128 * 56 * 56 * 8   # bytes of one hidden map
        sim = ScratchpadSim(hw.scratchpad_bytes)
        for run in (lambda: reference_execute(g, x, params),
                    lambda: fused_execute(chain, plan, x, sim, params, hw)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one hidden map and the 32-channel maps (a quarter of one each)
            # beside it; two hidden maps would pass 2 * hidden
            assert peak < 1.75 * hidden, peak / hidden

    @pytest.mark.parametrize("tile", [(2, 1), (4, 4), (1, 16)])
    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    def test_pad_grown_conv_edges(self, hw, tile, policy):
        # 1x1 convs with pad=1 grow the map; edge tiles land entirely in the
        # padding ring and their backward input regions are empty
        g = make_chain_graph([Conv2D(1, 1, 1, 1, 0), Conv2D(1, 1, 1, 1, 1),
                              Conv2D(1, 1, 1, 1, 1)], TensorShape(1, 1, 12, 12))
        chain = chain_of(g)
        params = init_params(g, 0)
        x = seeded_input(g, 0)
        ref = reference_execute(g, x, params)
        ema, extra = group_ema(chain, tile, policy, True, hw)
        plan = [FusionGroup(0, 2, tile, policy, True, ema, extra, 0)]
        sim = ScratchpadSim(hw.scratchpad_bytes)
        out = fused_execute(chain, plan, x, sim, params, hw)
        assert np.max(np.abs(out - ref)) <= 1e-12
        assert sim.ema_bytes == ema


# ---------------------------------------------------------------------------
# Segment extraction
# ---------------------------------------------------------------------------

class TestSegments:
    def test_toy_chain_is_one_chain(self):
        g = cs.build_preset("toy-chain")
        segs = split_into_segments(g)
        assert len(segs) == 1 and segs[0][0] == "chain"

    def test_segments_cover_every_node_once(self):
        for preset in cs.PRESETS:
            g = cs.build_preset(preset)
            ids = [n.id for _, nodes in split_into_segments(g) for n in nodes]
            assert ids == [n.id for n in g.nodes]

    def test_attention_and_add_are_barriers(self):
        g = cs.build_preset("segformer-micro")
        for kind, nodes in split_into_segments(g):
            for n in nodes:
                if isinstance(n.op, (Attention, Add)):
                    assert kind == "barrier" and len(nodes) == 1

    def test_fanout_ends_chain(self):
        g = cs.build_preset("segformer-micro")
        for kind, nodes in split_into_segments(g):
            if kind != "chain":
                continue
            for n in nodes[:-1]:
                consumers = [m for m in g.nodes if n.id in m.preds]
                assert len(consumers) == 1

    def test_mlp_chain_groups_together(self):
        g = cs.build_preset("segformer-micro")
        chains = [nodes for kind, nodes in split_into_segments(g) if kind == "chain"]
        mlp = [c for c in chains if any(isinstance(n.op, GELU) for n in c)]
        # ln2 -> fc1 -> act -> fc2 stays one fusable chain per block
        assert all(len(c) == 4 for c in mlp)
        assert len(mlp) == 4


@pytest.mark.parametrize("preset", ["toy-chain", "pvtv2-micro"])
def test_schedule_group_replay_matches_closed_form(preset, hw):
    """Closed form against the one interpreter, with no numerics.

    Every contiguous sub-chain ``chain[i..j]`` of every chain, every tile
    candidate and all four (policy, residency) options: the replayed
    schedule's EMA and high-water mark equal entry (j, i) of the cost table
    the partitioner builds for the chain, byte for byte.
    """
    g = cs.build_preset(preset)
    cases = 0
    for kind, nodes in split_into_segments(g):
        if kind != "chain":
            continue
        chain = chain_from_nodes(g, nodes)
        table = _candidate_table(chain, hw)
        for j, layer in enumerate(chain):
            extents = (len(divisors(layer.out_shape.h)), len(divisors(layer.out_shape.w)))
            for i, a, b, p, r in np.ndindex(j + 1, *extents, 2, 2):
                c = table.choice(j, i, a, b, p, r)
                sim = ScratchpadSim(1 << 40)
                replay(schedule_group(chain[i:j + 1], _tile_walks(chain[i:j + 1], c.tile),
                                      c.policy, c.weights_resident, hw), sim)
                assert (sim.ema_bytes, sim.high_water) == (c.ema_bytes, c.buffer_bytes), \
                    (preset, i, j, c)
                cases += 1
    assert cases > 100


# ---------------------------------------------------------------------------
# Property test: the cost table against the brute-force oracles
# ---------------------------------------------------------------------------

@st.composite
def chains_and_tiles(draw):
    """A chain of 1-4 layers on a 1-12 px map, a tile of any extent >= 1
    (non-divisors and extents past the map included) and a hardware config."""
    c0 = c = draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["conv", "conv", "down", "linear", "ln", "gelu"]))
        if kind == "conv":
            k = draw(st.integers(1, 5))
            groups = draw(st.sampled_from([g for g in (1, 2, 3) if c % g == 0]))
            c_out = groups * draw(st.integers(1, 2))
            ops.append(Conv2D(c, c_out, k, draw(st.integers(1, 3)),
                              draw(st.integers(0, k)), groups=groups))
            c = c_out
        elif kind == "down":
            ops.append(Downsample(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
        elif kind == "linear":
            c_out = draw(st.integers(1, 3))
            ops.append(Linear(c, c_out))
            c = c_out
        else:
            ops.append(LayerNorm() if kind == "ln" else GELU())
    try:
        layers = chain_of(make_chain_graph(ops, TensorShape(1, c0, h, w)))
    except ConfigError:   # a layer's output map would be empty
        assume(False)
    last = layers[-1].out_shape
    tile = (draw(st.integers(1, last.h + 3)), draw(st.integers(1, last.w + 3)))
    hw = HardwareConfig(scratchpad_bytes=draw(st.integers(64, 4096)),
                        element_bytes=draw(st.sampled_from([1, 2])))
    return layers, tile, hw


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chains_and_tiles())
# 1x1 output tiles whose back-propagated interval empties inside the padding
# ring (k > s): an empty interval must stay empty through the earlier layers
@example((chain_of(make_chain_graph([Conv2D(1, 1, 4, 2, 4), Conv2D(1, 1, 5, 3, 0),
                                     Conv2D(1, 1, 4, 3, 4)], TensorShape(1, 1, 10, 10))),
          (1, 1), HardwareConfig(scratchpad_bytes=4096, element_bytes=1)))
def test_cost_table_matches_brute_force_oracles(case):
    """At any tile, EMA and extra MACs equal the per-pixel oracle and the
    buffer equals the replayed high-water; over divisor tiles, the best
    option of every group start the partitioner sees equals exhaustive
    enumeration through the public per-candidate functions."""
    layers, tile, hw = case
    roomy = HardwareConfig(scratchpad_bytes=1 << 40, element_bytes=hw.element_bytes)
    # a layer whose stride exceeds its kernel skips input rows between its
    # windows; the model (and the executor) load and compute the whole span,
    # gaps included, so there it may only exceed the oracle
    skips = any(s > k for k, s, _ in (_kspad(l.node.op) for l in layers))
    for policy in (RECOMPUTE, CACHE):
        for resident in (True, False):
            got = group_ema(layers, tile, policy, resident, hw)
            want = per_pixel_oracle(layers, tile, policy, resident, hw)
            if skips:
                assert got[0] >= want[0] and got[1] >= want[1]
            else:
                assert got == want
            sim = ScratchpadSim(roomy.scratchpad_bytes)
            replay(schedule_group(layers, _tile_walks(layers, tile), policy, resident, hw),
                   sim)
            assert group_buffer_bytes(layers, tile, policy, resident, roomy) \
                == sim.high_water
    assert best_group_choice(layers, hw) == exhaustive_choice(layers, hw)
    per_start = _candidate_table(layers, hw).best(hw.scratchpad_bytes)[-1]
    assert per_start == [exhaustive_choice(layers[i:], hw, start=i)
                         for i in range(len(layers))]
    assert_table_matches_per_end_tables(layers, hw)


def test_cost_table_refuses_to_wrap_int64(hw):
    # 1x1 tiles of a 5x5 conv with 2^24 channels recompute ~1e21 MACs
    g = make_chain_graph([Conv2D(1 << 24, 1 << 24, 5, 1, 2)],
                         TensorShape(1, 1 << 24, 64, 64))
    with pytest.raises(ConfigError, match="int64"):
        group_ema(chain_of(g), (1, 1), RECOMPUTE, True, hw)


@pytest.mark.parametrize("ops,channels,named", [
    ([Conv2D(4, 1 << 24, 1), Conv2D(1 << 24, 1 << 24, 5, 1, 2)], 4, "L1"),
    ([Conv2D(1 << 24, 1 << 24, 5, 1, 2), Conv2D(1 << 24, 4, 1)], 1 << 24, "L0"),
])
def test_chain_table_names_the_first_end_whose_prefix_overflows(hw, ops, channels, named):
    # the chain's one table refuses as the per-end tables did, at the first end j
    # whose groups chain[i..j] could pass int64
    chain = chain_of(make_chain_graph(ops, TensorShape(1, channels, 64, 64)))
    with pytest.raises(ConfigError, match=rf"^{named}: fusion cost table exceeds int64"):
        partition_chain(chain, hw)


# ---------------------------------------------------------------------------
# Cost tables shared by chain geometry
# ---------------------------------------------------------------------------

def twin_chains():
    """Two one-conv chains of one geometry whose layers are ``a`` and ``b``."""
    shape = TensorShape(1, 4, 8, 8)
    return [chain_of(infer_shapes(NetworkGraph([LayerNode(i, Conv2D(4, 4, 3, 1, 1))], shape)))
            for i in "ab"]


def test_shared_table_errors_name_each_chains_own_layer():
    tables = {}
    tiny = HardwareConfig(scratchpad_bytes=8)
    for chain in twin_chains():
        with pytest.raises(CapacityError,
                           match=rf"^layer {chain[0].node.id} as a singleton group"):
            singleton_plan(chain, tiny, tables)
    assert tables   # the second chain's error came from the first chain's tables
    # a table whose bound check fails is never stored, so each build names its caller
    wide = HardwareConfig(element_bytes=10**18)
    for chain in twin_chains():
        with pytest.raises(ConfigError, match=rf"^{chain[0].node.id}: fusion cost table "
                                              "exceeds int64"):
            partition_chain(chain, wide, tables)
    assert all(key[1] == 1 for key in tables)


def test_best_is_memoized_per_capacity(hw):
    table = _candidate_table(twin_chains()[0], hw)
    fits = table.best(hw.scratchpad_bytes)
    assert table.best(hw.scratchpad_bytes) is fits
    assert table.best(8) == [[None]] and table.best(8) is not fits


# ---------------------------------------------------------------------------
# One table per chain against one table per chain end
# ---------------------------------------------------------------------------

def per_end_axis_tables(layers, h_extents, w_extents):
    """Row and column tables of the last layer's output tiles: (count, lens,
    sums, union) per extent, from one walk (see ``layer_fusion._axis_tables``)."""
    last = layers[-1].out_shape
    n_h = len(h_extents)
    step = np.array([*h_extents, *w_extents], dtype=np.int64)
    total = np.where(np.arange(len(step)) < n_h, last.h, last.w)
    count = -(-total // step)
    starts = np.cumsum(count) - count
    seg = np.repeat(np.arange(len(step)), count)
    lo = (np.arange(len(seg)) - starts[seg]) * step[seg]
    los, his = _walk(layers, lo, np.minimum(lo + step[seg], total[seg]),
                     (seg >= n_h).astype(np.int64))
    lens = his - los
    shift = seg[:, None] * (int(his.max()) + 1)
    before = np.zeros_like(his)
    before[1:] = np.maximum.accumulate(his + shift, axis=0)[:-1] - shift[:-1]
    before[starts] = 0
    union = np.add.reduceat(np.maximum(his - np.maximum(los, before), 0), starts)
    keep = np.ones(len(seg), dtype=bool)
    keep[1:] = (lens[1:] != lens[:-1]).any(axis=1)
    keep[starts] = True
    rank = np.cumsum(keep) - 1
    pos = (rank - rank[starts][seg])[keep]
    distinct = np.zeros((len(step), int(pos.max()) + 1, lens.shape[1]), dtype=np.int64)
    distinct[seg[keep], pos] = lens[keep]
    table = (count, distinct, np.add.reduceat(lens, starts), union)
    return tuple(a[:n_h] for a in table), tuple(a[n_h:] for a in table)


def suffix(acc, x):
    return acc.accumulate(x[::-1], axis=0)[::-1]


class PerEndTable:
    """Every option of every group ``layers[i:]`` that ends at the last layer, as
    the planner costed it with one table per chain end: ``buf`` and ``ema``
    (n, A, B, 2, 2) and ``extra`` (n, A, B, 2) by start, extents, policy and
    residency, and ``best`` by one lexsort per capacity."""

    def __init__(self, layers, hw, h_extents, w_extents):
        eb = hw.element_bytes
        self.extents = (list(h_extents), list(w_extents))
        (r_count, r_lens, r_sums, r_union), (c_count, c_lens, c_sums, c_union) = \
            per_end_axis_tables(layers, h_extents, w_extents)
        c_in, c_out, w, ppm, full, lb = np.array(
            [(l.in_shape.c, l.out_shape.c, *op_cost(l.node.op),
              l.out_shape.h * l.out_shape.w, _line_buffer(l, eb)) for l in layers],
            dtype=np.int64).T
        last = layers[-1].out_shape
        out_bytes = last.h * last.w * last.c * eb

        def outer(rows, cols):
            return rows.T[:, :, None] * cols.T[:, None, :]

        r, c = r_lens[:, :, None, None], c_lens[None, None]
        live = r[..., :-1] * c[..., :-1] * c_in + r[..., 1:] * c[..., 1:] * c_out
        peak = np.moveaxis(live.max(axis=(1, 3)), -1, 0)
        w_suffix = suffix(np.add, w)[:, None, None] * eb
        self.buf = np.empty(peak.shape + (2, 2), dtype=np.int64)
        self.buf[..., 0, 0] = suffix(np.maximum, peak) * eb + w_suffix
        self.buf[..., 0, 1] = suffix(np.maximum, peak + w[:, None, None]) * eb
        self.buf[..., 1, :] = self.buf[..., 0, :] + suffix(np.add, lb)[:, None, None, None]
        input_bytes = np.stack([outer(r_sums[:, :-1], c_sums[:, :-1]),
                                outer(r_union[:, :-1], c_union[:, :-1])],
                               axis=-1) * (c_in * eb)[:, None, None, None]
        self.ema = np.empty_like(self.buf)
        self.ema[..., 0] = input_bytes + out_bytes + w_suffix[..., None]
        self.ema[..., 1] = (input_bytes + out_bytes
                            + (w_suffix * r_count[:, None] * c_count)[..., None])
        self.extra = np.zeros(peak.shape + (2,), dtype=np.int64)
        self.extra[..., 0] = suffix(np.add, (outer(r_sums[:, 1:], c_sums[:, 1:])
                                             - full[:, None, None]) * ppm[:, None, None])

    def best(self, capacity):
        shape = self.buf.shape
        h, w = (np.array(e, dtype=np.int64) for e in self.extents)
        keys = (np.arange(2)[:, None], self.buf, np.arange(2), self.extra[..., None],
                -(h[:, None] * w)[:, :, None, None], self.ema, self.buf > capacity)
        first = np.lexsort([np.broadcast_to(k, shape).reshape(shape[0], -1) for k in keys])
        out = []
        for i, f in enumerate(first[:, 0]):
            a, b, p, r = map(int, np.unravel_index(f, shape[1:]))
            out.append(None if self.buf[i, a, b, p, r] > capacity else FusionGroup(
                i, shape[0] - 1, (self.extents[0][a], self.extents[1][b]),
                POLICIES[p], r == 0, int(self.ema[i, a, b, p, r]),
                int(self.extra[i, a, b, p]), int(self.buf[i, a, b, p, r])))
        return out


def assert_table_matches_per_end_tables(chain, hw):
    """Every option (i, j, extents, policy, residency) of the chain's table equals
    the per-end table of ``chain[:j + 1]``, an extent repeated to pad the end's
    extents costs the same as its last, and ``best`` picks the per-end winners
    where every option, some and none fit."""
    table = _candidate_table(chain, hw)
    for j, layer in enumerate(chain):
        old = PerEndTable(chain[:j + 1], hw, divisors(layer.out_shape.h),
                          divisors(layer.out_shape.w))
        n, a, b = old.buf.shape[:3]
        for name in ("buf", "ema", "extra"):
            np.testing.assert_array_equal(getattr(table, name)[j, :n, :a, :b],
                                          getattr(old, name), err_msg=f"{name} of end {j}")
        # a repeated extent costs what the end's last extent costs, so it never wins
        h, w = table.buf.shape[2:4]
        assert (table.h[j].tolist(), table.w[j].tolist()) == (
            old.extents[0] + old.extents[0][-1:] * (h - a),
            old.extents[1] + old.extents[1][-1:] * (w - b))
        for name in ("buf", "ema", "extra"):
            got = getattr(table, name)[j, :n]
            np.testing.assert_array_equal(got[:, a:], np.repeat(got[:, a - 1:a], h - a, 1))
            np.testing.assert_array_equal(got[:, :, b:], np.repeat(got[:, :, b - 1:b], w - b, 2))
        values = np.unique(old.buf)
        for cap in (int(values[-1]), int(values[len(values) // 2]), int(values[0]) - 1):
            assert table.best(cap)[j] == old.best(cap), (j, cap)


def b0_graph():
    with open(Path(__file__).parent / "golden" / "b0-224.json") as f:
        return build_graph(json.load(f)["model"])


@pytest.mark.parametrize("preset", [*cs.PRESETS, "b0-224"])
@pytest.mark.parametrize("element_bytes", [1, 2])
def test_chain_table_matches_per_end_tables(preset, element_bytes):
    g = b0_graph() if preset == "b0-224" else cs.build_preset(preset)
    hw = HardwareConfig(element_bytes=element_bytes)
    chains = [chain_from_nodes(g, nodes) for kind, nodes in split_into_segments(g)
              if kind == "chain"]
    assert chains
    for chain in chains:
        assert_table_matches_per_end_tables(chain, hw)
