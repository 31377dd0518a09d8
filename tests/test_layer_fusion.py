import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import convformer_sim as cs
from convformer_sim.errors import CapacityError, ConfigError
from convformer_sim.hwmodel import HardwareConfig, ScratchpadSim
from convformer_sim.layer_fusion import (FusionGroup, FusionPlan,
                                         HaloPolicy, TileShape,
                                         best_group_choice, chain_from_nodes,
                                         fused_execute, group_buffer_bytes,
                                         group_ema, partition_chain,
                                         singleton_plan, split_into_segments)
from convformer_sim.hwmodel import replay
from convformer_sim.layer_fusion import (POLICIES, _candidate_table, _GroupTable,
                                         _walk, schedule_group)
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
    return chain_from_nodes(graph, [n.id for n in graph.nodes])


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
    for r0 in range(0, last.h, tile.h_t):
        for c0 in range(0, last.w, tile.w_t):
            tiles.append({(r, c)
                          for r in range(r0, min(r0 + tile.h_t, last.h))
                          for c in range(c0, min(c0 + tile.w_t, last.w))})
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
        with pytest.raises(ConfigError, match="cannot be spatially tiled"):
            in_lengths(g, 0, 2)


# ---------------------------------------------------------------------------
# Group EMA
# ---------------------------------------------------------------------------

class TestGroupEma:
    def test_single_layer_full_tile(self, hw):
        g = make_chain_graph([Conv2D(4, 8, 3, 1, 1)], TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        ema, extra = group_ema(layers, TileShape(16, 16), RECOMPUTE, True, hw)
        w = op_cost(layers[0].node.op)[0]
        assert ema == (4 * 256 + 8 * 256 + w) * hw.element_bytes
        assert extra == 0

    def test_two_convs_full_tile_eliminates_intermediate(self, hw):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        ema, extra = group_ema(layers, TileShape(16, 16), RECOMPUTE, True, hw)
        w = sum(op_cost(l.node.op)[0] for l in layers)
        assert ema == (4 * 256 + 4 * 256 + w) * hw.element_bytes
        assert extra == 0

    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    @pytest.mark.parametrize("resident", [True, False])
    def test_two_convs_tiled_vs_per_pixel_oracle(self, hw, policy, resident):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        tile = TileShape(8, 8)
        got = group_ema(layers, tile, policy, resident, hw)
        assert got == per_pixel_oracle(layers, tile, policy, resident, hw)

    @pytest.mark.parametrize("ops,shape,tile", [
        ([Conv2D(2, 4, 3, 1, 1), GELU(), Conv2D(4, 2, 3, 1, 1)],
         TensorShape(1, 2, 12, 12), TileShape(4, 6)),
        ([Conv2D(3, 3, 5, 1, 2), Conv2D(3, 6, 3, 1, 0)],
         TensorShape(1, 3, 16, 16), TileShape(7, 7)),  # ragged tiles
        ([Downsample(2, 2), Conv2D(4, 4, 3, 1, 1)],
         TensorShape(1, 4, 16, 16), TileShape(4, 4)),
        ([Conv2D(2, 2, 3, 2, 1), Conv2D(2, 4, 1)],
         TensorShape(1, 2, 16, 16), TileShape(2, 8)),
        ([LayerNorm(), Linear(4, 8), GELU(), Linear(8, 4)],
         TensorShape(1, 4, 8, 8), TileShape(2, 2)),
        ([Conv2D(2, 2, 3, 1, 1, groups=2), Conv2D(2, 2, 3, 1, 1)],
         TensorShape(1, 2, 10, 10), TileShape(5, 5)),
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
        ema_c, extra_c = group_ema(layers, TileShape(4, 4), CACHE, True, hw)
        ema_r, extra_r = group_ema(layers, TileShape(4, 4), RECOMPUTE, True, hw)
        assert ema_c < ema_r  # halo re-reads eliminated
        assert extra_c == 0 and extra_r > 0

    def test_weight_streaming_multiplies_by_tiles(self, hw):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        w = op_cost(layers[0].node.op)[0]
        ema_res, _ = group_ema(layers, TileShape(8, 8), RECOMPUTE, True, hw)
        ema_str, _ = group_ema(layers, TileShape(8, 8), RECOMPUTE, False, hw)
        assert ema_str - ema_res == 3 * w * hw.element_bytes  # 4 tiles vs 1


# ---------------------------------------------------------------------------
# Feasibility vs fused-replay high-water
# ---------------------------------------------------------------------------

class TestGroupFeasible:
    def test_map_larger_than_scratchpad(self):
        hw = HardwareConfig(scratchpad_bytes=128)
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 32, 32))
        with pytest.raises(CapacityError):
            group_buffer_bytes(chain_of(g), TileShape(32, 32), RECOMPUTE, False, hw)

    def test_pointwise_chain_requirement_is_tiles_only(self, hw):
        g = make_chain_graph([GELU(), GELU()], TensorShape(1, 4, 8, 8))
        req = group_buffer_bytes(chain_of(g), TileShape(4, 4), RECOMPUTE, True, hw)
        assert req == 2 * 4 * 4 * 4 * hw.element_bytes  # in tile + out tile

    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    @pytest.mark.parametrize("resident", [True, False])
    def test_requirement_equals_replay_high_water(self, hw, policy, resident):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), GELU(), Conv2D(4, 8, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        tile = TileShape(4, 4)
        req = group_buffer_bytes(layers, tile, policy, resident, hw)
        plan = FusionPlan([FusionGroup(0, 2, tile, policy, resident, 0, 0, 0)])
        sim = ScratchpadSim(hw.scratchpad_bytes)
        params = init_params(g, 0)
        fused_execute(layers, plan, seeded_input(g, 0), sim, params, hw)
        assert sim.high_water == req


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def brute_force_partition(chain, hw):
    """Oracle: enumerate all 2^(n-1) contiguous partitions over the same
    group evaluator grid."""
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
            total += choice.ema
        if ok and (best is None or total < best):
            best = total
    return best


class TestPartition:
    def test_single_layer_chain(self, hw):
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1)], TensorShape(1, 4, 8, 8))
        plan = partition_chain(chain_of(g), hw)
        assert len(plan.groups) == 1
        assert plan.total_ema == plan.groups[0].ema

    def test_toy_chain_matches_brute_force(self, hw):
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        plan = partition_chain(chain, hw)
        assert plan.total_ema == brute_force_partition(chain, hw)

    def test_constrained_scratchpad_matches_brute_force(self):
        hw = HardwareConfig(scratchpad_bytes=2048)
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        plan = partition_chain(chain, hw)
        assert plan.total_ema == brute_force_partition(chain, hw)

    def test_huge_scratchpad_fuses_everything(self):
        hw = HardwareConfig(scratchpad_bytes=1 << 30)
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        plan = partition_chain(chain, hw)
        assert len(plan.groups) == 1
        last = chain[-1].out_shape
        assert plan.groups[0].tile == TileShape(last.h, last.w)
        w = sum(op_cost(l.node.op)[0] for l in chain)
        first = chain[0].in_shape
        expect = (first.c * first.h * first.w + last.c * last.h * last.w + w)
        assert plan.total_ema == expect * hw.element_bytes

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
                chain = chain_from_nodes(g, [n.id for n in nodes])
                fused = partition_chain(chain, hw)
                single = singleton_plan(chain, hw)
                assert fused.total_ema < single.total_ema, preset

    def test_policy_trade(self, hw):
        # fixed group and tile with >1 boundary: recompute pays MACs,
        # cache pays buffer
        g = make_chain_graph([Conv2D(4, 4, 3, 1, 1), Conv2D(4, 4, 3, 1, 1)],
                             TensorShape(1, 4, 16, 16))
        layers = chain_of(g)
        tile = TileShape(8, 8)
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
                    yield TileShape(h_t, w_t), policy, resident


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
            tables[tile] = _GroupTable(layers, hw, [tile.h_t], [tile.w_t])
        option = tables[tile].choice(0, 0, 0, POLICIES.index(policy), 0 if resident else 1)
        ema, extra, buf = option.ema, option.extra_macs, option.buffer_bytes
        if buf > hw.scratchpad_bytes:
            continue
        key = (ema, -tile.h_t * tile.w_t, extra, buf, 0 if policy is RECOMPUTE else 1)
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
            chain = chain_from_nodes(g, [n.id for n in nodes])
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
        assert sim.ema_bytes == plan.total_ema

    @pytest.mark.parametrize("policy", [RECOMPUTE, CACHE])
    def test_fused_toy_chain_8x8(self, hw, policy):
        g = cs.build_preset("toy-chain")
        chain = chain_of(g)
        params = init_params(g, 0)
        x = seeded_input(g, 0)
        ref = reference_execute(g, x, params)
        tile = TileShape(8, 8)
        ema, extra = group_ema(chain, tile, policy, True, hw)
        plan = FusionPlan([FusionGroup(0, 3, tile, policy, True, ema, extra, 0)])
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
                chain = chain_from_nodes(g, [n.id for n in nodes])
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
                assert sim.ema_bytes == plan.total_ema


    @pytest.mark.parametrize("tile", [TileShape(2, 1), TileShape(4, 4),
                                      TileShape(1, 16)])
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
        plan = FusionPlan([FusionGroup(0, 2, tile, policy, True, ema, extra, 0)])
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
    schedule's EMA and high-water mark equal entry i of the cost table the
    partitioner builds for end layer j, byte for byte.
    """
    g = cs.build_preset(preset)
    cases = 0
    for kind, nodes in split_into_segments(g):
        if kind != "chain":
            continue
        chain = chain_from_nodes(g, [n.id for n in nodes])
        for j in range(len(chain)):
            table = _candidate_table(chain[:j + 1], hw)
            for index in np.ndindex(table.buf.shape):
                i = index[0]
                c = table.choice(*index)
                sim = ScratchpadSim(1 << 40)
                replay(schedule_group(chain[i:j + 1], c.tile, c.policy,
                                      c.weights_resident, hw), sim)
                assert (sim.ema_bytes, sim.high_water) == (c.ema, c.buffer_bytes), \
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
    tile = TileShape(draw(st.integers(1, last.h + 3)), draw(st.integers(1, last.w + 3)))
    hw = HardwareConfig(scratchpad_bytes=draw(st.integers(64, 4096)),
                        element_bytes=draw(st.sampled_from([1, 2])))
    return layers, tile, hw


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chains_and_tiles())
# 1x1 output tiles whose back-propagated interval empties inside the padding
# ring (k > s): an empty interval must stay empty through the earlier layers
@example((chain_of(make_chain_graph([Conv2D(1, 1, 4, 2, 4), Conv2D(1, 1, 5, 3, 0),
                                     Conv2D(1, 1, 4, 3, 4)], TensorShape(1, 1, 10, 10))),
          TileShape(1, 1), HardwareConfig(scratchpad_bytes=4096, element_bytes=1)))
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
            replay(schedule_group(layers, tile, policy, resident, hw), sim)
            assert group_buffer_bytes(layers, tile, policy, resident, roomy) \
                == sim.high_water
    assert best_group_choice(layers, hw) == exhaustive_choice(layers, hw)
    per_start = _candidate_table(layers, hw).best(hw.scratchpad_bytes)
    assert per_start == [exhaustive_choice(layers[i:], hw, start=i)
                         for i in range(len(layers))]


def test_cost_table_refuses_to_wrap_int64(hw):
    # 1x1 tiles of a 5x5 conv with 2^24 channels recompute ~1e21 MACs
    g = make_chain_graph([Conv2D(1 << 24, 1 << 24, 5, 1, 2)],
                         TensorShape(1, 1 << 24, 64, 64))
    with pytest.raises(ConfigError, match="int64"):
        group_ema(chain_of(g), TileShape(1, 1), RECOMPUTE, True, hw)
