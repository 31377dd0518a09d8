"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import math
import time

import numpy as np
import pytest

import convformer_sim as cs
from convformer_sim import cli
from convformer_sim.attention_tiling import (AttentionTiling, ResidencyMode,
                                             attention_ema, replay,
                                             schedule_attention,
                                             search_attention_tiling,
                                             tiled_attention_execute,
                                             tiling_buffer_bytes)
from convformer_sim.errors import CapacityError
from convformer_sim.feature_pruning import PruneConfig, pruned_attention_execute
from convformer_sim.hwmodel import HardwareConfig, ScratchpadSim
from convformer_sim.layer_fusion import (FusionGroup, HaloPolicy,
                                         best_group_choice, chain_from_nodes,
                                         fused_execute, group_buffer_bytes,
                                         partition_chain, singleton_plan,
                                         split_into_segments)
from convformer_sim.pipeline import plan_network
from convformer_sim.workload import (Attention, Conv2D, GELU, LayerNode,
                                     NetworkGraph, TensorShape,
                                     attention_dims, attention_operands,
                                     dense_attention, infer_shapes,
                                     init_params, reference_execute,
                                     seeded_input, softmax_rows)

from conftest import region_loads, replay_counters

RESIDENT = ResidencyMode.RESIDENT_KV
STREAMING = ResidencyMode.STREAMING_KV
ATTN_PRESETS = ("segformer-micro", "pvtv2-micro", "cmt-micro")


def divisors(n):
    return [i for i in range(1, n + 1) if n % i == 0]


def spread(values, count):
    """Up to ``count`` entries spread across a sorted list."""
    if len(values) <= count:
        return values
    idx = np.linspace(0, len(values) - 1, count).round().astype(int)
    return [values[i] for i in sorted(set(idx))]


def preset_attention_cases(hw):
    """(preset, node, dims, Q, K, V) for every attention layer, seeded input."""
    cases = []
    for preset in ATTN_PRESETS:
        g = cs.build_preset(preset)
        params = init_params(g, 0)
        record = {}
        reference_execute(g, seeded_input(g, 0), params, record=record)
        for node in g.nodes:
            if isinstance(node.op, Attention):
                x = record[node.preds[0]]
                q, k, v = attention_operands(x, node.op, params[node.id])
                dims = attention_dims(g, node, hw.element_bytes)
                cases.append((preset, node, dims, q, k, v))
    return cases


def preset_chain_cases():
    """(preset, chain, input tensor, per-layer reference outputs)."""
    cases = []
    for preset in cs.PRESETS:
        g = cs.build_preset(preset)
        params = init_params(g, 0)
        record = {}
        x = seeded_input(g, 0)
        reference_execute(g, x, params, record=record)
        for kind, nodes in split_into_segments(g):
            if kind != "chain":
                continue
            chain = chain_from_nodes(g, nodes)
            first = chain[0].node
            xin = x if not first.preds else record[first.preds[0]]
            ref = record[chain[-1].node.id]
            cases.append((preset, chain, xin, ref, params))
    return cases


def test_criterion_1_attention_oracle_equivalence():
    t0 = time.monotonic()
    hw = HardwareConfig()
    checked = 0
    for preset, node, dims, q, k, v in preset_attention_cases(hw):
        ref = dense_attention(q, k, v)
        tilings = [AttentionTiling(t_q, dims.N_r, RESIDENT)
                   for t_q in spread(divisors(dims.N), 3)]
        tks = spread(divisors(dims.N_r), 3)
        tilings += [AttentionTiling(t_q, t_k, STREAMING)
                    for t_q, t_k in zip(spread(divisors(dims.N), 3), tks)]
        assert len([t for t in tilings if t.mode is RESIDENT]) >= 3
        assert len([t for t in tilings if t.mode is STREAMING]) >= 3
        for tiling in tilings:
            sim = ScratchpadSim(1 << 30)
            out = tiled_attention_execute(q, k, v, dims, tiling, sim)
            dev = float(np.max(np.abs(out - ref)))
            assert dev <= 1e-9, (preset, node.id, tiling, dev)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: {checked} tiled attention executions across "
          f"{len(ATTN_PRESETS)} presets match the dense reference within 1e-9 "
          f"({elapsed:.1f}s)")


def test_criterion_2_fusion_oracle_equivalence():
    t0 = time.monotonic()
    hw = HardwareConfig()
    fused_checked = singleton_checked = 0
    for preset, chain, xin, ref, params in preset_chain_cases():
        plan = partition_chain(chain, hw)
        sim = ScratchpadSim(hw.scratchpad_bytes)
        out = fused_execute(chain, plan, xin, sim, params, hw)
        dev = float(np.max(np.abs(out - ref)))
        assert dev <= 1e-9, (preset, [l.node.id for l in chain], dev)
        fused_checked += 1

        single = singleton_plan(chain, hw)
        sim = ScratchpadSim(hw.scratchpad_bytes)
        out = fused_execute(chain, single, xin, sim, params, hw)
        dev = float(np.max(np.abs(out - ref)))
        assert dev <= 1e-12, (preset, [l.node.id for l in chain], dev)
        singleton_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: {fused_checked} fused chains within 1e-9 and "
          f"{singleton_checked} all-singleton plans within 1e-12 of the "
          f"reference ({elapsed:.1f}s)")


def test_criterion_3_counter_formula_agreement():
    hw = HardwareConfig()
    # attention: grid of dims x tilings, counters byte-exact vs closed form
    attn_cases = 0
    grid = [(16, 16, 4, 1), (64, 16, 32, 1), (64, 16, 8, 2), (32, 8, 16, 4),
            (256, 4, 16, 1), (128, 32, 8, 1), (8, 2, 4, 2), (1, 1, 8, 1)]
    for n, n_r, d, heads in grid:
        dims = cs.AttentionDims(N=n, N_r=n_r, d=d, heads=heads, element_bytes=1)
        tilings = [AttentionTiling(t_q, dims.N_r, RESIDENT)
                   for t_q in spread(divisors(n), 4)]
        tilings += [AttentionTiling(t_q, t_k, STREAMING)
                    for t_q in spread(divisors(n), 2)
                    for t_k in spread(divisors(n_r), 2)]
        for tiling in tilings:
            sim = ScratchpadSim(1 << 30)
            replay(schedule_attention(dims, tiling), sim)
            assert sim.ema_bytes == attention_ema(dims, tiling)
            attn_cases += 1
    assert attn_cases >= 50

    # fusion: executed plans vs plan totals, byte-exact
    fusion_cases = 0
    for preset, chain, xin, ref, params in preset_chain_cases():
        for plan in (partition_chain(chain, HardwareConfig()),
                     singleton_plan(chain, HardwareConfig())):
            sim = ScratchpadSim(1 << 30)
            fused_execute(chain, plan, xin, sim, params, HardwareConfig())
            assert sim.ema_bytes == sum(group.ema_bytes for group in plan)
            fusion_cases += 1
        if len(chain) >= 2:
            last = chain[-1].out_shape
            tile = (max(1, last.h // 2), max(1, last.w // 2))
            for policy in (HaloPolicy.RECOMPUTE, HaloPolicy.CACHE):
                from convformer_sim.layer_fusion import group_ema
                ema, extra = group_ema(chain, tile, policy, True, hw)
                plan = [FusionGroup(0, len(chain) - 1, tile, policy, True, ema, extra, 0)]
                sim = ScratchpadSim(1 << 30)
                fused_execute(chain, plan, xin, sim, params, hw)
                assert sim.ema_bytes == ema
                fusion_cases += 1
    assert fusion_cases >= 20
    print(f"\nACCEPTANCE 3 PASS: byte-exact counter/formula agreement on "
          f"{attn_cases} attention cases and {fusion_cases} fusion plans")


def test_criterion_4_search_optimality():
    t0 = time.monotonic()
    # attention search vs exhaustive enumeration with replay-measured cost
    searched = 0
    for n in (4, 16, 64, 256):
        for n_r in divisors(n)[-3:]:
            for d, heads, cap in ((8, 1, 1 << 20), (16, 2, 4096), (32, 1, 1600)):
                dims = cs.AttentionDims(N=n, N_r=n_r, d=d, heads=heads)
                hw = HardwareConfig(scratchpad_bytes=cap)
                best, need = None, math.inf
                for t_q in divisors(n):
                    cands = [AttentionTiling(t_q, n_r, RESIDENT)]
                    cands += [AttentionTiling(t_q, t_k, STREAMING)
                              for t_k in divisors(n_r)]
                    for c in cands:
                        sim = ScratchpadSim(cap)
                        try:
                            replay(schedule_attention(dims, c), sim)
                        except CapacityError:
                            peak = replay_counters(schedule_attention(dims, c)).high_water
                            need = min(need, peak)
                            continue
                        best = sim.ema_bytes if best is None else min(best, sim.ema_bytes)
                if best is None:
                    with pytest.raises(CapacityError) as e:
                        search_attention_tiling(dims, hw)
                    assert e.value.requested == need, (dims, cap)
                else:
                    tiling = search_attention_tiling(dims, hw)
                    assert attention_ema(dims, tiling) == best, (dims, cap)
                searched += 1

    # fusion DP vs exhaustive partition enumeration on a 12-layer chain
    ops = []
    for i in range(12):
        ops.append(Conv2D(2, 2, 3, 1, 1) if i % 3 != 2 else GELU())
    nodes = []
    prev = ()
    for i, op in enumerate(ops):
        nodes.append(LayerNode(f"L{i}", op, prev))
        prev = (f"L{i}",)
    g = infer_shapes(NetworkGraph(nodes, TensorShape(1, 2, 8, 8)))
    chain = chain_from_nodes(g, g.nodes)
    for cap in (256 * 1024, 1024, 600):
        hw = HardwareConfig(scratchpad_bytes=cap)
        memo = {}

        def cost(i, j):
            if (i, j) not in memo:
                memo[(i, j)] = best_group_choice(chain[i:j + 1], hw)
            return memo[(i, j)]

        best = None
        n = len(chain)
        for mask in range(1 << (n - 1)):
            bounds = [0] + [b + 1 for b in range(n - 1) if mask >> b & 1] + [n]
            total = 0
            ok = True
            for i, j in zip(bounds, bounds[1:]):
                c = cost(i, j - 1)
                if c is None:
                    ok = False
                    break
                total += c.ema_bytes
            if ok and (best is None or total < best):
                best = total
        plan = partition_chain(chain, hw)
        assert sum(group.ema_bytes for group in plan) == best, cap
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: tiling search optimal on {searched} dim/hw "
          f"points; 12-layer DP matches 2048-partition brute force at 3 "
          f"capacities ({elapsed:.1f}s)")


def test_criterion_5_ema_reduction_direction():
    hw = HardwareConfig()
    g = cs.build_preset("segformer-micro")
    # (a) tiled attention strictly below untiled-with-spilled-scores, per layer
    ratios = []
    for node in g.nodes:
        if not isinstance(node.op, Attention):
            continue
        dims = attention_dims(g, node, hw.element_bytes)
        tiled = attention_ema(dims, search_attention_tiling(dims, hw))
        untiled = attention_ema(dims, None)
        assert tiled < untiled, node.id
        ratios.append(tiled / untiled)
    # (b) fusion plan total strictly below the all-singleton schedule
    def network_ema(fusion_mode):
        return sum(u.row["ema_bytes"] for u in plan_network(g, hw, "auto", fusion_mode))

    fused_total, single_total = network_ema("auto"), network_ema("singleton")
    assert fused_total < single_total
    fusion_ratio = fused_total / single_total
    print(f"\nACCEPTANCE 5 PASS: attention EMA ratios (tiled/untiled) = "
          f"{[f'{r:.3f}' for r in ratios]}; fused/singleton network EMA = "
          f"{fusion_ratio:.3f} (model-dependent, reported not asserted)")


def test_criterion_6_right_operand_single_load():
    hw = HardwareConfig()
    checked = 0
    for preset, node, dims, q, k, v in preset_attention_cases(hw):
        tiling = search_attention_tiling(dims, hw)
        if tiling.mode is not RESIDENT:
            tiling = AttentionTiling(min(4, dims.N), dims.N_r, RESIDENT)
        txns = schedule_attention(dims, tiling)
        sim = ScratchpadSim(hw.scratchpad_bytes)
        replay(txns, sim)
        kv_size = dims.heads * dims.N_r * dims.d * dims.element_bytes
        loads = region_loads(txns)
        assert loads["K"] == kv_size, node.id
        assert loads["V"] == kv_size, node.id
        for h in range(dims.heads):
            per_head = [t for t in txns if t.head == h and t.action == "load"]
            first_q = next(i for i, t in enumerate(per_head) if t.what == "load_q")
            assert {t.what for t in per_head[:first_q]} == {"load_k", "load_v"}
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: K/V load bytes equal their size exactly once "
          f"in {checked} resident schedules (transaction-trace assertion)")


def test_criterion_7_pruning_identity_and_monotonicity():
    hw = HardwareConfig()
    thetas = (0.0, 0.005, 0.01, 0.02, 0.05)
    for preset, node, dims, q, k, v in preset_attention_cases(hw):
        # theta = 0 is a bit-exact no-op
        out0, st0 = pruned_attention_execute(q, k, v, PruneConfig(0.0, 0.0))
        np.testing.assert_array_equal(out0, dense_attention(q, k, v))
        assert st0.pruned_fraction == 0.0 and st0.skipped_macs == 0

        fracs, mses = [], []
        for theta in thetas:
            _, st = pruned_attention_execute(q, k, v, PruneConfig(theta, 0.0))
            fracs.append(st.pruned_fraction)
            mses.append(st.output_mse)
        assert all(a <= b for a, b in zip(fracs, fracs[1:])), (preset, node.id, fracs)
        assert all(a <= b for a, b in zip(mses, mses[1:])), (preset, node.id, mses)

        # skipped MACs equal an explicit tally of zero-left-operand products
        theta = 0.02
        _, st = pruned_attention_execute(q, k, v, PruneConfig(theta, 0.0))
        tally = 0
        for h in range(dims.heads):
            s = (q[h] @ k[h].T) / math.sqrt(dims.d)
            probs = softmax_rows(s)
            pruned = np.where(np.abs(probs) < theta, 0.0, probs)
            tally += int((pruned == 0.0).sum()) * dims.d
        assert st.skipped_macs == tally, (preset, node.id)
    print(f"\nACCEPTANCE 7 PASS: theta=0 bit-exact; pruned fraction and mse "
          f"nondecreasing over {thetas} on every preset attention layer; "
          f"skipped MACs equal the zero-tally oracle")


def test_criterion_8_capacity_soundness_fuzz():
    rng = np.random.default_rng(20240101)
    accepted = rejected = 0
    # attention tilings: formula verdict vs forced replay
    for _ in range(600):
        n = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
        n_r = int(rng.choice(divisors(n)))
        d = int(rng.choice([1, 2, 4, 8, 16]))
        heads = int(rng.choice([1, 2, 4]))
        dims = cs.AttentionDims(N=n, N_r=n_r, d=d, heads=heads)
        mode = RESIDENT if rng.random() < 0.5 else STREAMING
        t_q = int(rng.choice(divisors(n)))
        t_k = n_r if mode is RESIDENT else int(rng.choice(divisors(n_r)))
        tiling = AttentionTiling(t_q, t_k, mode)
        cap = int(rng.integers(8, 4096))
        hw = HardwareConfig(scratchpad_bytes=cap)
        sim = ScratchpadSim(cap)
        try:
            tiling_buffer_bytes(dims, tiling, hw)
            feasible = True
        except CapacityError:
            feasible = False
        if feasible:
            replay(schedule_attention(dims, tiling), sim)  # must not raise
            accepted += 1
        else:
            with pytest.raises(CapacityError):
                replay(schedule_attention(dims, tiling), sim)
            rejected += 1

    # fusion groups: formula verdict vs forced fused execution
    for _ in range(400):
        c = int(rng.choice([1, 2, 4]))
        size = int(rng.choice([6, 8, 12]))
        depth = int(rng.integers(1, 4))
        ops = []
        for _ in range(depth):
            kind = rng.random()
            if kind < 0.6:
                ops.append(Conv2D(c, c, int(rng.choice([1, 3])), 1,
                                  int(rng.choice([0, 1]))))
            else:
                ops.append(GELU())
        nodes = []
        prev = ()
        for i, op in enumerate(ops):
            nodes.append(LayerNode(f"L{i}", op, prev))
            prev = (f"L{i}",)
        g = infer_shapes(NetworkGraph(nodes, TensorShape(1, c, size, size)))
        chain = chain_from_nodes(g, g.nodes)
        last = chain[-1].out_shape
        tile = (int(rng.choice(divisors(last.h))), int(rng.choice(divisors(last.w))))
        policy = HaloPolicy.RECOMPUTE if rng.random() < 0.5 else HaloPolicy.CACHE
        resident = bool(rng.random() < 0.5)
        cap = int(rng.integers(16, 2048))
        hw = HardwareConfig(scratchpad_bytes=cap)
        params = init_params(g, 0)
        x = seeded_input(g, 0)
        plan = [FusionGroup(0, depth - 1, tile, policy, resident, 0, 0, 0)]
        try:
            group_buffer_bytes(chain, tile, policy, resident, hw)
            feasible = True
        except CapacityError:
            feasible = False
        sim = ScratchpadSim(cap)
        if feasible:
            fused_execute(chain, plan, x, sim, params, hw)  # must not raise
            accepted += 1
        else:
            with pytest.raises(CapacityError):
                fused_execute(chain, plan, x, sim, params, hw)
            rejected += 1
    assert accepted + rejected == 1000
    assert accepted > 50 and rejected > 50  # the fuzz hits both sides
    print(f"\nACCEPTANCE 8 PASS: 1000 fuzzed (dims, tiling, hw) triples; "
          f"{accepted} accepted schedules replayed clean, {rejected} rejected "
          f"schedules all raised on forced replay")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path, capsys):
    # byte-identical outputs for identical config + seed
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert cli.main(["run", "--model", "segformer-micro", "--seed", "9",
                         "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    sweeps = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        assert cli.main(["sweep", "--model", "toy-chain", "--axis",
                         "scratchpad_bytes", "--values", "4096,262144",
                         "--format", "csv", "--out", str(path)]) == 0
        sweeps.append(path.read_bytes())
    assert sweeps[0] == sweeps[1]

    # exit-code contract: 0 ok / 1 config / 2 infeasible / 3 equivalence
    assert cli.main(["run", "--model", "toy-chain",
                     "--out", str(tmp_path / "ok.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert cli.main(["run", "--model", "toy-chain",
                     "--hw.scratchpad_bytes=32",
                     "--out", str(tmp_path / "x.json")]) == 2
    streaming_cfg = tmp_path / "stream.json"
    streaming_cfg.write_text(json.dumps({
        "model": "segformer-micro",
        "schedule": {"attention": {n.id: {"t_q": 2, "t_k": 2, "mode": "streaming_kv"}
                                   for n in cs.build_preset("segformer-micro").nodes
                                   if isinstance(n.op, cs.Attention)}},
    }))
    assert cli.main(["run", "--config", str(streaming_cfg), "--tolerance", "0",
                     "--out", str(tmp_path / "y.json")]) == 3
    capsys.readouterr()
    print("\nACCEPTANCE 9 PASS: run/sweep byte-identical under fixed seed; "
          "exit codes 0/1/2/3 verified")
