from collections import Counter
from math import ceil

import numpy as np
import pytest

from convformer_sim.attention_tiling import (AttentionTiling, ResidencyMode,
                                             attention_ema, online_softmax_update, replay,
                                             schedule_attention,
                                             search_attention_tiling,
                                             tiled_attention_execute,
                                             tiling_buffer_bytes,
                                             untiled_attention_execute)
from convformer_sim.errors import CapacityError
from convformer_sim.hwmodel import HardwareConfig, ScratchpadSim
from convformer_sim.workload import AttentionDims, dense_attention, softmax_rows

from conftest import region_loads, replay_counters

RESIDENT = ResidencyMode.RESIDENT_KV
STREAMING = ResidencyMode.STREAMING_KV


def divisors(n):
    return [i for i in range(1, n + 1) if n % i == 0]


def all_tilings(dims):
    """Full candidate grid: every (t_q, t_k, mode) over divisors."""
    out = []
    for t_q in divisors(dims.N):
        out.append(AttentionTiling(t_q, dims.N_r, RESIDENT))
        for t_k in divisors(dims.N_r):
            out.append(AttentionTiling(t_q, t_k, STREAMING))
    return out


# ---------------------------------------------------------------------------
# EMA formulas vs the scratchpad-replay oracle
# ---------------------------------------------------------------------------

def test_resident_ema_example():
    dims = AttentionDims(N=64, N_r=16, d=32, heads=1, element_bytes=1)
    tiling = AttentionTiling(8, 16, RESIDENT)
    # Q + K + V + O = 64*32 + 16*32 + 16*32 + 64*32, verified by replay below
    assert attention_ema(dims, tiling) == 5120
    sim = replay_counters(schedule_attention(dims, tiling))
    assert sim.ema_bytes == 5120


def test_untiled_baseline_example():
    dims = AttentionDims(N=64, N_r=16, d=32, heads=1, element_bytes=1)
    assert attention_ema(dims, None) == 5120 + 2 * 64 * 16
    sim = replay_counters(schedule_attention(dims, None))
    assert sim.ema_bytes == 7168


def test_streaming_full_tq_equals_resident():
    dims = AttentionDims(N=64, N_r=16, d=32, heads=1)
    resident = AttentionTiling(8, 16, RESIDENT)
    streaming = AttentionTiling(64, 4, STREAMING)
    assert attention_ema(dims, streaming) == attention_ema(dims, resident)


@pytest.mark.parametrize("n,n_r,d,heads", [
    (16, 16, 4, 1), (64, 16, 32, 1), (64, 16, 8, 2),
    (32, 8, 16, 4), (256, 4, 16, 1), (1, 1, 8, 1),
])
def test_ema_formula_matches_replay_everywhere(n, n_r, d, heads):
    dims = AttentionDims(N=n, N_r=n_r, d=d, heads=heads, element_bytes=1)
    for tiling in [None, *all_tilings(dims)]:
        sim = replay_counters(schedule_attention(dims, tiling))
        assert sim.ema_bytes == attention_ema(dims, tiling), tiling


def test_ema_handles_element_bytes():
    dims = AttentionDims(N=16, N_r=4, d=8, heads=2, element_bytes=2)
    tiling = AttentionTiling(4, 2, STREAMING)
    sim = replay_counters(schedule_attention(dims, tiling))
    assert sim.ema_bytes == attention_ema(dims, tiling)
    assert sim.ema_bytes % 2 == 0


def test_streaming_ema_nonincreasing_in_tq():
    dims = AttentionDims(N=128, N_r=16, d=8, heads=1)
    emas = [attention_ema(dims, AttentionTiling(t_q, 4, STREAMING))
            for t_q in divisors(dims.N)]
    assert all(a >= b for a, b in zip(emas, emas[1:]))


# ---------------------------------------------------------------------------
# Buffer requirement vs replay high-water
# ---------------------------------------------------------------------------

def test_resident_buffer_example():
    dims = AttentionDims(N=64, N_r=16, d=32, heads=1)
    tiling = AttentionTiling(8, 16, RESIDENT)
    hw = HardwareConfig()
    req = tiling_buffer_bytes(dims, tiling, hw)
    assert req == 2 * 512 + 8 * 16 + 8 * 32  # K+V, score tile, shared Q/O tile
    sim = replay_counters(schedule_attention(dims, tiling))
    assert sim.high_water == req


@pytest.mark.parametrize("n,n_r,d,heads", [
    (16, 16, 4, 1), (64, 16, 32, 2), (32, 8, 16, 1), (256, 4, 16, 1),
])
def test_buffer_formula_matches_replay_high_water(n, n_r, d, heads):
    dims = AttentionDims(N=n, N_r=n_r, d=d, heads=heads)
    hw = HardwareConfig(scratchpad_bytes=1 << 30)
    for tiling in [None, *all_tilings(dims)]:
        req = tiling_buffer_bytes(dims, tiling, hw)
        sim = replay_counters(schedule_attention(dims, tiling))
        assert sim.high_water == req, tiling


def test_capacity_error_carries_deficit():
    dims = AttentionDims(N=256, N_r=256, d=64, heads=1)
    hw = HardwareConfig(scratchpad_bytes=1024)
    with pytest.raises(CapacityError) as e:
        tiling_buffer_bytes(dims, AttentionTiling(256, 256, RESIDENT), hw)
    assert e.value.requested > e.value.available == 1024


def test_min_tile_feasible_on_default_hw_for_presets():
    import convformer_sim as cs
    from convformer_sim.workload import Attention, attention_dims
    hw = HardwareConfig()
    for preset in cs.PRESETS:
        g = cs.build_preset(preset)
        for node in g.nodes:
            if isinstance(node.op, Attention):
                dims = attention_dims(g, node)
                t = AttentionTiling(1, 1, STREAMING)
                assert tiling_buffer_bytes(dims, t, hw) <= hw.scratchpad_bytes


# ---------------------------------------------------------------------------
# Search optimality against a replay-only brute force
# ---------------------------------------------------------------------------

def brute_force_min_ema(dims, hw):
    """Oracle: feasibility and EMA both measured by replaying each candidate."""
    best = None
    for tiling in all_tilings(dims):
        sim = ScratchpadSim(hw.scratchpad_bytes)
        try:
            replay(schedule_attention(dims, tiling), sim)
        except CapacityError:
            continue
        if best is None or sim.ema_bytes < best:
            best = sim.ema_bytes
    return best


@pytest.mark.parametrize("n,n_r,d,heads,capacity", [
    (64, 16, 32, 1, 1 << 20),   # roomy: resident must win
    (64, 16, 32, 1, 1200),      # too small for resident K/V + working set
    (256, 64, 16, 2, 4096),
    (32, 32, 8, 1, 700),
    (1, 1, 8, 1, 1 << 20),      # singleton space
])
def test_search_matches_brute_force(n, n_r, d, heads, capacity):
    dims = AttentionDims(N=n, N_r=n_r, d=d, heads=heads)
    hw = HardwareConfig(scratchpad_bytes=capacity)
    oracle = brute_force_min_ema(dims, hw)
    if oracle is None:
        with pytest.raises(CapacityError) as e:
            search_attention_tiling(dims, hw)
        # the smallest candidate's need, as its replay measures it
        assert e.value.requested == min(replay_counters(schedule_attention(dims, t)).high_water
                                        for t in all_tilings(dims))
        assert e.value.available == capacity
        return
    tiling = search_attention_tiling(dims, hw)
    assert attention_ema(dims, tiling) == oracle


def test_search_prefers_resident_when_roomy():
    dims = AttentionDims(N=64, N_r=16, d=32, heads=1)
    tiling = search_attention_tiling(dims, HardwareConfig())
    assert tiling.mode is RESIDENT
    assert attention_ema(dims, tiling) == 5120  # Q+K+V+O only


def test_search_falls_back_to_streaming():
    dims = AttentionDims(N=64, N_r=16, d=32, heads=1)
    # below resident K/V (1024 B) + min working set, streaming still fits
    hw = HardwareConfig(scratchpad_bytes=600)
    tiling = search_attention_tiling(dims, hw)
    assert tiling.mode is STREAMING


def test_search_singleton_space():
    dims = AttentionDims(N=1, N_r=1, d=4, heads=1)
    tiling = search_attention_tiling(dims, HardwareConfig())
    assert tiling.t_q == 1 and tiling.t_k == 1


def test_no_feasible_tiling():
    dims = AttentionDims(N=64, N_r=64, d=64, heads=1)
    with pytest.raises(CapacityError) as e:
        search_attention_tiling(dims, HardwareConfig(scratchpad_bytes=8))
    # streaming t_q = t_k = 1: K, V, Q and accumulator rows, one score, max and sum
    assert (e.value.requested, e.value.available) == (4 * 64 + 1 + 2, 8)


@pytest.mark.parametrize("n,n_r,d,heads", [
    (16, 16, 4, 1), (64, 16, 32, 1), (64, 16, 8, 2),
    (32, 8, 16, 4), (256, 4, 16, 1), (1, 1, 8, 1),
])
def test_optimal_tiled_strictly_beats_spilled_baseline(n, n_r, d, heads):
    # with room for resident K/V the whole spilled-score term disappears
    dims = AttentionDims(N=n, N_r=n_r, d=d, heads=heads)
    tiling = search_attention_tiling(dims, HardwareConfig())
    assert attention_ema(dims, tiling) < attention_ema(dims, None)
    assert attention_ema(dims, None) - attention_ema(dims, tiling) \
        == 2 * n * n_r * heads


# ---------------------------------------------------------------------------
# Load-order properties (right matrices first, single-load residency)
# ---------------------------------------------------------------------------

def test_resident_schedule_order_and_counts():
    dims = AttentionDims(N=16, N_r=8, d=4, heads=1)
    tiling = AttentionTiling(8, 8, RESIDENT)
    txns = schedule_attention(dims, tiling)
    loads = [t for t in txns if t.action == "load"]
    # K and V fully loaded before any Q tile
    kinds = [t.what for t in loads]
    assert kinds[:2] == ["load_k", "load_v"]
    assert kinds[2:] == ["load_q", "load_q"]
    replay_counters(txns)
    loads = region_loads(txns)
    assert loads["K"] == 8 * 4  # exactly its size, once
    assert loads["V"] == 8 * 4
    assert loads["QO"] == 16 * 4


def test_resident_single_load_across_heads():
    dims = AttentionDims(N=32, N_r=8, d=4, heads=3)
    tiling = AttentionTiling(8, 8, RESIDENT)
    txns = schedule_attention(dims, tiling)
    for h in range(dims.heads):
        per_head = [t for t in txns if t.head == h and t.action == "load"]
        q_first = next(i for i, t in enumerate(per_head) if t.what == "load_q")
        assert all(t.what != "load_q" for t in per_head[:q_first])
        assert sum(t.nbytes for t in per_head if t.what == "load_k") == 8 * 4
    replay_counters(txns)
    assert region_loads(txns)["K"] == dims.heads * 8 * 4


def test_streaming_single_pass_when_tq_is_n():
    dims = AttentionDims(N=16, N_r=8, d=4, heads=1)
    txns = schedule_attention(dims, AttentionTiling(16, 4, STREAMING))
    k_bytes = sum(t.nbytes for t in txns if t.action == "load" and t.what == "load_k")
    assert k_bytes == 8 * 4  # single outer iteration: K loaded once


def test_streaming_kv_reload_factor():
    dims = AttentionDims(N=16, N_r=8, d=4, heads=1)
    txns = schedule_attention(dims, AttentionTiling(4, 2, STREAMING))
    replay_counters(txns)
    loads = region_loads(txns)
    assert loads["K"] == 4 * 8 * 4  # ceil(N/t_q) = 4 passes
    assert loads["V"] == 4 * 8 * 4


@pytest.mark.parametrize("n,n_r,d,heads", [(16, 16, 4, 1), (32, 8, 16, 3), (10, 6, 4, 2)])
def test_one_compute_touch_per_query_tile_or_kv_block(n, n_r, d, heads):
    dims = AttentionDims(N=n, N_r=n_r, d=d, heads=heads)
    ragged = [AttentionTiling(4, n_r, RESIDENT), AttentionTiling(4, 4, STREAMING)]
    for tiling in [None, *all_tilings(dims), *ragged]:
        touches = Counter(t.what for t in schedule_attention(dims, tiling)
                          if t.action == "touch")
        if tiling is None:  # one query tile; the first touch scores S before it spills
            assert touches == {"scores": heads, "tile": heads}
            continue
        q_tiles = heads * ceil(n / tiling.t_q)
        if tiling.mode is RESIDENT:
            assert touches == {"tile": q_tiles}, tiling
        else:
            assert touches == {"block": q_tiles * ceil(n_r / tiling.t_k),
                               "finalize": q_tiles}, tiling


# ---------------------------------------------------------------------------
# Online softmax
# ---------------------------------------------------------------------------

def fresh_state(rows: int, d: int) -> tuple:
    """The (running max, running sum, accumulator) before a query tile's first block."""
    return np.full(rows, -np.inf), np.zeros(rows), np.zeros((rows, d))


def test_first_block_equals_plain_softmax_stats(rng):
    s = rng.normal(size=(4, 6))
    v = rng.normal(size=(6, 3))
    m_run, l_run, _ = online_softmax_update(*fresh_state(4, 3), s, v)
    m = s.max(axis=1)
    np.testing.assert_allclose(m_run, m)
    np.testing.assert_allclose(l_run, np.exp(s - m[:, None]).sum(axis=1))


def test_single_block_equals_dense(rng):
    s = rng.normal(size=(5, 8))
    v = rng.normal(size=(8, 3))
    _, l, acc = online_softmax_update(*fresh_state(5, 3), s, v)
    np.testing.assert_allclose(acc / l[:, None], softmax_rows(s) @ v, atol=1e-14)


def test_two_block_split_equals_one_block(rng):
    s = rng.normal(size=(4, 4))
    v = rng.normal(size=(4, 5))
    _, one_l, one_acc = online_softmax_update(*fresh_state(4, 5), s, v)
    st = fresh_state(4, 5)
    st = online_softmax_update(*st, s[:, :2], v[:2])
    _, l, acc = online_softmax_update(*st, s[:, 2:], v[2:])
    np.testing.assert_allclose(acc / l[:, None], one_acc / one_l[:, None], atol=1e-12)


def test_partial_prefix_matches_dense_recompute(rng):
    # after each block, acc/l equals the softmax-weighted V over blocks so far
    s = rng.normal(size=(3, 12))
    v = rng.normal(size=(12, 4))
    st = fresh_state(3, 4)
    for b in range(4):
        st = online_softmax_update(*st, s[:, 3 * b:3 * b + 3], v[3 * b:3 * b + 3])
        _, l, acc = st
        seen = 3 * (b + 1)
        np.testing.assert_allclose(acc / l[:, None], softmax_rows(s[:, :seen]) @ v[:seen],
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# Tiled execution: numerical equivalence + counter agreement
# ---------------------------------------------------------------------------

def rand_qkv(rng, heads, n, n_r, d):
    return (rng.normal(size=(heads, n, d)), rng.normal(size=(heads, n_r, d)),
            rng.normal(size=(heads, n_r, d)))


def dims_of(q, k):
    """The attention dims of operands q (heads, N, d) and k (heads, N_r, d)."""
    heads, n, d = q.shape
    return AttentionDims(N=n, N_r=k.shape[1], d=d, heads=heads)


class LoadRecordingSim(ScratchpadSim):
    """A simulator that also sums the bytes loaded into each region."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.loads = {}

    def load(self, name, nbytes):
        super().load(name, nbytes)
        self.loads[name] = self.loads.get(name, 0) + nbytes


def test_single_token_is_v(rng):
    q, k, v = rand_qkv(rng, 1, 1, 1, 4)
    sim = ScratchpadSim(1 << 20)
    out = tiled_attention_execute(q, k, v, dims_of(q, k), AttentionTiling(1, 1, RESIDENT),
                                  sim)
    np.testing.assert_allclose(out, v, atol=1e-15)


@pytest.mark.parametrize("t_q", [1, 4, 16, 64])
def test_resident_matches_dense_tightly(rng, t_q):
    q, k, v = rand_qkv(rng, 2, 64, 16, 8)
    sim = ScratchpadSim(1 << 20)
    out = tiled_attention_execute(q, k, v, dims_of(q, k),
                                  AttentionTiling(t_q, 16, RESIDENT), sim)
    assert np.max(np.abs(out - dense_attention(q, k, v))) <= 1e-12


@pytest.mark.parametrize("t_q,t_k", [(8, 4), (64, 1), (1, 16), (16, 2)])
def test_streaming_matches_dense(rng, t_q, t_k):
    q, k, v = rand_qkv(rng, 2, 64, 16, 8)
    sim = ScratchpadSim(1 << 20)
    out = tiled_attention_execute(q, k, v, dims_of(q, k),
                                  AttentionTiling(t_q, t_k, STREAMING), sim)
    assert np.max(np.abs(out - dense_attention(q, k, v))) <= 1e-9


def test_execute_counters_match_schedule_replay(rng):
    dims = AttentionDims(N=32, N_r=16, d=8, heads=2)
    q, k, v = rand_qkv(rng, 2, 32, 16, 8)
    for tiling in [AttentionTiling(8, 16, RESIDENT), AttentionTiling(8, 4, STREAMING)]:
        sim_exec = LoadRecordingSim(1 << 20)
        tiled_attention_execute(q, k, v, dims, tiling, sim_exec)
        txns = schedule_attention(dims, tiling)
        sim_replay = replay_counters(txns)
        for counter in ("dram_reads", "dram_writes", "sram_accesses", "high_water"):
            assert getattr(sim_exec, counter) == getattr(sim_replay, counter)
        assert sim_exec.loads == region_loads(txns)

def test_execute_propagates_capacity_error(rng):
    q, k, v = rand_qkv(rng, 1, 64, 64, 32)
    sim = ScratchpadSim(64)
    with pytest.raises(CapacityError):
        tiled_attention_execute(q, k, v, dims_of(q, k), AttentionTiling(64, 64, RESIDENT),
                                sim)


def test_untiled_execute_matches_dense_and_formula(rng):
    q, k, v = rand_qkv(rng, 2, 32, 8, 4)
    sim = ScratchpadSim(1 << 20)
    dims = AttentionDims(N=32, N_r=8, d=4, heads=2)
    out = untiled_attention_execute(q, k, v, dims, sim)
    np.testing.assert_allclose(out, dense_attention(q, k, v), atol=1e-12)
    assert sim.ema_bytes == attention_ema(dims, None)
    # the baseline is the one core executor with tiling=None
    sim2 = ScratchpadSim(1 << 20)
    assert np.array_equal(tiled_attention_execute(q, k, v, dims, None, sim2), out)
    assert vars(sim2) == vars(sim)


def test_ragged_tile_sizes_still_exact(rng):
    # non-divisor tiles: partial edge tiles, formulas use ceil
    dims = AttentionDims(N=10, N_r=6, d=4, heads=1)
    tiling = AttentionTiling(4, 4, STREAMING)
    q, k, v = rand_qkv(rng, 1, 10, 6, 4)
    sim = ScratchpadSim(1 << 20)
    out = tiled_attention_execute(q, k, v, dims, tiling, sim)
    assert np.max(np.abs(out - dense_attention(q, k, v))) <= 1e-9
    assert sim.ema_bytes == attention_ema(dims, tiling)
