import math

import numpy as np
import pytest

from convformer_sim.errors import SelfCheckError
from convformer_sim.feature_pruning import (Granularity, PruneConfig,
                                            SparsityStats, prune_mask,
                                            pruned_attention_execute,
                                            sparse_cost_adjust)
from convformer_sim.hwmodel import ScratchpadSim, build_report, roofline_cycles
from convformer_sim.workload import dense_attention, softmax_rows

ELEMENT = Granularity.ELEMENT
ROW = Granularity.ROW
COLUMN = Granularity.COLUMN


# ---------------------------------------------------------------------------
# Masking
# ---------------------------------------------------------------------------

class TestPruneMask:
    def test_theta_zero_prunes_nothing(self, rng):
        t = rng.normal(size=(8, 8))
        t[0, 0] = 0.0  # even exact zeros survive a strict |x| < 0 test
        mask, frac = prune_mask(t, 0.0, ELEMENT)
        assert not mask.any() and frac == 0.0

    def test_theta_inf_prunes_everything(self, rng):
        mask, frac = prune_mask(rng.normal(size=(4, 4)), math.inf, ELEMENT)
        assert mask.all() and frac == 1.0

    def test_fraction_matches_elementwise_scan(self, rng):
        # independent counting oracle on a softmax-like map
        logits = rng.normal(size=(8, 8))
        probs = softmax_rows(logits)
        theta = 0.01
        mask, frac = prune_mask(probs, theta, ELEMENT)
        count = sum(1 for x in probs.ravel() if abs(x) < theta)
        assert mask.sum() == count
        assert frac == count / 64

    def test_row_requires_all_below(self):
        t = np.array([[0.001, 0.9], [0.001, 0.002]])
        mask, frac = prune_mask(t, 0.01, ROW)
        assert not mask[0].any() and mask[1].all()
        assert frac == 0.5

    def test_column_granularity(self):
        t = np.array([[0.001, 0.9], [0.002, 0.8]])
        mask, frac = prune_mask(t, 0.01, COLUMN)
        assert mask[:, 0].all() and not mask[:, 1].any()

    @pytest.mark.parametrize("theta", [0.0, 0.01, 0.1, 0.5])
    def test_granularity_ordering(self, rng, theta):
        t = rng.normal(size=(16, 16)) * 0.2
        _, fe = prune_mask(t, theta, ELEMENT)
        _, fr = prune_mask(t, theta, ROW)
        _, fc = prune_mask(t, theta, COLUMN)
        assert fe >= fr and fe >= fc

    def test_fraction_monotone_in_theta(self, rng):
        t = rng.normal(size=(12, 12))
        for gran in (ELEMENT, ROW, COLUMN):
            fracs = [prune_mask(t, th, gran)[1]
                     for th in (0.0, 0.1, 0.5, 1.0, 5.0)]
            assert all(a <= b for a, b in zip(fracs, fracs[1:]))


# ---------------------------------------------------------------------------
# Pruned attention execution
# ---------------------------------------------------------------------------

def zero_tally_matmul(left, right):
    """Multiplications whose left operand is exactly zero, counted one by one."""
    count = 0
    n, m = left.shape
    cols = right.shape[1]
    for i in range(n):
        for j in range(m):
            if left[i, j] == 0.0:
                count += cols
    return count


def rand_qkv(rng, heads, n, n_r, d, scale=1.0):
    return (scale * rng.normal(size=(heads, n, d)),
            scale * rng.normal(size=(heads, n_r, d)),
            scale * rng.normal(size=(heads, n_r, d)))


class TestPrunedAttention:
    def test_theta_zero_is_identity(self, rng):
        q, k, v = rand_qkv(rng, 2, 16, 8, 4)
        cfg = PruneConfig(theta_attn=0.0, theta_act=0.0)
        out, stats = pruned_attention_execute(q, k, v, cfg)
        np.testing.assert_array_equal(out, dense_attention(q, k, v))
        assert stats.pruned_fraction == 0.0 and stats.skipped_macs == 0
        assert stats.output_mse == 0.0 and stats.output_cosine == 1.0

    def test_theta_above_one_prunes_all(self, rng):
        q, k, v = rand_qkv(rng, 1, 8, 4, 4)
        cfg = PruneConfig(theta_attn=1.1)
        out, stats = pruned_attention_execute(q, k, v, cfg)
        assert stats.pruned_fraction == 1.0
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_skipped_macs_equals_zero_tally(self, rng):
        q, k, v = rand_qkv(rng, 2, 16, 8, 4)
        cfg = PruneConfig(theta_attn=0.08)
        out, stats = pruned_attention_execute(q, k, v, cfg)
        tally = 0
        for h in range(2):
            s = (q[h] @ k[h].T) / math.sqrt(4)
            probs = softmax_rows(s)
            pruned = np.where(np.abs(probs) < 0.08, 0.0, probs)
            tally += zero_tally_matmul(pruned, v[h])
        assert stats.skipped_macs == tally
        assert stats.skipped_macs > 0  # the sweep point actually prunes

    @pytest.mark.parametrize("granularity", [ELEMENT, ROW])
    def test_mse_and_fraction_monotone_in_theta(self, rng, granularity):
        q, k, v = rand_qkv(rng, 2, 32, 16, 8)
        sweeps = [0.0, 0.005, 0.01, 0.02, 0.05]
        mses, fracs = [], []
        for theta in sweeps:
            _, stats = pruned_attention_execute(
                q, k, v, PruneConfig(theta_attn=theta, granularity=granularity))
            mses.append(stats.output_mse)
            fracs.append(stats.pruned_fraction)
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert all(a <= b for a, b in zip(mses, mses[1:]))

    def test_mse_analytic_bound(self, rng):
        q, k, v = rand_qkv(rng, 1, 16, 8, 4)
        n_r, d = 8, 4
        for theta in (0.01, 0.05, 0.1):
            _, stats = pruned_attention_execute(q, k, v,
                                                PruneConfig(theta_attn=theta))
            bound = n_r * theta ** 2 * float((v ** 2).max()) * d
            assert stats.output_mse <= bound

    def test_row_granularity_elides_rows(self, rng):
        q, k, v = rand_qkv(rng, 1, 8, 2, 4, scale=3.0)
        # with N_r=2 a row maxes at >= 0.5, so force a high threshold
        cfg = PruneConfig(theta_attn=0.51, granularity=ROW)
        out, stats = pruned_attention_execute(q, k, v, cfg)
        zero_rows = int((out == 0).all(axis=-1).sum())
        assert stats.elided_output_elems == zero_rows * 4


# ---------------------------------------------------------------------------
# Cost adjustment
# ---------------------------------------------------------------------------

def report_for(macs, ema, hw):
    sim = ScratchpadSim(1 << 20)
    sim.alloc("x", ema)
    sim.load("x", ema)
    return build_report(macs, 0, sim, hw)


class TestSparseCostAdjust:
    def test_zero_stats_identity(self, hw):
        rep = report_for(1000, 256, hw)
        adj = sparse_cost_adjust(rep, SparsityStats(), hw)
        assert adj.to_dict() == rep.to_dict()

    def test_all_macs_skipped_floors_at_bandwidth(self, hw):
        rep = report_for(10_000, 1600, hw)
        adj = sparse_cost_adjust(rep, SparsityStats(skipped_macs=10_000), hw)
        assert adj.macs == 0
        assert adj.cycles == roofline_cycles(0, 1600, hw)
        assert adj.cycles == -(-1600 // hw.dram_bytes_per_cycle)

    def test_half_row_sparsity_halves_mac_energy(self, hw):
        total = 4096
        rep = report_for(total, 64, hw)
        adj = sparse_cost_adjust(rep, SparsityStats(skipped_macs=total // 2), hw,
                                 granularity=ROW)
        mac_term = rep.energy_pj - rep.ema_bytes * hw.e_dram - rep.sram_accesses * hw.e_sram
        adj_term = adj.energy_pj - adj.ema_bytes * hw.e_dram - adj.sram_accesses * hw.e_sram
        assert adj_term == mac_term / 2

    def test_element_granularity_keeps_ema(self, hw):
        rep = report_for(100, 640, hw)
        stats = SparsityStats(skipped_macs=50, elided_output_elems=32)
        adj = sparse_cost_adjust(rep, stats, hw, granularity=ELEMENT)
        assert adj.ema_bytes == rep.ema_bytes

    def test_row_granularity_reduces_ema(self, hw):
        rep = report_for(100, 640, hw)
        stats = SparsityStats(skipped_macs=50, elided_output_elems=32)
        adj = sparse_cost_adjust(rep, stats, hw, granularity=ROW)
        assert adj.ema_bytes == rep.ema_bytes - 32 * hw.element_bytes

    def test_adjusted_never_exceeds_original(self, hw, rng):
        rep = report_for(5000, 1024, hw)
        for skipped in (0, 100, 2500, 5000):
            adj = sparse_cost_adjust(rep, SparsityStats(skipped_macs=skipped), hw)
            assert adj.cycles <= rep.cycles and adj.energy_pj <= rep.energy_pj
            if skipped == 0:
                assert adj.energy_pj == rep.energy_pj

    def test_inconsistent_stats(self, hw):
        rep = report_for(10, 64, hw)
        with pytest.raises(SelfCheckError):
            sparse_cost_adjust(rep, SparsityStats(skipped_macs=11), hw)
