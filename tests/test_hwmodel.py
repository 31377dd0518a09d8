from dataclasses import asdict

import pytest

from convformer_sim.errors import CapacityError, ConfigError, SelfCheckError
from convformer_sim.hwmodel import (HardwareConfig, ScratchpadSim, Txn, build_report,
                                    replay, roofline_cycles)


def test_default_config_valid():
    hw = HardwareConfig()
    assert hw.scratchpad_bytes == 256 * 1024
    assert hw.e_dram > hw.e_sram


def test_config_rejects_nonpositive():
    with pytest.raises(ConfigError):
        HardwareConfig(pe_count=0)


def test_config_rejects_cheap_dram():
    # EMA minimization is meaningless if DRAM costs no more than SRAM
    with pytest.raises(ConfigError):
        HardwareConfig(e_dram=1.0, e_sram=1.0)


def test_config_from_dict_rejects_unknown():
    with pytest.raises(ConfigError):
        HardwareConfig.from_dict({"scratchpad": 1})


class TestScratchpad:
    def test_alloc_zero_is_noop_on_counters(self):
        sim = ScratchpadSim(100)
        sim.alloc("a", 0)
        assert sim.ema_bytes == 0 and sim.sram_accesses == 0

    def test_alloc_over_capacity(self):
        sim = ScratchpadSim(100)
        with pytest.raises(CapacityError) as e:
            sim.alloc("a", 101)
        assert e.value.requested == 101 and e.value.available == 100

    def test_two_allocs_to_exactly_capacity(self):
        sim = ScratchpadSim(100)
        sim.alloc("a", 60)
        sim.alloc("b", 40)
        assert sim.high_water == 100

    def test_load_store_counters(self):
        sim = ScratchpadSim(1000)
        sim.alloc("a", 200)
        sim.load("a", 100)
        sim.store("a", 50)
        assert sim.ema_bytes == 150
        assert sim.dram_reads == 100 and sim.dram_writes == 50
        assert sim.sram_accesses == 150

    def test_touch_is_onchip_only(self):
        sim = ScratchpadSim(1000)
        sim.alloc("a", 64)
        sim.touch("a", 64)
        assert sim.ema_bytes == 0 and sim.sram_accesses == 64

    def test_use_after_free(self):
        sim = ScratchpadSim(1000)
        sim.alloc("a", 10)
        sim.free("a")
        with pytest.raises(SelfCheckError):
            sim.load("a", 5)

    def test_load_beyond_region_size(self):
        sim = ScratchpadSim(1000)
        sim.alloc("a", 10)
        with pytest.raises(SelfCheckError):
            sim.load("a", 11)

    def test_free_then_realloc_same_name(self):
        sim = ScratchpadSim(100)
        sim.alloc("a", 80)
        sim.free("a")
        sim.alloc("a", 90)
        assert sim.high_water == 90

    def test_counters_monotone_and_capacity_replay(self):
        # CapacityError raised iff live bytes would exceed capacity; a
        # rejected allocation leaves no trace in the peak or the live set
        sim = ScratchpadSim(100)
        sim.alloc("a", 70)
        sim.free("a")
        sim.alloc("b", 70)  # fine after free
        with pytest.raises(CapacityError):
            sim.alloc("c", 31)
        assert sim.high_water == 70 <= sim.capacity
        assert sim.regions == {"b": 70}


@pytest.mark.parametrize("txns, message", [
    ([Txn("alloc", "a", 1), Txn("alloc", "a", 1)], "region 'a' already live"),
    ([Txn("alloc", "a", -1)], "allocation size must be >= 0"),
    *(([Txn("alloc", "a", 4), Txn(action, "a", -1)], "byte count must be >= 0")
      for action in ("load", "store", "touch")),
    *(([Txn(action, "a", 0)], "region 'a' is not live") for action in ("touch", "free")),
    ([Txn("alloc", "a", 4), Txn("copy", "a", 4)], "unknown action 'copy'"),
])
def test_simulator_rule_violation_raises_self_check(txns, message):
    with pytest.raises(SelfCheckError) as e:
        replay(txns, ScratchpadSim(100))
    assert str(e.value) == message


def test_replay_computes_after_each_touch_and_no_other_action():
    txns = [Txn("alloc", "a", 8), Txn("load", "a", 8), Txn("touch", "a", 8, tile=0),
            Txn("alloc", "b", 4), Txn("touch", "b", 4, tile=1), Txn("store", "a", 8),
            Txn("touch", "a", 2, tile=2), Txn("free", "b", 0), Txn("free", "a", 0)]
    sim = ScratchpadSim(100)
    steps = []
    replay(txns, sim, lambda t: steps.append((t, sim.sram_accesses)))
    # in schedule order, each after its own touch is counted
    assert steps == [(txns[2], 16), (txns[4], 20), (txns[6], 30)]


@pytest.mark.parametrize("macs,ema,pe,bw,expect", [
    (0, 0, 10, 100, 0),
    (1000, 10, 10, 100, 100),
    (10, 1000, 10, 10, 100),
    (7, 3, 2, 2, 4),  # ceil division on both terms
])
def test_roofline(macs, ema, pe, bw, expect):
    hw = HardwareConfig(pe_count=pe, dram_bytes_per_cycle=bw)
    assert roofline_cycles(macs, ema, hw) == expect


def test_energy_is_linear_in_edram():
    hw1 = HardwareConfig(e_dram=100.0)
    hw2 = HardwareConfig(e_dram=200.0)
    sim = ScratchpadSim(1000)
    sim.alloc("a", 100)
    sim.load("a", 100)
    r1 = build_report(0, 0, sim, hw1)
    r2 = build_report(0, 0, sim, hw2)
    dram1 = r1.energy_pj - sim.sram_accesses * hw1.e_sram
    dram2 = r2.energy_pj - sim.sram_accesses * hw2.e_sram
    assert dram2 == 2 * dram1


def test_report_energy_identity():
    hw = HardwareConfig()
    sim = ScratchpadSim(1000)
    sim.alloc("a", 500)
    sim.load("a", 300)
    sim.store("a", 100)
    sim.touch("a", 50)
    r = build_report(macs=1000, vector_ops=10, sim=sim, hw=hw)
    assert r.energy_pj == r.ema_bytes * hw.e_dram + r.sram_accesses * hw.e_sram + r.macs * hw.e_mac
    assert r.cycles >= max(r.macs // hw.pe_count, r.ema_bytes // hw.dram_bytes_per_cycle)


def test_report_serialization_roundtrip():
    import json
    hw = HardwareConfig()
    sim = ScratchpadSim(128)
    sim.alloc("x", 16)
    sim.load("x", 16)
    r = build_report(5, 1, sim, hw, seed=3)
    d = json.loads(json.dumps(asdict(r), sort_keys=True))
    assert d["ema_bytes"] == 16 and d["seed"] == 3
    assert d["hardware"]["scratchpad_bytes"] == hw.scratchpad_bytes
    assert all(f in d for f in r.CSV_FIELDS)
