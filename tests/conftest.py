import numpy as np
import pytest

from convformer_sim import pipeline
from convformer_sim.hwmodel import HardwareConfig, ScratchpadSim
from convformer_sim.attention_tiling import replay, schedule_attention
from convformer_sim.workload import reference_execute


@pytest.fixture
def hw():
    return HardwareConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def replay_counters(txns, capacity=1 << 30):
    """Independent oracle: drive a schedule through a fresh simulator."""
    sim = ScratchpadSim(capacity)
    replay(txns, sim)
    return sim


def replay_core(dims, tiling, capacity=1 << 30):
    """An attention core through a fresh simulator: its one-head schedule replayed
    ``dims.heads`` times, as ``tiled_attention_execute`` drives it."""
    sim, txns = ScratchpadSim(capacity), schedule_attention(dims, tiling)
    for _ in range(dims.heads):
        replay(txns, sim)
    return sim


def region_loads(txns):
    """Bytes loaded into each region by a schedule's ``load`` transactions."""
    loads = {}
    for t in txns:
        if t.action == "load":
            loads[t.region] = loads.get(t.region, 0) + t.nbytes
    return loads


def checked_run(graph, schedule, x, params, hw, seed=0):
    """``pipeline.run_schedule`` checked against a recorded reference run of the same
    input and parameters: (output, report, each unit's (label, max abs deviation))."""
    record = {}
    reference_execute(graph, x, params, record=record)
    return pipeline.run_schedule(schedule, x, params, hw, seed, record)
