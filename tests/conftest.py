import numpy as np
import pytest

from convformer_sim.hwmodel import HardwareConfig, ScratchpadSim
from convformer_sim.attention_tiling import replay


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


def region_loads(txns):
    """Bytes loaded into each region by a schedule's ``load`` transactions."""
    loads = {}
    for t in txns:
        if t.action == "load":
            loads[t.region] = loads.get(t.region, 0) + t.nbytes
    return loads
