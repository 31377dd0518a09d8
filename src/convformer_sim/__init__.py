"""Desk-scale simulator and schedule optimizer for hybrid CNN-Transformer accelerators.

Three schedule mechanisms and their cost impact are modeled and proven
numerically equivalent to a dense reference execution:

* attention tiling with right-operand (K/V) residency and online softmax,
* fusion of conv/MLP chains so intermediate feature maps never touch DRAM,
* feature-map pruning with zero-skipping cost adjustment, counted at the
  first consumer of each pruned map.

A transaction-counting scratchpad simulator is the ground truth for every
external-memory-access (EMA) number the optimizers claim.
"""

from .errors import CapacityError, ConfigError, SelfCheckError, SimError
from .hwmodel import (CostReport, HardwareConfig, ScratchpadSim, Txn, replay,
                      roofline_cycles)
from .workload import (Add, Attention, AttentionDims, Conv2D, Downsample, GELU,
                       LayerNode, LayerNorm, Linear, NetworkGraph, PRESETS,
                       TensorShape, build_preset, infer_shapes, init_params,
                       layer_work, reference_execute)
from .attention_tiling import (AttentionTiling, ResidencyMode, attention_ema,
                               online_softmax_update, schedule_attention,
                               search_attention_tiling, tiled_attention_execute,
                               tiling_buffer_bytes)
from .layer_fusion import (ChainLayer, FusionGroup, HaloPolicy, fused_execute,
                           group_buffer_bytes, group_ema, partition_chain,
                           schedule_group, singleton_plan)
from .feature_pruning import (Granularity, PruneConfig, SparsityStats, prune_mask,
                              pruned_attention_execute, sparse_cost_adjust)

__version__ = "0.1.0"
