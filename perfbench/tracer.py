"""Span tracing around the public functions of convformer_sim's modules.

The wrappers are installed from outside the package: every module attribute
that refers to a traced function is replaced, so a call is recorded whether
its caller resolves ``layer_fusion.conv2d_region`` or
``workload.conv2d_region``, ``cli.reference_execute`` or
``workload.reference_execute``, and so on. Spans stay in memory until the
op ends. A function's self time is its span minus the spans of the traced
calls made inside it.
"""

from __future__ import annotations

import json
import sys
import time

# Functions recorded as spans, by defining module.
TRACED = {
    "cli": ("run_experiment", "build_graph", "pruning_analysis", "emit"),
    "workload": ("conv2d_region", "reference_execute", "init_params"),
    "layer_fusion": ("partition_chain", "best_group_choice", "group_buffer_bytes",
                     "group_ema", "singleton_plan", "fused_execute"),
    "attention_tiling": ("search_attention_tiling", "tiling_buffer_bytes",
                         "tiled_attention_execute", "untiled_attention_execute"),
    "pipeline": ("plan_network", "run_schedule", "attention_unit_execute",
                 "add_unit_execute"),
    "feature_pruning": ("pruned_attention_execute", "prune_activation_map",
                        "sparse_cost_adjust"),
    "hwmodel": ("build_report",),
}

# A CapacityError raised by these is a rejected candidate, not a failure.
REJECTING = ("layer_fusion.group_buffer_bytes", "attention_tiling.tiling_buffer_bytes")

SIM_METHODS = ("alloc", "load", "store", "touch", "free")

# Names imported into a caller's namespace; installation fails if one is missed.
MUST_WRAP = ("cli.reference_execute", "workload.conv2d_region",
             "layer_fusion.conv2d_region", "pipeline.build_report")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Records spans and counters for one op (one CLI invocation)."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.stack: list[list] = []          # [span index, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.rejects: dict[str, int] = {name: 0 for name in REJECTING}
        self.sim_ops = 0
        self.skipped_macs = 0
        self.modeled = {"ema_bytes": 0, "sram_accesses": 0, "high_water_bytes": 0}

    def install(self) -> None:
        import convformer_sim.cli  # noqa: F401  (imports every module)
        from convformer_sim.errors import CapacityError
        from convformer_sim.hwmodel import ScratchpadSim

        self._capacity_error = CapacityError
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "convformer_sim" or name.startswith("convformer_sim.")}
        wrapped_at: set[str] = set()
        for short, names in TRACED.items():
            owner = pkg[f"convformer_sim.{short}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod_name, mod in pkg.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            wrapped_at.add(f"{mod_name.rpartition('.')[2]}.{attr}")
        missing = [a for a in MUST_WRAP if a not in wrapped_at]
        if missing:
            raise RuntimeError(f"tracer could not wrap {missing}")
        for method in SIM_METHODS:
            setattr(ScratchpadSim, method, self._count(getattr(ScratchpadSim, method)))

    def _count(self, method):
        def counted(*args, **kwargs):
            self.sim_ops += 1
            return method(*args, **kwargs)
        return counted

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        self.total_s[name] = 0.0
        rejecting = name in REJECTING

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
            frame = [idx, 0.0]
            self.stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except self._capacity_error:
                if rejecting:
                    self.rejects[name] += 1
                raise
            finally:
                t1 = _clock()
                self.stack.pop()
                dur = t1 - t0
                self.spans[idx] = (name, t0, t1, parent, self.op_id)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.total_s[name] += dur
                if self.stack:
                    self.stack[-1][1] += dur
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result) -> None:
        if name in ("feature_pruning.pruned_attention_execute",
                    "feature_pruning.prune_activation_map"):
            self.skipped_macs += result[1].skipped_macs
        elif name == "hwmodel.build_report":
            self.modeled["ema_bytes"] += result.ema_bytes
            self.modeled["sram_accesses"] += result.sram_accesses
            self.modeled["high_water_bytes"] = max(self.modeled["high_water_bytes"],
                                                   result.scratchpad_high_water)

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s, "rejects": self.rejects,
                "sim_ops": self.sim_ops, "skipped_macs": self.skipped_macs,
                "modeled": self.modeled}

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
