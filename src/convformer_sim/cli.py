"""Experiment orchestration CLI: run | compare | sweep | presets.

Configuration comes from a JSON file plus command-line overrides (flags win
over file fields, which win over defaults). Reports embed the resolved
hardware config and seed, and all outputs are byte-deterministic for a fixed
config and seed. Exit codes: 0 ok, 1 config error, 2 infeasible schedule,
3 equivalence or self-check failure (a row's schedule, pruned or not, deviates
from the reference by more than the tolerance, a closed-form EMA disagrees with
the simulator, or a schedule breaks the simulator's rules); on an equivalence
failure the output is still written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import threading
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from . import attention_tiling as at
from . import feature_pruning as fp
from . import layer_fusion as lf
from . import pipeline
from .errors import ConfigError, SelfCheckError, SimError
from .hwmodel import CostReport, HardwareConfig, bounded, check_keys, parse_fields
from .workload import (Attention, GELU, LayerNode, Linear, NetworkGraph, PRESETS,
                       attention_operands, build_preset,
                       graph_from_dict, node_params, reference_execute,
                       seeded_input)

# A graph whose largest activation (input included) has at most this many elements runs its
# reference before its schedule: overlapping them made micro-sweeps wall_s 21% slower, and
# its three ops 27% slower in-process when re-measured (140.2 -> 177.7 ms, 2 vCPUs).
SERIAL_MAX_ELEMENTS = 1 << 15

SCHEDULE_PRESETS = {
    "naive": ("baseline", "singleton"),
    "tiling": ("auto", "singleton"),
    "fusion": ("baseline", "auto"),
    "full": ("auto", "auto"),
}


@dataclass
class ExperimentConfig:
    model: str | dict = "toy-chain"
    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    attention: str | dict = "auto"
    fusion: str | dict = "auto"
    pruning: fp.PruneConfig | None = None
    seed: int = bounded(0, default=0)
    tolerance: float = bounded(0, default=1e-6)

    def resolved_dict(self) -> dict:
        sched: dict = {
            "attention": self.attention,
            "fusion": self.fusion,
            "pruning": "off" if self.pruning is None else asdict(self.pruning),
        }
        return {"model": self.model, "hardware": asdict(self.hardware),
                "schedule": sched, "seed": self.seed, "tolerance": self.tolerance}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; ValueError naming a repeated key (RFC 8259 §4)."""
    if len(d := dict(pairs)) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"key {key!r} is repeated in the object with keys {sorted(d)}")
    return d


def load_config(path: str | None, args: argparse.Namespace,
                hw_overrides: dict) -> ExperimentConfig:
    raw: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f, object_pairs_hook=_unique_keys)
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path!r} is not valid JSON "
                              f"(line {e.lineno}, column {e.colno}): {e.msg}")
        except (RecursionError, ValueError) as e:   # too deep, not UTF-8, > 4,300 digits
            raise ConfigError(f"config {path!r} cannot be read as JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    check_keys("config", raw, ("model", "hardware", "schedule", "seed", "tolerance"))
    if not isinstance(raw.get("model", ""), str):
        check_keys("model", raw["model"], ("preset", "graph"))
        if len(raw["model"]) != 1:
            raise ConfigError("model: give exactly one of preset or graph")
    # fields not given keep their ExperimentConfig defaults; flags win over the file
    parts = {k: raw[k] for k in ("model", "seed", "tolerance") if k in raw}
    parts.update((k, getattr(args, k)) for k in ("model", "seed", "tolerance")
                 if getattr(args, k, None) is not None)
    parts["hardware"] = HardwareConfig.from_dict(raw.get("hardware", {}), hw_overrides)

    sched = raw.get("schedule", {})
    check_keys("schedule", sched, ("attention", "fusion", "pruning"))
    parts.update(sched)   # pruning, which the file spells "off" or an object, is read below
    attention = parts.get("attention", ExperimentConfig.attention)
    if not (attention in ("auto", "baseline") or isinstance(attention, dict) and all(
            r == "baseline" or isinstance(r, dict) for r in attention.values())):
        raise ConfigError("schedule.attention must be auto, baseline, or a map of attention "
                          f"layer to baseline or a tiling object, got {attention!r}")
    fusion = parts.get("fusion", ExperimentConfig.fusion)
    if not (fusion in ("auto", "singleton") or isinstance(fusion, dict) and all(
            isinstance(groups, list) for groups in fusion.values())):
        raise ConfigError("schedule.fusion must be auto, singleton, or a map of chain "
                          f'index to group lists ({{"0": [...]}}), got {fusion!r}')
    pruning = parts.pop("pruning", "off")
    if isinstance(pruning, dict):
        parts["pruning"] = fp.PruneConfig(**parse_fields("schedule.pruning", pruning,
                                                         fp.PruneConfig))
    elif pruning not in ("off", None):
        raise ConfigError(f"schedule.pruning must be 'off' or an object, got {pruning!r}")
    return ExperimentConfig(**parse_fields("config", parts, ExperimentConfig, ""))


def build_graph(model: str | dict) -> NetworkGraph:
    if isinstance(model, str):
        return build_preset(model)
    if "preset" in model:
        return build_preset(str(model["preset"]))
    return graph_from_dict(model["graph"])


# ---------------------------------------------------------------------------
# Experiment primitives
# ---------------------------------------------------------------------------

class Params(dict):
    """Read-only parameters by node id. A node's are drawn on its first read, once,
    by whichever thread reads it first; reading a drawn node takes no lock."""

    def __init__(self, graph: NetworkGraph, seed: int):
        self.nodes, self.seed = {n.id: (n, i) for i, n in enumerate(graph.nodes)}, seed
        self.lock = threading.Lock()

    def __missing__(self, node_id: str) -> dict[str, np.ndarray]:
        with self.lock:
            if node_id not in self:   # else drawn while this thread waited
                try:
                    p = node_params(*self.nodes[node_id], self.seed)
                except MemoryError as e:
                    raise ConfigError(f"{node_id}: out of memory drawing its parameters "
                                      f"({e})") from e
                for a in p.values():
                    a.flags.writeable = False
                self[node_id] = p
            return dict.__getitem__(self, node_id)


class Reference:
    """The reference run of one model and seed, shared by a command's rows. It keeps
    unit-boundary outputs (alike in every schedule) and, if pruning, the GELUs that
    ``pruning_points`` names; ``tables`` holds the rows' fusion cost tables
    (``pipeline.plan_network``; unused if ``release``) and ``last`` the (unpruned
    config, simulation) of the last row that ran its schedule."""

    def __init__(self, graph: NetworkGraph, seed: int, pruning: bool, release: bool = False):
        self.graph, self.seed, self.pruning, self.release = graph, seed, pruning, release
        self.outputs, self.error, self.worker, self.x, self.tables = {}, None, None, None, {}
        self.params, self.last = Params(graph, seed), (None, None)

    def start(self) -> None:
        """Draw the input ``x`` read-only (``params`` draws each node's on first read),
        then, on the first call, start the reference on its thread."""
        if self.worker is None:
            try:
                x = seeded_input(self.graph, self.seed)
            except MemoryError as e:
                raise ConfigError(f"input: out of memory drawing it ({e})") from e
            x.flags.writeable = False
            self.units = {nodes[-1].id: nodes for _, nodes in lf.split_into_segments(self.graph)}
            points = pruning_points(self.graph) if self.pruning else []
            keep = set(self.units) | {n.id for n, linear in points if linear is not None}
            self.x, self.stored = x, {k: threading.Event() for k in keep}
            self.worker = threading.Thread(target=self._run)
            shapes = (self.graph.input_shape, *self.graph.shapes.values())
            if max(s.elements for s in shapes) > SERIAL_MAX_ELEMENTS:
                self.worker.start()
            else:   # see SERIAL_MAX_ELEMENTS
                self.worker.run()   # on this thread, to the end

    def _run(self) -> None:
        try:
            reference_execute(self.graph, self.x, self.params, record=self)
        except BaseException as e:   # raised again by the reading thread
            self.error = e
        for stored in self.stored.values():   # a failed run stores nothing more
            stored.set()

    def __setitem__(self, node_id: str, out: np.ndarray) -> None:
        """Keeps ``out``, read-only, only if ``node_id`` is a unit boundary (or a pruned
        GELU); so no later layer can write into it."""
        if node_id in self.stored:
            out.flags.writeable = False
            self.outputs[node_id] = out
            self.stored[node_id].set()

    def __contains__(self, node_id: str) -> bool:   # a kept output is never donated
        return node_id in self.stored

    def __getitem__(self, node_id: str) -> np.ndarray:
        """Waits until ``node_id`` is stored; with ``release``, drops it and its unit's params."""
        self.stored[node_id].wait()
        if self.error is not None:
            raise self.error
        if self.release:   # the reference and the schedule are past this unit
            for unit_node in self.units[node_id]:
                del self.params[unit_node.id]
        return self.outputs.pop(node_id) if self.release else self.outputs[node_id]

    def join(self) -> dict[str, np.ndarray]:
        """Wait for the started reference; its outputs by node id, or its error."""
        if self.worker.is_alive():   # else it ended, or ran in ``start``
            self.worker.join()
        if self.error is not None:
            raise self.error
        return self.outputs


def simulate(cfg: ExperimentConfig, ref: Reference | None = None) -> dict:
    """One row of ``cfg``: ``ref.last`` if ``cfg`` differs from it only in pruning, else
    ``cfg`` planned and run (pruning aside), each unit checked against ``ref`` as soon as
    it is stored; then, if pruning, its ``pruning`` layers and ``adjusted_report``.
    A Reference made here drops each unit once checked, unless pruning."""
    ref = ref or Reference(build_graph(cfg.model), cfg.seed, cfg.pruning is not None,
                           release=cfg.pruning is None)
    if cfg.pruning is not None and not pruning_points(ref.graph):
        raise ConfigError("schedule.pruning sets thresholds, but the graph has no pruning "
                          "point (an attention, or a GELU read only by a linear)")
    unpruned = replace(cfg, pruning=None)
    if ref.last[0] != unpruned:
        schedule = pipeline.plan_network(ref.graph, cfg.hardware, cfg.attention, cfg.fusion,
                                         None if ref.release else ref.tables)
        ref.start()
        try:
            _, report, deviations = pipeline.run_schedule(
                schedule, ref.x, ref.params, cfg.hardware, cfg.seed, ref)
        finally:   # a reference error replaces the schedule's, as if the reference ran first
            ref.join()
        # the last unit's output is the network's (an empty graph outputs its input)
        ref.last = unpruned, {
            "schedule": schedule, "report": report, "unit_deviations": deviations,
            "deviation": deviations[-1][1] if deviations else 0.0}
    sim = dict(ref.last[1])
    if cfg.pruning is not None:
        layers = pruning_analysis(ref.graph, ref.join(), ref.x, ref.params, cfg.pruning)
        stats = fp.SparsityStats(**{k: sum(l[k] for l in layers)
                                    for k in ("skipped_macs", "elided_output_elems")})
        sim.update(pruning=layers, adjusted_report=fp.sparse_cost_adjust(
            sim["report"], stats, cfg.hardware))
    return sim


def run_experiment(cfg: ExperimentConfig, sim: dict) -> dict:
    """The ``run`` result of ``cfg`` from its row ``sim`` (``simulate(cfg)``)."""
    result = {
        "config": cfg.resolved_dict(),
        "report": asdict(sim["report"]),
        "schedule": {"units": [u.to_dict() for u in sim["schedule"]]},
        "max_abs_deviation": sim["deviation"],
        "equivalence_ok": sim["deviation"] <= cfg.tolerance,
    }
    if "pruning" in sim:
        result.update(pruning=sim["pruning"], adjusted_report=asdict(sim["adjusted_report"]))
    return result


def pruning_points(graph: NetworkGraph) -> list[tuple[LayerNode, Linear | None]]:
    """Each attention, with None, and each GELU read only by a linear, with that linear's
    op: the maps that pruning thresholds, in graph order."""
    ops, consumers, points = {n.id: n.op for n in graph.nodes}, graph.consumers(), []
    for node in graph.nodes:
        readers = [ops[c] for c in consumers[node.id]]
        if isinstance(node.op, Attention):
            points.append((node, None))
        elif isinstance(node.op, GELU) and len(readers) == 1 and isinstance(readers[0], Linear):
            points.append((node, readers[0]))
    return points


def pruning_analysis(graph: NetworkGraph, record: dict[str, np.ndarray],
                     x: np.ndarray, params: dict, cfg: fp.PruneConfig) -> list[dict]:
    """Layer-level pruning sweep points: attention maps and post-GELU maps.

    ``record`` holds the reference outputs of attention inputs and GELUs,
    ``x`` the network input. One record per point: its node, kind and stats."""
    layers = []
    for node, linear in pruning_points(graph):
        if linear is None:
            xin = record[node.preds[0]] if node.preds else x
            q, k, v = attention_operands(xin, node.op, params[node.id])
            _, stats = fp.pruned_attention_execute(q, k, v, cfg)
        else:
            t = record[node.id]
            tok = t.reshape(t.shape[0], -1).T
            _, stats = fp.prune_activation_map(tok, cfg.theta_act, cfg.granularity,
                                               linear.c_out)
        layers.append({"node": node.id, "point": "attention" if linear is None else "activation",
                       **asdict(stats)})
    return layers


def compare_experiments(cfg: ExperimentConfig, schedule_names: list[str]) -> tuple:
    for key in ("attention", "fusion", "pruning"):
        if getattr(cfg, key) != getattr(ExperimentConfig, key):
            raise ConfigError(f"compare runs named schedules: leave schedule.{key} unset")
    keys = ("ema_bytes", "cycles", "energy_pj")
    rows, sims, ref = [], [], Reference(build_graph(cfg.model), cfg.seed, False)
    for name in schedule_names:
        if name not in SCHEDULE_PRESETS:
            raise ConfigError(f"unknown schedule {name!r}; "
                              f"known: {sorted(SCHEDULE_PRESETS)}")
        attention, fusion = SCHEDULE_PRESETS[name]
        sims.append(simulate(replace(cfg, attention=attention, fusion=fusion), ref))
        rows.append({"schedule": name,
                     **{k: getattr(sims[-1]["report"], k) for k in keys},
                     "max_abs_deviation": sims[-1]["deviation"]})
    base = rows[0]
    for row in rows:
        for key in keys:
            row[f"{key}_norm"] = row[key] / base[key] if base[key] else 1.0
    return rows, sims


SWEEP_AXES = ("scratchpad_bytes", "theta_attn", "theta_act", "t_q")


def sweep_experiments(cfg: ExperimentConfig, axis: str, values: list) -> tuple:
    """(rows, simulations), a row per value, its config built just before it runs;
    consecutive rows that differ only in pruning share a schedule run (``simulate``)."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("sweep values must be a nonempty list")
    pruning = cfg.pruning is not None or axis in ("theta_attn", "theta_act")
    rows, sims, ref = [], [], Reference(build_graph(cfg.model), cfg.seed, pruning)
    for value in values:
        if axis == "t_q":
            sub = replace(cfg, attention=at.swept_tilings(cfg.attention, ref.graph, value))
        else:
            part = "hardware" if axis == "scratchpad_bytes" else "pruning"
            # the un-swept threshold stays off unless the config enables it
            base = getattr(cfg, part) or fp.PruneConfig(theta_attn=0.0, theta_act=0.0)
            sub = replace(cfg, **{part: replace(base, **parse_fields(
                "sweep", {axis: value}, type(base), ""))})
        sims.append(sim := simulate(sub, ref))
        report, layers = sim.get("adjusted_report", sim["report"]), sim.get("pruning")
        row = {"axis": axis, "value": value,
               **{k: getattr(report, k) for k in ("ema_bytes", "macs", "cycles", "energy_pj")},
               "max_abs_deviation": sim["deviation"]}
        if layers is not None:
            attn = [l for l in layers if l["point"] == "attention"]
            row["granularity"] = sub.pruning.granularity.value
            row["skipped_macs"] = sum(l["skipped_macs"] for l in layers)
            row["pruned_fraction"] = (sum(l["pruned_fraction"] for l in attn)
                                      / len(attn) if attn else 0.0)
            row["max_output_mse"] = max((l["output_mse"] for l in attn), default=0.0)
            row["min_output_cosine"] = min((l["output_cosine"] for l in attn), default=1.0)
        rows.append(row)
    return rows, sims


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def emit(data, fmt: str, out_path: str | None):
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    else:
        rows = data if isinstance(data, list) else [data]
        csv_fields = sorted({k for r in rows for k in r
                             if not isinstance(r[k], (dict, list))})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_fields, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _equivalence_exit(sims: list[dict], tolerance: float) -> int:
    """SelfCheckError's exit code, naming the first unit over ``tolerance`` on stderr,
    if any; else 0."""
    bad = [s for s in sims if not s["deviation"] <= tolerance]
    if not bad:
        return 0
    unit = next(u for u, d in bad[0]["unit_deviations"] if not d <= tolerance)
    print(f"equivalence failure: deviation {max(s['deviation'] for s in bad):.3e} > "
          f"{tolerance:.3e}; first unit over it: {unit}", file=sys.stderr)
    return SelfCheckError.exit_code


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # a usage error goes to main's handler: argparse would exit 2, "infeasible" here
    def error(self, message):
        raise ConfigError(message)


def make_parser() -> _Parser:
    p = _Parser(prog="convformer-sim",
                description="Schedule optimizer and cost simulator for hybrid "
                            "CNN-Transformer accelerator workloads")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.allow_abbrev = False   # else --hw.pe=1 would set hardware.pe_count
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--model", help="preset name (overrides config)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tolerance", type=float, default=None,
                        help="max-abs equivalence tolerance "
                             f"(default {ExperimentConfig.tolerance})")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        for f in fields(HardwareConfig):   # parsed with the config's hardware part
            sp.add_argument(f"--hw.{f.name}", default=argparse.SUPPRESS, metavar="VALUE",
                            help=f"overrides the config (default {f.default})")

    sp = sub.add_parser("run", help="run one experiment and emit its cost report")
    common(sp)
    sp = sub.add_parser("compare", help="run several schedules, emit a table")
    common(sp)
    sp.add_argument("--schedules", default="naive,full",
                    help=f"comma list from {sorted(SCHEDULE_PRESETS)}")
    sp = sub.add_parser("sweep", help="sweep one parameter axis")
    common(sp)
    sp.add_argument("--axis", required=True)
    sp.add_argument("--values", required=True,
                    help="comma-separated numeric values")
    sub.add_parser("presets", help="list embedded model presets")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.command == "presets":
            data = []
            for name in PRESETS:
                g = build_preset(name)
                data.append({"name": name, "layers": len(g.nodes),
                             "input_shape": list(astuple(g.input_shape))})
            emit(data, "json", None)
            return 0

        cfg = load_config(args.config, args, {k[3:]: v for k, v in vars(args).items()
                                              if k.startswith("hw.")})
        if args.command == "run":
            sims = [simulate(cfg)]
            data = run_experiment(cfg, sims[0])
            if args.format == "csv":
                report = data.get("adjusted_report", data["report"])
                data = {**{k: report[k] for k in CostReport.CSV_FIELDS},
                        "max_abs_deviation": data["max_abs_deviation"]}
        elif args.command == "compare":
            names = [s.strip() for s in args.schedules.split(",") if s.strip()]
            if len(names) < 2:
                raise ConfigError("compare needs at least 2 schedules")
            data, sims = compare_experiments(cfg, names)
        else:   # sweep: argparse admits no other command
            try:
                values = [float(v) if "." in v or "e" in v.lower() else int(v)
                          for v in args.values.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(f"sweep values must be numeric, got "
                                  f"{args.values!r}")
            data, sims = sweep_experiments(cfg, args.axis, values)
        emit(data, args.format, args.out)
        return _equivalence_exit(sims, cfg.tolerance)
    except SimError as e:
        message, half = f"{e.label}: {e}", 500   # a bad config value is echoed: cut its middle
        if len(message) > 2 * half:
            message = (f"{message[:half]} [... {len(message) - 2 * half} characters cut ...] "
                       f"{message[-half:]}")
        print(message, file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
