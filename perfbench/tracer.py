"""Outside-in tracer: spans recorded around the public functions of each layer.

The tracer patches the public methods and module functions listed in
:data:`SPANS` with thin wrappers that record one span per call (name, start,
end, parent span, operation id) into memory.  Nothing in ``src/`` knows about
it: the wrappers are installed on the live classes and modules, and
:meth:`Tracer.uninstall` puts every original object back.  An untraced run
never constructs a :class:`Tracer`, so it installs no wrapper at all.

Self time of a span is its duration minus the time covered by its direct
child spans; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute marking a tracer wrapper (used to prove nothing is left behind).
WRAPPER_MARK = "__perfbench_span__"


@dataclass(frozen=True)
class SpanSpec:
    """One traced public function.

    Attributes:
        name: span name, or a ``{name}`` template filled with the ``name``
            attribute of the called ``repro.nn`` layer (``nn.{name}.forward``).
        module: module defining ``owner``.
        owner: class holding the method, or ``None`` for a module function.
        attr: method or function name.
        has_children: whether the span wraps other traced spans (its metrics
            then include ``total_ms`` next to ``self_ms``).
        layer_names: for layer templates, the layer names reported as
            metrics (other layers of the same class are traced but not
            reported).
    """

    name: str
    module: str
    owner: Optional[str]
    attr: str
    has_children: bool = False
    layer_names: Tuple[str, ...] = ()

    def metric_names(self) -> List[str]:
        if not self.layer_names:
            return [self.name]
        return [self.name.format(name=layer) for layer in self.layer_names]


def _nn(cls: str, attr: str, layers: Tuple[str, ...]) -> SpanSpec:
    return SpanSpec(f"nn.{{name}}.{attr}", "repro.nn.layers", cls, attr, layer_names=layers)


#: Every traced function, grouped by layer (see BENCHMARK.json for the
#: end-to-end metric each span is expected to move).
SPANS: Tuple[SpanSpec, ...] = (
    # repro.nn
    _nn("Conv2D", "forward", ("conv0", "conv_out")),
    _nn("Conv2D", "backward", ("conv0", "conv_out")),
    _nn("ReLU", "backward", ("relu0",)),
    _nn("Sigmoid", "backward", ("sigmoid_out",)),
    _nn("AveragePool2D", "forward", ("avg_pool",)),
    _nn("AveragePool2D", "backward", ("avg_pool",)),
    _nn("LSTM", "forward", ("lstm",)),
    _nn("LSTM", "backward", ("lstm",)),
    SpanSpec("nn.adam.step", "repro.nn.optim", "Adam", "step"),
    # repro.split
    SpanSpec("split.protocol.training_step", "repro.split.protocol",
             "SplitTrainingProtocol", "training_step", has_children=True),
    SpanSpec("split.protocol.predict", "repro.split.protocol",
             "SplitTrainingProtocol", "predict", has_children=True),
    SpanSpec("split.ue.forward", "repro.split.ue", "UEClient", "forward", has_children=True),
    SpanSpec("split.ue.backward", "repro.split.ue", "UEClient", "backward", has_children=True),
    SpanSpec("split.ue.apply_update", "repro.split.ue", "UEClient", "apply_update",
             has_children=True),
    SpanSpec("split.bs.loss_and_grad", "repro.split.bs", "BSServer",
             "compute_loss_and_gradients", has_children=True),
    SpanSpec("split.bs.apply_update", "repro.split.bs", "BSServer", "apply_update",
             has_children=True),
    SpanSpec("split.bs.predict", "repro.split.bs", "BSServer", "predict", has_children=True),
    SpanSpec("split.codec.encode_decode", "repro.split.codecs", "IdentityCodec",
             "encode_decode"),
    SpanSpec("split.codec.encode_decode", "repro.split.codecs", "UniformQuantizerCodec",
             "encode_decode"),
    SpanSpec("split.codec.encode_decode", "repro.split.codecs", "TopKCodec",
             "encode_decode"),
    SpanSpec("split.codec.encode_decode_stacked", "repro.split.codecs", None,
             "encode_decode_stacked"),
    # trainers and persistence
    SpanSpec("split.trainer.fit", "repro.split.trainer", "SplitTrainer", "fit",
             has_children=True),
    SpanSpec("split.trainer.evaluate", "repro.split.trainer", "NormalizedEvaluationMixin",
             "evaluate", has_children=True),
    SpanSpec("split.checkpoint.save", "repro.split.checkpoint", "Checkpoint", "save"),
    SpanSpec("split.checkpoint.load", "repro.split.checkpoint", "Checkpoint", "load"),
    SpanSpec("dataset.cache_load", "repro.dataset.cache", None, "load_dataset"),
    SpanSpec("dataset.cache_save", "repro.dataset.cache", None, "save_dataset"),
    SpanSpec("dataset.generate", "repro.dataset.generator", "MmWaveDepthDatasetGenerator",
             "generate"),
    SpanSpec("experiments.pipeline.train", "repro.experiments.pipeline",
             "ExperimentPipeline", "train", has_children=True),
    # repro.fleet
    SpanSpec("fleet.trainer.fit", "repro.fleet.trainer", "FleetTrainer", "fit",
             has_children=True),
    SpanSpec("fleet.bank.gather", "repro.fleet.bank", "StackedUEBank", "gather"),
    SpanSpec("fleet.bank.scatter", "repro.fleet.bank", "StackedUEBank", "scatter"),
    SpanSpec("fleet.bank.forward", "repro.fleet.bank", "StackedUEBank", "forward"),
    SpanSpec("fleet.bank.backward", "repro.fleet.bank", "StackedUEBank", "backward"),
    SpanSpec("fleet.bank.apply_updates", "repro.fleet.bank", "StackedUEBank",
             "apply_updates"),
    SpanSpec("fleet.schedule", "repro.fleet.scheduler", "MediumScheduler", "schedule"),
    SpanSpec("fleet.average", "repro.fleet.fleet", "UEFleet", "average_ue_weights"),
    # repro.channel
    SpanSpec("channel.arq.exchange", "repro.channel.arq", "ArqSession", "exchange",
             has_children=True),
    SpanSpec("channel.arq.transmit_uplink_across", "repro.channel.arq", None,
             "transmit_uplink_across"),
    SpanSpec("channel.arq.transmit_downlink_across", "repro.channel.arq", None,
             "transmit_downlink_across"),
    SpanSpec("channel.arq.record_exchange", "repro.channel.arq", "ArqSession",
             "record_exchange"),
)


def span_metric_names() -> List[Tuple[str, bool]]:
    """Reported span names, each with whether it reports ``total_ms``."""
    seen: Dict[str, bool] = {}
    for spec in SPANS:
        for name in spec.metric_names():
            seen[name] = seen.get(name, False) or spec.has_children
    return list(seen.items())


class Tracer:
    """Records spans around the :data:`SPANS` functions while installed.

    Spans are tuples ``(span_id, parent_id, op_id, name, start_ns, end_ns)``.
    ``hooks`` maps a span name to a callback ``(tracer, args, kwargs,
    result)`` run after the call returns, used to count work at the same
    boundary.
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None):
        self.spans: List[Tuple[int, Optional[int], int, str, int, int]] = []
        self.ops: List[str] = ["setup"]
        self.counters: Dict[str, float] = defaultdict(float)
        self._hooks = dict(hooks or {})
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- operations -----------------------------------------------------------------
    @property
    def op_id(self) -> int:
        return len(self.ops) - 1

    def begin_op(self, kind: str) -> None:
        """Start a new benchmark operation; later spans carry its id."""
        self.ops.append(kind)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return any(open_name == name for _, open_name in self._stack)

    # -- wrapping -------------------------------------------------------------------
    def _wrap(self, fn: Callable, spec: SpanSpec) -> Callable:
        tracer = self
        template = "{name}" in spec.name
        hook = self._hooks.get(spec.name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            name = spec.name.format(name=args[0].name) if template else spec.name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, tracer.op_id, name, start, end))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, spec.name)
        wrapper.__name__ = getattr(fn, "__name__", spec.attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch_method(self, spec: SpanSpec) -> None:
        cls = getattr(importlib.import_module(spec.module), spec.owner)
        had_own = spec.attr in cls.__dict__
        original = cls.__dict__[spec.attr] if had_own else getattr(cls, spec.attr)
        if isinstance(original, classmethod):
            patched = classmethod(self._wrap(original.__func__, spec))
        else:
            patched = self._wrap(original, spec)
        setattr(cls, spec.attr, patched)
        self._patches.append((cls, spec.attr, original, had_own))

    def _patch_function(self, spec: SpanSpec) -> None:
        original = getattr(importlib.import_module(spec.module), spec.attr)
        wrapper = self._wrap(original, spec)
        # Rebind every ``from module import fn`` copy too, so callers such as
        # repro.fleet.trainer reach the wrapper through their own globals.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original, True))

    def install(self) -> "Tracer":
        """Patch every :data:`SPANS` target; a second install without uninstall raises."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for spec in SPANS:
            if spec.owner is None:
                self._patch_function(spec)
            else:
                self._patch_method(spec)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_ms`` and ``self_ms``."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        for span_id, _, _, name, start, end in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[span_id]) / 1e6
        return dict(totals)

    def write(self, path: Path) -> Path:
        """Write every span (and the operation kinds) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"ops": self.ops}) + "\n")
            for span_id, parent, op_id, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
        return path


def installed_wrappers() -> List[str]:
    """Every ``repro`` module or class attribute that is a tracer wrapper."""
    found = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, WRAPPER_MARK):
                found.append(f"{module_name}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(getattr(member, "__func__", member), WRAPPER_MARK):
                        found.append(f"{module_name}.{key}.{attr}")
    return sorted(set(found))


# -- counts at the traced boundaries ---------------------------------------------------


def _count_exchange(tracer: Tracer, args, kwargs, step) -> None:
    counters = tracer.counters
    counters["exchanges"] += 1
    for direction, result in (("uplink", step.uplink), ("downlink", step.downlink)):
        if result is None:
            continue
        counters[f"{direction}s"] += 1
        counters[f"{direction}_slots"] += result.slots_used
        counters["first_attempt_successes"] += bool(result.first_attempt_success)
    # Single-UE steps are counted at training_step; fleet member steps here.
    if not tracer.inside("split.protocol.training_step"):
        counters["steps"] += 1
        counters["useful_steps"] += step.success


def _count_training_step(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["steps"] += 1
    tracer.counters["useful_steps"] += result.updated


def _stream(args, kwargs):
    return kwargs.get("stream", args[2] if len(args) > 2 else None)


def _count_encode(tracer: Tracer, args, kwargs, result) -> None:
    from repro.split.codecs import UPLINK_STREAM

    # The stacked codec's per-member fallback is counted by the stacked hook.
    if _stream(args, kwargs) == UPLINK_STREAM and not tracer.inside(
        "split.codec.encode_decode_stacked"
    ):
        tracer.counters["uplink_payloads"] += 1
        tracer.counters["uplink_bits"] += float(result[1])


def _count_encode_stacked(tracer: Tracer, args, kwargs, result) -> None:
    from repro.split.codecs import UPLINK_STREAM

    if _stream(args, kwargs) == UPLINK_STREAM:
        bits = result[1]
        tracer.counters["uplink_payloads"] += len(bits)
        tracer.counters["uplink_bits"] += float(sum(bits))


def _count_pipeline_train(tracer: Tracer, args, kwargs, trained) -> None:
    if tracer.ops[tracer.op_id] == "read":
        tracer.counters["replay_jobs"] += 1
        tracer.counters["replay_cache_hits"] += trained.cache_hit


COUNT_HOOKS: Dict[str, Callable] = {
    "channel.arq.record_exchange": _count_exchange,
    "split.protocol.training_step": _count_training_step,
    "split.codec.encode_decode": _count_encode,
    "split.codec.encode_decode_stacked": _count_encode_stacked,
    "experiments.pipeline.train": _count_pipeline_train,
}

#: Count metrics: name -> (unit, numerator counter, denominator counter).
COUNT_METRICS: Dict[str, Tuple[str, str, str]] = {
    "channel.uplink_slots": ("slots", "uplink_slots", "uplinks"),
    "channel.downlink_slots": ("slots", "downlink_slots", "downlinks"),
    "channel.first_attempt_success": ("ratio", "first_attempt_successes", "transmissions"),
    "split.useful_step_ratio": ("ratio", "useful_steps", "steps"),
    "split.codec.uplink_bits": ("bits", "uplink_bits", "uplink_payloads"),
    "experiments.model_cache_hit_ratio": ("ratio", "replay_cache_hits", "replay_jobs"),
}


def count_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Per-exchange, per-step and per-payload means of the traced counts.

    A count whose boundary was never crossed on a workload reads 0.
    """
    counters = dict(tracer.counters)
    counters["transmissions"] = counters.get("uplinks", 0) + counters.get("downlinks", 0)
    metrics = {}
    for name, (unit, numerator, denominator) in COUNT_METRICS.items():
        total = counters.get(denominator, 0)
        metrics[name] = (counters.get(numerator, 0) / total if total else 0.0, unit)
    return metrics
