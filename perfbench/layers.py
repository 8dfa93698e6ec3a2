"""Per-layer tracing: wrap the public calls into each layer of ``repro``.

:class:`LayerTrace` patches the public entry points of the simulator,
feature, streaming, chaos, fleet-operations, ML and MLOps layers for the
duration of a ``with`` block and records one span per outermost call into
a :class:`repro.obs.Tracer`.  Calls nested under a span of the same layer
(a ``GradientTree.fit`` inside ``GbdtClassifier.fit``) are counted but get
no span of their own, so a layer's time is never counted twice.

Nothing under ``src/`` changes: every patch is undone when the block
exits, and untraced runs never enter one.
"""

from __future__ import annotations

from collections import defaultdict

from repro.chaos import quarantine as chaos_quarantine
from repro.features.bitlevel import BitLevelExtractor
from repro.features.pipeline import FeaturePipeline
from repro.features.spatial import SpatialExtractor
from repro.features.temporal import TemporalExtractor
from repro.fleetops import engine as fleet_engine
from repro.fleetops import stream as fleet_stream
from repro.fleetops.cost import CostModel
from repro.fleetops.policy import PolicyEngine
from repro.ml.gbdt import GbdtClassifier
from repro.ml.tree import GradientTree
from repro.mlops.serving import OnlinePredictionService
from repro.obs import Tracer
from repro.simulator import fleet as simulator_fleet
from repro.streaming import replay as streaming_replay
from repro.streaming.alarms import AlarmManager
from repro.streaming.incremental import IncrementalFeatureExtractor
from repro.streaming.kernels import ReplayKernel

#: Span names whose summed wall time is reported as ``<name>_s``.
TIMED_SPANS = (
    "simulator.simulate",
    "features.fit",
    "features.build_samples",
    "features.temporal",
    "features.spatial",
    "features.bitlevel",
    "streaming.kernel_build",
    "streaming.features_for",
    "streaming.incremental_serve",
    "streaming.alarms",
    "chaos.quarantine",
    "fleetops.merge",
    "fleetops.policy",
    "fleetops.settle",
    "ml.fit",
    "ml.predict",
    "mlops.ingest",
    "mlops.complete",
)


def _rows(result) -> int:
    return int(getattr(result, "shape", (len(result),))[0])


class LayerTrace:
    """Span recorder for one traced run; use as a context manager.

    ``model_classes`` are model classes the benchmark itself defines; their
    ``predict_proba`` is traced as ``ml.predict`` like the library's.
    """

    def __init__(self, model_classes=()):
        self.model_classes = tuple(model_classes)
        self.tracer = Tracer()
        self.counts: dict[str, float] = defaultdict(float)
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def _wrap(self, owner, attr: str, span: str, count=None) -> None:
        original = getattr(owner, attr)
        tracer, counts, active = self.tracer, self.counts, self._active

        def traced(*args, **kwargs):
            if active[span]:
                result = original(*args, **kwargs)
            else:
                active[span] += 1
                try:
                    with tracer.span(span):
                        result = original(*args, **kwargs)
                finally:
                    active[span] -= 1
            if count is not None:
                for name, amount in count(args, result).items():
                    counts[name] += amount
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def _install(self) -> None:
        wrap = self._wrap
        wrap(simulator_fleet, "simulate_fleet", "simulator.simulate",
             lambda a, r: {"simulator.ces": len(r.store.columns.ces)})
        wrap(FeaturePipeline, "fit", "features.fit")
        wrap(FeaturePipeline, "build_samples", "features.build_samples",
             lambda a, r: {"features.samples": len(r)})
        for cls, layer in (
            (TemporalExtractor, "temporal"),
            (SpatialExtractor, "spatial"),
            (BitLevelExtractor, "bitlevel"),
        ):
            wrap(cls, "compute_batch", f"features.{layer}",
                 lambda a, r, layer=layer: {
                     f"features.{layer}.calls": 1,
                     f"features.{layer}.rows": _rows(r),
                 })
        wrap(ReplayKernel, "__init__", "streaming.kernel_build")
        wrap(ReplayKernel, "features_for", "streaming.features_for",
             lambda a, r: {"streaming.features_for_rows": _rows(r)})
        wrap(IncrementalFeatureExtractor, "serve",
             "streaming.incremental_serve",
             lambda a, r: {"streaming.incremental_serve.calls": 1})
        for method in ("on_alarm", "on_ue"):
            wrap(AlarmManager, method, "streaming.alarms",
                 lambda a, r: {"streaming.alarm_calls": 1})
        # The engines import quarantine_columns by name, so patch it where
        # it is looked up.
        for module in (chaos_quarantine, streaming_replay, fleet_engine):
            wrap(module, "quarantine_columns", "chaos.quarantine",
                 lambda a, r: {"chaos.rejected": r[1].total})
        for module in (fleet_stream, fleet_engine):
            wrap(module, "merge_fleet_streams", "fleetops.merge")
        wrap(PolicyEngine, "on_incident", "fleetops.policy",
             lambda a, r: {"fleetops.actions": 1})
        for method in ("advance", "action_for_incident"):
            wrap(PolicyEngine, method, "fleetops.policy")
        wrap(CostModel, "settle", "fleetops.settle")
        wrap(GbdtClassifier, "fit", "ml.fit")
        wrap(GradientTree, "fit", "ml.fit",
             lambda a, r: {"ml.trees": 1})
        for model_cls in (GbdtClassifier, *self.model_classes):
            wrap(model_cls, "predict_proba", "ml.predict",
                 lambda a, r: {"ml.predict_calls": 1,
                               "ml.predict_rows": _rows(r)})
        wrap(OnlinePredictionService, "ingest", "mlops.ingest",
             lambda a, r: {"mlops.ingest_calls": 1})
        wrap(OnlinePredictionService, "complete", "mlops.complete")

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def seconds(self) -> dict[str, float]:
        """Summed wall seconds per span name, over the whole span tree."""
        totals: dict[str, float] = defaultdict(float)
        stack = list(self.tracer.roots)
        while stack:
            span = stack.pop()
            totals[span.name] += span.wall_seconds
            stack.extend(span.children)
        return totals

    def metrics(self) -> dict[str, float]:
        """Every layer metric: ``<span>_s`` times plus the call counts."""
        seconds = self.seconds()
        out = {f"{name}_s": seconds.get(name, 0.0) for name in TIMED_SPANS}
        out.update(self.counts)
        calls = self.counts.get("ml.predict_calls", 0)
        out["ml.rows_per_call"] = (
            self.counts.get("ml.predict_rows", 0) / calls if calls else 0.0
        )
        return out
