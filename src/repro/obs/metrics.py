"""Process-wide metrics registry: counters, gauges, histograms with labels.

The storage, search and walkthrough layers mirror their accounting into a
:class:`MetricsRegistry` so experiments and benchmarks can observe *where*
simulated milliseconds and page I/Os go without passing stats objects
through every call site.  Instruments are cheap handle objects fetched
once at construction time (``reg.counter(name, **labels)``) and bumped on
the hot path with a plain attribute add, so instrumentation does not
distort the timings it reports.

Two access patterns are supported:

* **absolute** — ``registry.collect()`` returns every value keyed by a
  Prometheus-style ``name{label="value"}`` string;
* **delta** — ``snap = registry.snapshot(); ...; registry.delta(snap)``
  returns only what changed, which is how benchmarks assert on the I/O of
  a single operation against a long-lived shared environment.

A process-wide default registry (:func:`get_registry`) is what the
library instruments bind to; :func:`use_registry` swaps in a fresh one
for the duration of a profiling run so its counters start from zero.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ObservabilityError

#: Canonical label form: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: LabelKey) -> str:
    """``name{a="x",b="y"}`` — the JSON/report key of one series."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def _reset(self) -> None:
        self.value = 0.0

    def _values(self) -> Dict[str, float]:
        return {"": self.value}


class Gauge:
    """Value that can move both ways (resident bytes, pool occupancy)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0.0

    def _values(self) -> Dict[str, float]:
        return {"": self.value}


class Histogram:
    """Streaming summary of an observed distribution.

    Tracks count/sum/min/max — enough for the mean and range breakdowns
    the profile report prints, without storing samples.
    """

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def _values(self) -> Dict[str, float]:
        out = {"_count": float(self.count), "_sum": self.sum}
        if self.count:
            out["_min"] = self.min
            out["_max"] = self.max
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named, labelled instruments with snapshot/delta support.

    One metric *name* owns one instrument kind; each distinct label set
    under that name is an independent series.  Handles returned by
    :meth:`counter` / :meth:`gauge` / :meth:`histogram` stay valid across
    :meth:`reset` (values are zeroed, objects are kept), so hot paths can
    cache them once.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._kind_of: Dict[str, str] = {}

    # -- instrument access -------------------------------------------------

    def _instrument(self, kind: str, name: str,
                    labels: Dict[str, object]) -> Any:
        if not name:
            raise ObservabilityError("metric name must be non-empty")
        key = (name, _label_key(labels))
        existing_kind = self._kind_of.get(name)
        if existing_kind is not None and existing_kind != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {existing_kind}, not a {kind}")
        instrument = self._metrics.get(key)
        if instrument is None:
            instrument = _KINDS[kind]()
            self._metrics[key] = instrument
            self._kind_of[name] = kind
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._instrument("gauge", name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._instrument("histogram", name, labels)

    # -- reading -----------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """Current value of one counter/gauge series (0.0 if never used)."""
        key = (name, _label_key(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise ObservabilityError(
                f"{name!r} is a histogram; read .collect() instead")
        return instrument.value

    def series(self, name: str) -> Dict[LabelKey, object]:
        """All instruments registered under ``name``, keyed by labels."""
        return {labels: inst for (n, labels), inst in self._metrics.items()
                if n == name}

    def collect(self) -> Dict[str, float]:
        """Flat ``{formatted series name: value}`` view of everything."""
        out: Dict[str, float] = {}
        for (name, labels), instrument in sorted(self._metrics.items()):
            for suffix, value in instrument._values().items():
                out[format_series(name + suffix, labels)] = value
        return out

    def snapshot(self) -> Dict[str, float]:
        """A point-in-time copy of :meth:`collect` for later deltas."""
        return self.collect()

    def delta(self, since: Dict[str, float]) -> Dict[str, float]:
        """Changed series since ``since`` (new series count from zero).

        Histogram ``_min``/``_max`` series are not meaningful as
        differences and are omitted.
        """
        out: Dict[str, float] = {}
        for key, value in self.collect().items():
            if key.split("{", 1)[0].endswith(("_min", "_max")):
                continue
            diff = value - since.get(key, 0.0)
            if diff != 0.0:
                out[key] = diff
        return out

    def reset(self) -> None:
        """Zero every instrument, keeping cached handles valid."""
        for instrument in self._metrics.values():
            instrument._reset()

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return (f"MetricsRegistry(series={len(self._metrics)}, "
                f"names={len(self._kind_of)})")


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry library instruments bind to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one.

    Instruments created *before* the swap keep writing to the registry
    they were created against — swap before building the objects you
    want observed.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None
                 ) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry`; yields the active registry."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
