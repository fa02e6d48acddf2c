"""Spans and counters recorded around the calls into each layer of nonmarkov.

Nothing under ``src/`` is changed.  While a :class:`Tracer` is installed, the
names each calling module imported are rebound to timing wrappers:

* in ``nonmarkov.cli``: the config, dynamics, witnesses and measures functions
  the pipeline calls;
* ``nonmarkov.measures.series``: the witness series each measure search
  evaluates;
* ``nonmarkov.witnesses.ops``: every call from ``witnesses`` into
  ``operators``;
* ``nonmarkov.dynamics.generator_superoperator``: counted only, it is the RK45
  right-hand side of the numeric ``evolve``.

A span is ``[name, start, end, parent]``, kept in memory; the first part of a
name is the layer.  A layer's self time is its spans' time minus the time of
their direct children.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from nonmarkov import cli, dynamics, measures, witnesses

LAYERS = ("cli", "config", "dynamics", "witnesses", "operators", "measures")

# Spec class -> family name used in witness descriptors.
FAMILIES = {
    "ExtendedTraceNormWitness": "trace_norm_extended",
    "DualOperatorNormWitness": "dual_operator_norm",
    "PlainTraceNormWitness": "trace_norm_plain",
    "InformationFlowPair": "blp",
    "RelativeEntropyPair": "relative_entropy",
    "RenyiPair": "renyi",
    "TsallisPair": "tsallis",
    "FidelityPair": "fidelity",
}

SEARCHES = ("witness_measure", "blp_measure")
SEARCH_SERIES = "witnesses.series.search"

# Counters kept by the wrappers that are per-layer metrics as they stand.
COUNTERS = (
    "dynamics.evolve.generator_calls",
    "dynamics.save_trajectory.bytes",
    "dynamics.load_trajectory.bytes",
    "measures.step_choi_data.steps",
    "measures.step_choi_data.excluded",
)


class Tracer:
    """Spans and counters of the invocations run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.finished: list[tuple[int, list]] = []
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, after=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's
        arguments; ``after(args, result)`` runs once the span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            span = [label, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _add_size(self, key: str, path) -> None:
        self.counts[key] += os.path.getsize(path)

    def _after_steps(self, args, data) -> None:
        self.counts["measures.step_choi_data.steps"] += len(data.min_eigenvalues)
        self.counts["measures.step_choi_data.excluded"] += int(data.excluded.sum())

    def _after_search_series(self, args, ws) -> None:
        # Same test as total_violation > 0 (any positive node adds area),
        # without integrating the series a second time.
        if (ws.values > 0.0).any():
            self.counts[f"{self.parent_name()}.positive"] += 1

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        def family(traj, spec):
            kind = type(spec).__name__
            return f"witnesses.series.{FAMILIES.get(kind, kind)}"

        rebind = [
            (cli, "load_config", self.wrap("config.load_config", cli.load_config)),
            (cli, "evolve", self.wrap("dynamics.evolve", cli.evolve)),
            (cli, "save_trajectory", self.wrap(
                "dynamics.save_trajectory", cli.save_trajectory,
                lambda args, _: self._add_size("dynamics.save_trajectory.bytes", args[1]))),
            (cli, "load_trajectory", self.wrap(
                "dynamics.load_trajectory", cli.load_trajectory,
                lambda args, _: self._add_size("dynamics.load_trajectory.bytes", args[0]))),
            (cli, "witness_series", self.wrap(family, cli.witness_series)),
            (cli, "step_choi_data", self.wrap(
                "measures.step_choi_data", cli.step_choi_data, self._after_steps)),
            (cli, "divisibility_verdict", self.wrap(
                "measures.divisibility_verdict", cli.divisibility_verdict)),
            (cli, "rhp_rate", self.wrap("measures.rhp_rate", cli.rhp_rate)),
            (cli, "witness_measure", self.wrap("measures.witness_measure", cli.witness_measure)),
            (cli, "blp_measure", self.wrap("measures.blp_measure", cli.blp_measure)),
            (measures, "series", self.wrap(SEARCH_SERIES, measures.series,
                                           self._after_search_series)),
            (witnesses, "ops", _TracedModule(witnesses.ops, self)),
            (dynamics, "generator_superoperator", self.count(
                "dynamics.evolve.generator_calls", dynamics.generator_superoperator)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in rebind]
        try:
            for module, attr, value in rebind:
                setattr(module, attr, value)
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def finish(self, invocation: int) -> None:
        """Keep the invocation's spans for :meth:`write` and start the next one."""
        self.finished.append((invocation, self.spans))
        self.spans = []
        self.counts = Counter()

    def write(self, path: Path) -> None:
        """All finished spans as JSON lines: invocation, name, start, end, parent."""
        with open(path, "w") as fh:
            for invocation, spans in self.finished:
                for name, start, end, parent in spans:
                    fh.write(json.dumps([invocation, name, start, end, parent]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of one traced invocation (spans since the last finish)."""
        total = defaultdict(float)
        calls = Counter()
        child = [0.0] * len(self.spans)
        search_time = Counter()
        search_calls = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
            if name == SEARCH_SERIES and parent >= 0:
                owner = self.spans[parent][0]
                search_time[owner] += end - start
                search_calls[owner] += 1
        self_time = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_time[name.split(".")[0]] += end - start - covered

        out = {name: float(self.counts[name]) for name in COUNTERS}
        for name in ("config.load_config", "dynamics.evolve", "dynamics.save_trajectory",
                     "dynamics.load_trajectory", "measures.step_choi_data",
                     "measures.divisibility_verdict", "measures.rhp_rate", "cli.main"):
            out[f"{name}.ms"] = 1e3 * total[name]
        out["measures.rhp_rate.calls"] = float(calls["measures.rhp_rate"])
        cli_series = [f"witnesses.series.{family}" for family in FAMILIES.values()]
        for name in cli_series:
            out[f"{name}.ms"] = 1e3 * total[name]
        out["witnesses.series.calls"] = float(sum(calls[name] for name in cli_series))
        ops_names = [name for name in total if name.startswith("operators.")]
        out["operators.ms"] = 1e3 * sum(total[name] for name in ops_names)
        out["operators.calls"] = float(sum(calls[name] for name in ops_names))
        for search in SEARCHES:
            key = f"measures.{search}"
            n = search_calls[key]
            out[f"{key}.ms"] = 1e3 * total[key]
            out[f"{key}.series_calls"] = float(n)
            out[f"{key}.us_per_call"] = 1e6 * search_time[key] / n if n else 0.0
            out[f"{key}.positive_frac"] = self.counts[f"{key}.positive"] / n if n else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * self_time[layer]
        return out


class _TracedModule:
    """Stand-in for a module whose functions are traced as ``<module>.<function>``."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer
        self._wrapped: dict = {}
        self._layer = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if not callable(value) or isinstance(value, type):
            return value
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer.wrap(f"{self._layer}.{attr}", value)
        return self._wrapped[attr]


def median_invocation(samples: list[dict[str, float]]) -> dict[str, float]:
    """The per-layer numbers of the traced call with the median ``cli.main.ms``
    (the lower of the middle two), so that its self times add up to its total."""
    ranked = sorted(samples, key=lambda sample: sample["cli.main.ms"])
    return dict(ranked[(len(ranked) - 1) // 2])
