"""Span tracer that wraps spindbm's library functions from the outside.

The tracer replaces module and class attributes that the library's callers
resolve at call time (for example ``spindbm.training.local_search_joint``)
with timing wrappers, so the library source stays untouched. It draws no
random numbers and passes every argument and result through unchanged, so
a traced run computes the same outputs as an untraced one; the benchmark
checks that by comparing fingerprints.

A target whose attribute no longer exists (a refactor merged or renamed
it) is skipped and listed in ``absent``; it never stops a run.

Spans are kept in memory as columns (name, parent, start, end, item) and
written out once at the end. ``item`` numbers the unit of work a span
belongs to: a training step, an estimator draw or an inferred row.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import numpy as np

# (module, attribute path, span name). The span name's first component is
# the layer its self time is charged to. Targets live in the namespace the
# callers resolve them from, which for most is spindbm.training.
TARGETS = (
    ("spindbm.training", "train", "training.train"),
    ("spindbm.training", "train_step", "training.train_step"),
    ("spindbm.training", "unbiasedness_report", "training.unbiasedness_report"),
    ("spindbm.training", "positive_phase_estimate", "training.positive_phase_estimate"),
    ("spindbm.training", "negative_phase_estimate", "training.negative_phase_estimate"),
    ("spindbm.training", "sample", "training.sample"),
    ("spindbm.training", "complete", "training.complete"),
    ("spindbm.training", "AdamOptimizer.update", "training.optimizer_update"),
    ("spindbm.training", "SgdOptimizer.update", "training.optimizer_update"),
    ("spindbm.training", "save_params", "training.checkpoint"),
    ("spindbm.training", "local_search_joint", "search.local_search_joint"),
    ("spindbm.training", "local_search_posterior", "search.local_search_posterior"),
    ("spindbm.training", "local_search_clamped", "search.local_search_clamped"),
    ("spindbm.training", "gibbs_sweep_joint", "search.gibbs_sweep_joint"),
    ("spindbm.training", "gibbs_sweep_posterior", "search.gibbs_sweep_posterior"),
    ("spindbm.training", "mh_couple_joint", "coupling.mh_couple_joint"),
    ("spindbm.training", "mh_couple_posterior", "coupling.mh_couple_posterior"),
    ("spindbm.training", "mh_step", "coupling.mh_step"),
    ("spindbm.training", "telescope_estimate", "coupling.telescope_estimate"),
    ("spindbm.training", "grad_energy_vhh", "model.grad"),
    ("spindbm.training", "grad_energy_even_marginal", "model.grad"),
    ("spindbm.training", "grad_energy_odd_marginal", "model.grad"),
    ("spindbm.training", "grad_energy_odd_posterior", "model.grad"),
    ("spindbm.model", "GradEstimate.add_scaled", "model.add_scaled"),
    ("spindbm.oracle", "exact_grad_loglik", "oracle.exact_grad_loglik"),
    ("spindbm.data", "to_spin_dataset", "data.to_spin_dataset"),
)

LAYERS = ("model", "search", "coupling", "training", "oracle", "data")


def _search_iterations(args, result):
    return getattr(result, "steps", None)


def _coupling_time(args, result):
    tau = getattr(result, "tau", None)
    return None if tau is None else (tau, bool(getattr(result, "truncated", False)))


def _distinct_states(args, result):
    """Distinct chain states a telescoping sum visits (the grad_fn calls it needs)."""
    run = args[0] if args else None
    tau = getattr(run, "tau", None)
    if tau is None:
        return None
    if tau == 1:
        return 1
    try:
        states = list(run.x_states[:tau]) + list(run.y_states[:tau - 1])
        return len({s.concat().tobytes() for s in states})
    except (AttributeError, TypeError):
        return None


# Per span name: what to read off the call once it returns.
OBSERVERS = {
    "search.local_search_joint": _search_iterations,
    "search.local_search_posterior": _search_iterations,
    "search.local_search_clamped": _search_iterations,
    "coupling.mh_couple_joint": _coupling_time,
    "coupling.mh_couple_posterior": _coupling_time,
    "coupling.telescope_estimate": _distinct_states,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records nested spans around the TARGETS while installed."""

    def __init__(self, item_spans=()):
        self.item_spans = frozenset(item_spans)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_item: list[int] = []
        self.observed: dict[str, list] = {name: [] for name in OBSERVERS}
        self.item = -1
        self._stack: list[int] = []
        self._wrappers = []  # (owner, attr, original, wrapper)
        self.absent: list[str] = []
        for module_name, path, name in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._wrappers.append((owner, attr, original, self._wrap(original, name)))

    def _wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        observe = OBSERVERS.get(name)
        sink = self.observed.get(name)
        is_item = name in self.item_spans
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, items = self.span_start, self.span_end, self.span_item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_item:
                self.item += 1
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if observe is not None:
                value = observe(args, result)
                if value is not None:
                    sink.append(value)
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._wrappers):
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Span columns as numpy arrays (names index into ``names``)."""
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "start": np.asarray(self.span_start),
            "end": np.asarray(self.span_end),
            "item": np.asarray(self.span_item, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def self_time_by_layer(self, span_ids) -> dict:
        """Seconds of self time (span minus its direct children) per layer."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = dur.copy()
        parent = a["parent"]
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        per_layer = np.zeros(len(LAYERS))
        ids = np.asarray(span_ids, dtype=np.int64)
        np.add.at(per_layer, layer_of[a["name"][ids]], own[ids])
        return dict(zip(LAYERS, per_layer.tolist()))
