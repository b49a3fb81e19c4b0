"""In-memory span tracing of taskaff's public functions.

A :class:`Tracer` wraps functions by rebinding their names in every taskaff
module that binds them, so calls between modules (``cli`` calling
``learners.train_subset`` through its own import, ``affinity`` calling
``estimate_affinity`` from ``convergence_trace``) are all seen. Each call
records one span ``(name, start, end, parent)``; spans stay in memory until
the run ends. A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

# Public functions traced per module, in the order metrics are reported.
LAYERS = {
    "graphs": ("load_edge_list", "load_features_csv", "diffuse_features",
               "personalized_pagerank", "ppr_group_similarity"),
    "tasks": ("load_communities", "make_splits", "save_task_set", "load_task_set"),
    "learners": ("train_subset", "fit_closed_form", "evaluate"),
    "affinity": ("sample_subsets", "collect_evaluations", "estimate_affinity",
                 "convergence_trace", "load_eval_log", "save_affinity",
                 "load_affinity"),
    "grouping": ("build_cluster_matrix", "spectral_cluster", "derive_groups",
                 "train_groups", "evaluate_grouping"),
    "transfer": ("build_examples", "fit_all", "evaluate_f1"),
    "planted": ("generate", "save_instance", "load_instance", "to_task_set",
                "theta_closed_form", "verify_block_structure"),
}

# CLI command handlers, traced as cli.<command>.
CLI_COMMANDS = {
    "cmd_generate": "generate", "cmd_split": "split", "cmd_affinity": "affinity",
    "cmd_cluster": "cluster", "cmd_evaluate": "evaluate",
    "cmd_predict_nt": "predict-nt", "cmd_verify_theory": "verify-theory",
    "cmd_ppr_sim": "ppr-sim",
}

# Percentiles tried, highest first, for the per-call tail of train_subset.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (clipped to the parent)."""
    children = [[] for _ in spans]
    for k, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(k)
    out = []
    for k, sp in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c].start, sp.start), min(spans[c].end, sp.end))
                             for c in children[k]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def tail_percentile(samples):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples above it, or the median when none qualifies."""
    n = len(samples)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND), 50.0)
    return pct, float(np.percentile(samples, pct))


class Tracer:
    """Records spans around wrapped functions and counters from their results."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {"nonmonotone_models": 0, "extra_draws": 0, "imputed_pairs": 0}
        self._stack = []
        self._saved = []  # (module, attribute, original) to restore

    def span(self, name, fn, observe=None):
        """Return fn wrapped so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # Counters read from public return values.
    def _on_train_subset(self, args, kwargs, model):
        if not model.monotone_loss:
            self.counters["nonmonotone_models"] += 1

    def _on_sample_subsets(self, args, kwargs, subsets):
        plan = args[0] if args else kwargs["plan"]
        self.counters["extra_draws"] += len(subsets) - plan.num_subsets

    def _on_save_affinity(self, args, kwargs, _):
        aff = args[0] if args else kwargs["aff"]
        self.counters["imputed_pairs"] = int(aff.imputed.sum())

    def install(self, package):
        """Rebind every traced function in every module of ``package`` that
        binds it (matched by identity, so re-exports are covered)."""
        import importlib

        mods = {name: importlib.import_module(f"{package}.{name}")
                for name in (*LAYERS, "cli")}
        observers = {"learners.train_subset": self._on_train_subset,
                     "affinity.sample_subsets": self._on_sample_subsets,
                     "affinity.save_affinity": self._on_save_affinity}
        targets = []
        for layer, names in LAYERS.items():
            for fname in names:
                targets.append((mods[layer], fname, f"{layer}.{fname}"))
        for fname, command in CLI_COMMANDS.items():
            targets.append((mods["cli"], fname, f"cli.{command}"))
        for home, fname, span_name in targets:
            original = getattr(home, fname)
            wrapped = self.span(span_name, original, observers.get(span_name))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def metrics(self):
        """Per-name total time of outermost spans, self time and call count,
        plus the per-call train_subset distribution and the counters."""
        selfs = self_times(self.spans)
        out = {}
        for k, sp in enumerate(self.spans):
            m = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            m["calls"] += 1
            m["self_s"] += selfs[k]
            if not self._has_ancestor_named(k, sp.name):
                m["s"] += sp.end - sp.start
        calls = [sp.end - sp.start for sp in self.spans
                 if sp.name == "learners.train_subset"] or [0.0]
        pct, tail = tail_percentile(calls)
        extra = {
            "learners.train_subset.call_p50_s": float(np.median(calls)),
            "learners.train_subset.call_tail_s": tail,
            "learners.train_subset.call_tail_pct": pct,
        }
        return out, extra, dict(self.counters)

    def _has_ancestor_named(self, k, name):
        p = self.spans[k].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False
