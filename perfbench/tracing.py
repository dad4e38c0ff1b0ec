"""Span tracing of utilcal's layers from outside the package.

The tracer replaces public functions with timing wrappers at the module
attributes the program calls through: the defining module and every utilcal
module that imported the name (``from .estimators import uc_hat`` in
``patching`` and ``ecdf``).  Calls between functions of one module go through
that module's globals, so they are traced too.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` restores every attribute, so jobs run between
an uninstall and the next install run the untouched program.

A span is ``[id, parent_id, job, name, start, end, info]``.  Spans stay in
memory until :meth:`Tracer.write`; :func:`layer_metrics` turns one run's spans
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

PACKAGE = "utilcal"
FAMILIES = ("top_class", "class_wise", "top_k", "dcg", "linear")


def _family(args, kwargs, result):
    return args[0].family


def _rows(args, kwargs, result):
    return int(args[0].shape[0])


def _blocks(args, kwargs, result):
    return (int(result[0].shape[0]), int(args[0].shape[0]))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# Home module -> {function name: info extractor or None}.  Private helpers are
# listed where a per-layer metric needs their boundary: ``_merge_ties`` gives
# the tie-merge blocks, ``_apply_record_rows`` is the masked patch step.
TARGETS = {
    "dataset": {
        "load_predictions_csv": _file_bytes,
        "load_labels_csv": _file_bytes,
        "validate": None,
        "write_predictions_csv": _file_bytes,
        "write_labels_csv": _file_bytes,
    },
    "utilities": {
        "sample_utility": None,
        "comb_pool": None,
        "dcg_pool": None,
    },
    "estimators": {
        "predicted_utility": _family,
        "realized_utility": _family,
        "payoff_matrix": None,
        "uc_hat": None,
        "_merge_ties": _blocks,
        "tce_binned": None,
        "cwe_binned": None,
        "brier_matrix": None,
        "evaluate_metrics": None,
    },
    "ecdf": {
        "ecdf_evaluate": None,
        "write_ecdf_csv": None,
        "write_ecdf_sidecar": None,
    },
    "patching": {
        "fit": None,
        "transform": None,
        "find_worst_witness": None,
        "_apply_record_rows": _rows,
        "project_simplex_rows": _rows,
    },
    "cli": {"main": None},
}


class Tracer:
    """Timing wrappers plus the spans they record while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool worker's first span was caused by whatever the main
            # thread has open (the ecdf sweep).
            cause = stack or tracer._main_stack
            parent = cause[-1][0] if cause else 0
            span = [next(tracer._ids), parent, tracer.job, name, 0.0, 0.0, None]
            stack.append(span)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at its home module and wherever it was imported."""
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in TARGETS}
        originals = {}
        self.missing = []
        for short, names in TARGETS.items():
            home = modules[short]
            for fname, info in names.items():
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.missing.append(f"{short}.{fname}")
                    continue
                originals[fn] = (f"{short}.{fname}", info)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                try:
                    target = originals.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if target is not None:
                    name, info = target
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(name, value, info))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        keys = ("id", "parent", "job", "name", "start", "end", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- per-layer metrics ------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _SpanIndex:
    def __init__(self, spans: list[list]) -> None:
        self.by_name: dict[str, list[list]] = defaultdict(list)
        self.children: dict[int, list[list]] = defaultdict(list)
        self.by_id: dict[int, list] = {}
        for span in spans:
            self.by_name[span[3]].append(span)
            self.children[span[1]].append(span)
            self.by_id[span[0]] = span

    def total(self, *names: str, where=None) -> float:
        return sum(
            s[5] - s[4]
            for name in names
            for s in self.by_name[name]
            if where is None or where(s)
        )

    def descendants(self, span: list):
        for child in self.children[span[0]]:
            yield child
            yield from self.descendants(child)

    def self_time(self, span: list, names=None) -> float:
        """Span duration minus what its descendants (optionally only those
        named in ``names``) cover."""
        inner = [
            (d[4], d[5])
            for d in self.descendants(span)
            if names is None or d[3] in names
        ]
        return span[5] - span[4] - _covered(inner, span[4], span[5])

    def under(self, ancestor_name: str):
        """Predicate: the span has an ancestor named ``ancestor_name``."""

        def test(span: list) -> bool:
            parent = self.by_id.get(span[1])
            while parent is not None:
                if parent[3] == ancestor_name:
                    return True
                parent = self.by_id.get(parent[1])
            return False

        return test


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[list], jobs: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``jobs`` traced jobs.  Times and
    counts are per job; ratios are means over the calls they describe.  A
    layer the workload never enters reads 0."""
    ix = _SpanIndex(spans)
    per_job = 1.0 / max(jobs, 1)
    m: dict[str, float] = {}

    for fam in FAMILIES:
        for kind in ("predicted", "realized"):
            m[f"estimators.{kind}_s.{fam}"] = per_job * ix.total(
                f"estimators.{kind}_utility", where=lambda s, f=fam: s[6] == f
            )
    m["estimators.payoff_s"] = per_job * ix.total("estimators.payoff_matrix")
    evaluators = {"estimators.predicted_utility", "estimators.realized_utility"}
    uc = ix.by_name["estimators.uc_hat"]
    m["estimators.uc_self_s"] = per_job * sum(ix.self_time(s, evaluators) for s in uc)
    m["estimators.uc_calls"] = per_job * len(uc)
    m["estimators.tie_merge_s"] = per_job * ix.total("estimators._merge_ties")
    m["estimators.distinct_v_ratio"] = _mean(
        [s[6][0] / s[6][1] for s in ix.by_name["estimators._merge_ties"]]
    )
    m["estimators.binned_s"] = per_job * ix.total(
        "estimators.tce_binned", "estimators.cwe_binned"
    )
    m["estimators.brier_s"] = per_job * ix.total("estimators.brier_matrix")

    sweeps = ix.by_name["ecdf.ecdf_evaluate"]
    sweep_wall = ix.total("ecdf.ecdf_evaluate")
    m["ecdf.sweep_self_s"] = per_job * sum(ix.self_time(s) for s in sweeps)
    in_sweep = ix.total("estimators.uc_hat", where=ix.under("ecdf.ecdf_evaluate"))
    m["ecdf.parallel_ratio"] = in_sweep / sweep_wall if sweep_wall > 0 else 0.0
    m["ecdf.write_s"] = per_job * ix.total("ecdf.write_ecdf_csv", "ecdf.write_ecdf_sidecar")
    m["utilities.sample_s"] = per_job * ix.total("utilities.sample_utility")

    in_fit = ix.under("patching.fit")
    steps = ix.by_name["patching._apply_record_rows"]
    m["patching.witness_s"] = per_job * ix.total("patching.find_worst_witness")
    m["patching.step_s"] = per_job * ix.total("patching._apply_record_rows", where=in_fit)
    m["patching.project_s"] = per_job * ix.total("patching.project_simplex_rows")
    m["patching.iterations"] = per_job * sum(1 for s in steps if in_fit(s))
    m["patching.masked_ratio"] = _mean(
        [
            sum(c[6] for c in ix.children[s[0]] if c[3] == "patching.project_simplex_rows")
            / s[6]
            for s in steps
        ]
    )
    m["patching.transform_s"] = per_job * ix.total("patching.transform")

    loads = ("dataset.load_predictions_csv", "dataset.load_labels_csv")
    writes = ("dataset.write_predictions_csv", "dataset.write_labels_csv")
    m["dataset.load_s"] = per_job * ix.total(*loads)
    m["dataset.validate_s"] = per_job * ix.total("dataset.validate")
    m["dataset.write_s"] = per_job * ix.total(*writes)
    m["dataset.io_mb"] = per_job * 1e-6 * sum(
        s[6] for name in loads + writes for s in ix.by_name[name]
    )
    m["cli.self_s"] = per_job * sum(ix.self_time(s) for s in ix.by_name["cli.main"])
    return m
