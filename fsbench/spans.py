"""Spans around calls into famsplit's public functions, recorded from outside.

`Tracer.install` imports each famsplit module in dependency order and
replaces its public functions with timing wrappers before the next module
(and finally `famsplit.cli`) binds them with ``from ... import``. Calls made
inside a module go through its globals, so they are wrapped too. Spans stay
in memory; the worker turns them into per-layer totals after each unit and
writes the raw spans once, when the run ends.

This module imports nothing from famsplit at module level, so the parent
process can use `layer_metrics` without loading the program under test.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from pathlib import Path
from time import perf_counter

# Dependency order: each module is wrapped before any later one imports it.
MODULES = ("matrix", "search", "manifest", "evaluate", "stats", "ablation", "cli")

# Per-layer metrics and their units. Metrics in RUN_METRICS are per run (set-up
# and end of run); every other one is per traced unit.
LAYER_UNITS = {
    "matrix.load_s": "s", "matrix.load_mb": "MB", "matrix.save_s": "s", "matrix.save_mb": "MB",
    "matrix.synth_s": "s",
    "search.band_s": "s", "search.band_builds": "count", "search.band_entries": "count",
    "search.split_self_s": "s", "search.tier_s": "s", "search.splits": "count",
    "search.relaxations": "count", "search.draws_won": "count", "search.passes": "count",
    "search.pass_yield": "ratio", "search.draw_yield": "ratio",
    "evaluate.validate_s": "s", "evaluate.surrogate_calls": "count",
    "ablation.select_s": "s", "ablation.report_s": "s", "ablation.surrogate_calls": "count",
    "manifest.pool_load_s": "s", "manifest.pool_mb": "MB",
    "manifest.materialize_s": "s", "manifest.records": "count",
    "manifest.write_s": "s", "manifest.write_mb": "MB", "manifest.read_s": "s", "manifest.read_mb": "MB",
    "evaluate.predictions_load_s": "s", "evaluate.score_s": "s", "evaluate.records_scored": "count",
    "stats.wilcoxon_s": "s", "stats.wilcoxon_calls": "count",
    "cli.self_s": "s", "cli.out_mb": "MB",
    "trace.overhead_s": "s",
}
RUN_METRICS = ("manifest.pool_load_s", "manifest.pool_mb", "stats.wilcoxon_s", "stats.wilcoxon_calls")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(path) -> int:
    return os.stat(path).st_size


def _tree_size(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def _split_files_size(directory) -> int:
    return sum(_size(Path(directory) / n) for n in ("train.tsv", "test.tsv", "meta.json"))


def _bench_info(bench) -> list:
    s = bench.splits
    return [len(s), sum(x.relaxations for x in s), sum(x.attempts_total for x in s),
            sum(len(x.train_families) for x in s)]


# Counts taken from a call's arguments or result, after its end time is taken.
_INFO = {
    "matrix.load_matrix": lambda a, k, r: _size(_arg(a, k, 0, "path")),
    "matrix.save_matrix": lambda a, k, r: _size(_arg(a, k, 1, "path")),
    "search.candidate_pairs": lambda a, k, r: [_arg(a, k, 2, "eps_lo") < 0, len(r)],
    "search.generate_benchmark": lambda a, k, r: _bench_info(r),
    "manifest.load_pool": lambda a, k, r: _size(_arg(a, k, 0, "path")),
    "manifest.materialize_split": lambda a, k, r: len(r.train) + len(r.test),
    "manifest.write_split": lambda a, k, r: _split_files_size(_arg(a, k, 1, "directory")),
    "manifest.read_split": lambda a, k, r: _split_files_size(_arg(a, k, 0, "directory")),
    "evaluate.evaluate_predictions": lambda a, k, r: len(_arg(a, k, 0, "ms").test),
    "cli.cmd_pipeline": lambda a, k, r: _tree_size(_arg(a, k, 0, "args").out_dir),
}


# Span name -> the layer metric its time or byte count adds to.
TIME_OF = {
    "matrix.load_matrix": "matrix.load_s", "matrix.save_matrix": "matrix.save_s",
    "matrix.synth_matrix": "matrix.synth_s", "search.candidate_pairs": "search.band_s",
    "search.generate_benchmark": "search.tier_s", "evaluate.validate_benchmark": "evaluate.validate_s",
    "ablation.select_top_k": "ablation.select_s", "ablation.select_worst_k": "ablation.select_s",
    "ablation.ablation_report": "ablation.report_s", "manifest.load_pool": "manifest.pool_load_s",
    "manifest.materialize_split": "manifest.materialize_s", "manifest.write_split": "manifest.write_s",
    "manifest.read_split": "manifest.read_s", "evaluate.load_predictions": "evaluate.predictions_load_s",
    "evaluate.evaluate_predictions": "evaluate.score_s", "stats.wilcoxon_exact": "stats.wilcoxon_s",
}
BYTES_OF = {
    "matrix.load_matrix": "matrix.load_mb", "matrix.save_matrix": "matrix.save_mb",
    "manifest.load_pool": "manifest.pool_mb", "manifest.write_split": "manifest.write_mb",
    "manifest.read_split": "manifest.read_mb", "cli.cmd_pipeline": "cli.out_mb",
}


class Tracer:
    """Records [name, parent, start, end, info] spans while `on` is true."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.archive: list[tuple[str, list[list]]] = []

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for short in MODULES:
            module = importlib.import_module(f"famsplit.{short}")
            for attr, value in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    setattr(module, attr, self.wrap(f"{short}.{attr}", value))

    def take(self, phase: str) -> list[list]:
        """Hand over the spans recorded since the last call, archived under `phase`."""
        spans, self.spans = self.spans, []
        self.archive.append((phase, spans))
        return spans

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for phase, spans in self.archive:
                for i, (name, parent, start, end, info) in enumerate(spans):
                    fh.write(json.dumps({"phase": phase, "id": i, "parent": parent, "name": name,
                                         "start": start, "end": end, "info": info}) + "\n")


def totals(spans: list[list]) -> dict[str, float]:
    """Summed times and counts of one phase's spans, keyed by layer metric."""
    dur = [end - start for _, _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            child[span[1]] += dur[i]

    def ancestor(i: int, name: str) -> int:
        p = spans[i][1]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        return p

    t: dict[str, float] = {}

    def add(key: str, x: float) -> None:
        t[key] = t.get(key, 0.0) + x

    for i, (name, _, _, _, info) in enumerate(spans):
        if name in TIME_OF:
            add(TIME_OF[name], dur[i])
        if name.startswith("cli."):
            add("cli.self_s", dur[i] - child[i])
        if info is None and name in _INFO:
            continue  # the call raised, so its counts were never taken
        if name in BYTES_OF:
            add(BYTES_OF[name], info / 1e6)
        if name == "search.search_split":
            add("search.split_self_s", dur[i])
        elif name == "search.candidate_pairs":
            add("search.band_builds", 1)
            add("search.passes", 1 if info[0] else 0)
            add("search.band_entries", info[1])
            if ancestor(i, "search.search_split") >= 0:
                add("search.split_self_s", -dur[i])
        elif name == "search.generate_benchmark":
            for key, x in zip(("search.splits", "search.relaxations", "search.draws_won", "accepted_pairs"), info):
                add(key, x)
        elif name == "evaluate.surrogate_recall":
            if ancestor(i, "evaluate.validate_benchmark") >= 0:
                add("evaluate.surrogate_calls", 1)
            if ancestor(i, "ablation.ablation_report") >= 0:
                add("ablation.surrogate_calls", 1)
        elif name == "manifest.materialize_split":
            add("manifest.records", info)
        elif name == "evaluate.evaluate_predictions":
            add("evaluate.records_scored", info)
        elif name == "stats.wilcoxon_exact":
            add("stats.wilcoxon_calls", 1)
    return t


def layer_metrics(unit_totals: dict, n_units: int, run_totals: dict, overhead_s: float) -> dict:
    """Per-layer metrics: per traced unit, except RUN_METRICS (per run) and the ratios."""
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name in RUN_METRICS:
            value = run_totals.get(name, 0.0)
        else:
            value = unit_totals.get(name, 0.0) / n_units
        out[name] = {"value": value, "unit": unit}
    passes = unit_totals.get("search.passes", 0.0)
    draws = unit_totals.get("search.draws_won", 0.0)
    out["search.pass_yield"]["value"] = unit_totals.get("search.splits", 0.0) / passes if passes else 0.0
    out["search.draw_yield"]["value"] = unit_totals.get("accepted_pairs", 0.0) / draws if draws else 0.0
    out["trace.overhead_s"]["value"] = overhead_s
    return out
