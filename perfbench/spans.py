"""Outside-in tracing of the aag layers.

Each public function of a layer is replaced, where its caller looks it
up, by a wrapper that records a span [name, start, end, parent, run] in
memory and updates counters. Nothing inside ``src/`` knows about it.
``Tracer.restore`` puts every original object back; ``wrapped_names``
lists any wrapper still installed, so an untraced run can prove it runs
the program as shipped.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MARK = "_perfbench_span"
FIELDS = ("name", "start", "end", "parent", "run")


def _targets(aag):
    """(owner, attribute, span name, counter hook) for every traced call site."""
    cli, measures, grouping, ensemble = aag.cli, aag.measures, aag.grouping, aag.ensemble
    return [
        (cli, "load_csv", "preprocess.load_csv", None),
        (cli, "fit_preprocessor", "preprocess.fit", None),
        (cli, "apply_preprocessor", "preprocess.apply", _count_cells),
        (cli, "run_aag", "grouping.run_aag", _count_search),
        (cli, "fit_ensemble", "ensemble.fit_ensemble", None),
        (cli, "classify_table", "ensemble.classify_table", _count_evals),
        # the measures call one another through module globals
        (measures, "joint_entropy", "measures.joint_entropy", _count_entropy),
        (grouping, "normalized_measure", "measures.normalized_measure", None),
        (grouping, "total_correlation", "measures.total_correlation", None),
        (grouping.PairCache, "measure", "grouping.pair_cache", _count_pairs),
        (ensemble, "fit_detector", "ensemble.fit_detector", _count_detector),
        (ensemble, "classify", "ensemble.classify", None),
        (ensemble.EnsembleModel, "to_json", "ensemble.to_json", None),
        (ensemble.EnsembleModel, "from_json", "ensemble.from_json", None),
    ]


def _canon(attrs) -> tuple[int, ...]:
    return tuple(sorted({int(a) for a in attrs}))


def _count_cells(tracer, args, result):
    tracer.counters["preprocess.cells"] += result.n_rows * result.n_attrs


def _count_search(tracer, args, result):
    c = tracer.counters
    c["grouping.levels"] += len(result.levels)
    c["grouping.events"] += len(result.events)
    c["grouping.pruned_events"] += sum(e.kind.endswith("-pruned") for e in result.events)
    c["grouping.subspaces"] += len(result.subspaces)
    c["grouping.max_subspace_size"] = max(
        [c["grouping.max_subspace_size"]] + [len(s.attrs) for s in result.subspaces])


def _count_evals(tracer, args, result):
    model, table = args[0], args[1]
    tracer.counters["ensemble.rows"] += table.n_rows
    tracer.counters["ensemble.detector_evals"] += table.n_rows * len(model.detectors)


def _count_entropy(tracer, args, result):
    tracer.entropy_sets.add((id(args[0]), _canon(args[1])))


def _count_pairs(tracer, args, result):
    cache, a, b = args[0], _canon(args[2]), _canon(args[3])
    tracer.pair_keys.add((id(cache),) + ((a, b) if a <= b else (b, a)))


def _count_detector(tracer, args, result):
    c = tracer.counters
    cells = len(result.cell_mass)
    c["ensemble.cells"] += cells
    c["ensemble.accepted_cells"] += len(result.accepted_cells)
    c["ensemble.degenerate_detectors"] += cells > args[0].n_rows / 2


class Tracer:
    """Span recorder for one traced run; spans stay in memory until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.entropy_sets: set = set()
        self.pair_keys: set = set()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def install(self, aag) -> None:
        for owner, attr, name, hook in _targets(aag):
            original = vars(owner)[attr]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            wrapper = self._wrapper(fn, name, hook)
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            self._installed.append((owner, attr, original))

    def _wrapper(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counters[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, env: dict) -> None:
        doc = {"run": self.run_id, "env": env, "fields": list(FIELDS), "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def wrapped_names(aag) -> list[str]:
    """Span names of wrappers still installed on any traced call site."""
    found = []
    for owner, attr, _, _ in _targets(aag):
        obj = vars(owner)[attr]
        fn = obj.__func__ if isinstance(obj, classmethod) else obj
        if hasattr(fn, MARK):
            found.append(getattr(fn, MARK))
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for k in sorted(kids, key=lambda k: spans[k][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def totals(spans) -> tuple[Counter, Counter]:
    """Per span name: summed duration and summed self time."""
    total, own = Counter(), Counter()
    for span, s in zip(spans, self_times(spans)):
        total[span[0]] += span[2] - span[1]
        own[span[0]] += s
    return total, own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced train + score (see perfbench/README.md)."""
    total, own = totals(tracer.spans)
    c = tracer.counters
    entropy_calls = c["measures.joint_entropy.calls"]
    pair_calls = c["grouping.pair_cache.calls"]
    classify_s = total["ensemble.classify_table"]
    score_load_s = sum(s[2] - s[1] for s in tracer.spans
                       if s[0] == "preprocess.load_csv" and s[3] >= 0 and tracer.spans[s[3]][0] == "cli.score")
    return {
        "preprocess.load_csv_s": own["preprocess.load_csv"],
        "preprocess.load_csv.in_score_s": score_load_s,
        "preprocess.fit_s": own["preprocess.fit"],
        "preprocess.apply_s": own["preprocess.apply"],
        "preprocess.cells": c["preprocess.cells"],
        "measures.joint_entropy_s": own["measures.joint_entropy"],
        "measures.joint_entropy.calls": entropy_calls,
        "measures.joint_entropy.distinct_sets": len(tracer.entropy_sets),
        "measures.entropy_memo.hit_ratio":
            1.0 - len(tracer.entropy_sets) / entropy_calls if entropy_calls else 0.0,
        "measures.normalized_measure_s": own["measures.normalized_measure"],
        "measures.normalized_measure.calls": c["measures.normalized_measure.calls"],
        "measures.total_correlation_s": own["measures.total_correlation"],
        "measures.total_correlation.calls": c["measures.total_correlation.calls"],
        "grouping.run_aag_s": total["grouping.run_aag"],
        "grouping.self_s": own["grouping.run_aag"] + own["grouping.pair_cache"],
        "grouping.pair_cache.calls": pair_calls,
        "grouping.pair_cache.hit_ratio":
            1.0 - len(tracer.pair_keys) / pair_calls if pair_calls else 0.0,
        "grouping.levels": c["grouping.levels"],
        "grouping.events": c["grouping.events"],
        "grouping.pruned_events": c["grouping.pruned_events"],
        "grouping.subspaces": c["grouping.subspaces"],
        "grouping.max_subspace_size": c["grouping.max_subspace_size"],
        "ensemble.fit_ensemble_s": total["ensemble.fit_ensemble"],
        "ensemble.fit_detector_s": own["ensemble.fit_detector"],
        "ensemble.fit_detector.calls": c["ensemble.fit_detector.calls"],
        "ensemble.calibrate_s": own["ensemble.fit_ensemble"],
        "ensemble.to_json_s": total["ensemble.to_json"],
        "ensemble.detectors": c["ensemble.fit_detector.calls"],
        "ensemble.cells": c["ensemble.cells"],
        "ensemble.accepted_cells": c["ensemble.accepted_cells"],
        "ensemble.degenerate_detectors": c["ensemble.degenerate_detectors"],
        "ensemble.from_json_s": total["ensemble.from_json"],
        "ensemble.classify_table_s": classify_s,
        "ensemble.detector_evals": c["ensemble.detector_evals"],
        "ensemble.rows_per_s": c["ensemble.rows"] / classify_s if classify_s else 0.0,
        "cli.train_s": total["cli.train"],
        "cli.train.self_s": own["cli.train"],
        "cli.score_s": total["cli.score"],
        "cli.score.self_s": own["cli.score"],
        "trace.spans": len(tracer.spans),
    }
