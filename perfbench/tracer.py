"""In-memory span recorder, and the traced child that runs one dropsplit command.

As a script it runs one dropsplit command with the package's public functions
wrapped in spans:

    python3 perfbench/tracer.py SPANS_FILE OP_ID evaluate --config run.cfg --out out/

It imports dropsplit (PYTHONPATH must name the checkout's src/), wraps the
boundary functions of each module, runs ``dropsplit.cli.main`` on the remaining
arguments and, once the command has returned, writes its spans and counters to
SPANS_FILE. Nothing under src/ is changed; the wrappers replace module
attributes in this process only. The exit code is the command's.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before numpy and dropsplit are imported

import hashlib
import json
import math
import sys
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

# Layers of a traced command: the package modules it runs, plus "startup",
# the import of numpy and the package; "trace", bookkeeping the tracer itself
# does; and "process", the rest of the child's wall time as its parent sees it:
# interpreter start before the first span, and after the last span the spans
# file write and interpreter exit. Set-up adds the "synthgen" layer, traced in
# the benchmark process.
LAYERS = ("process", "startup", "cli", "records", "features", "splits", "classifiers", "evaluation", "trace")
SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Spans:
    """Spans kept in flat arrays: name id, start, end, parent index, op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = 0
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.fit_digests: set[str] = set()

    def open(self, name: str, start: float | None = None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(time.perf_counter() if start is None else start)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, start: float | None = None):
        i = self.open(name, start)
        try:
            yield
        finally:
            self.close(i)

    def inside(self, name: str) -> bool:
        return any(self.names[self.name[i]] == name for i in self.stack)

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def save(self, path) -> None:
        np.savez(
            path,
            names=json.dumps(self.names),
            counts=json.dumps(self.counts),
            fit_digests=json.dumps(sorted(self.fit_digests)),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )


def load(path) -> dict:
    """One saved span file: names, counts, fit_digests and the span arrays."""
    with np.load(path) as data:
        out = {key: json.loads(str(data[key])) for key in ("names", "counts", "fit_digests")}
        out.update({key: data[key] for key in SPAN_FIELDS})
    return out


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - children


# --- the traced child ---------------------------------------------------------


def _wrap(spans: Spans, fn, name, after=None, count=None):
    """Span around fn; `name` is a string or a function of the call's arguments.

    `count` is a counter bumped on every call, raising ones included; `after`
    sees the result of calls that return.
    """
    fixed = name if isinstance(name, str) else None

    @wraps(fn)
    def traced(*args, **kwargs):
        if count is not None:
            spans.add(count)
        i = spans.open(fixed or name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.close(i)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return traced


def _node_count(state) -> int:
    """Nodes in a tree (a list of nodes) or a forest (a list of trees)."""
    if isinstance(state, (list, tuple)):
        return sum(_node_count(item) if isinstance(item, (list, tuple)) else 1 for item in state)
    return 0


def _install(spans: Spans) -> list[str]:
    """Wrap the boundary functions of each dropsplit module; return hooks not found."""
    from dropsplit import classifiers, evaluation, features, records, splits

    missing: list[str] = []
    # Strong references keep ids unique while the model may still be used.
    knn_models: dict[int, tuple[object, int]] = {}

    def rebind(module, attr: str, name, after=None, count=None) -> None:
        """Replace every dropsplit module's binding of module.attr with a traced one."""
        orig = getattr(module, attr, None)
        if orig is None:
            missing.append(f"{module.__name__}.{attr}")
            return
        traced = _wrap(spans, orig, name, after, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("dropsplit"):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def after_ingest(result, *args, **kwargs) -> None:
        kept = sum(len(s.courses) for s in result.cohort.students)
        rows = kept + result.duplicate_rows + len(result.rejected_courses)
        spans.add("records.ingests")
        spans.add("records.course_rows", rows)
        spans.add("records.duplicate_rows", result.duplicate_rows)

    def split_name(c, request, *args, **kwargs) -> str:
        return f"splits.build_split.{request.approach.value}"

    def after_split(result, c, request, *args, **kwargs) -> None:
        train, test = result
        a = request.approach.value
        spans.add(f"splits.train_rows.{a}", train.n)
        spans.add(f"splits.test_rows.{a}", test.n)
        spans.add(f"splits.exclusions.{a}", len(train.meta.exclusions) + len(test.meta.exclusions))

    def fit_name(spec, train, *args, **kwargs) -> str:
        return f"classifiers.fit.{spec.kind}"

    def after_fit(model, spec, train, *args, **kwargs) -> None:
        spans.add(f"classifiers.fit_rows.{spec.kind}", train.n)
        spans.add("classifiers.fits")
        if spec.kind in ("decision_tree", "extra_trees"):
            spans.add(f"classifiers.tree_nodes.{spec.kind}", _node_count(model.state))
        if spec.kind == "knn":
            knn_models[id(model)] = (model, train.n)
        if spans.inside("evaluation.predict_enrolled"):
            spans.add("evaluation.final_train_rows", train.n)
        with spans.span("trace.fit_digest"):
            h = hashlib.sha256(repr(spec).encode())
            h.update(np.ascontiguousarray(train.X).tobytes())
            h.update(np.ascontiguousarray(train.y).tobytes())
            spans.fit_digests.add(h.hexdigest())

    def predict_name(model, X, *args, **kwargs) -> str:
        return f"classifiers.predict.{model.spec.kind}"

    def after_predict(labels, model, X, *args, **kwargs) -> None:
        spans.add(f"classifiers.predict_rows.{model.spec.kind}", len(X))
        if id(model) in knn_models:
            spans.add("classifiers.knn_distance_evals", knn_models[id(model)][1] * len(X))

    def after_grid(grid, *args, **kwargs) -> None:
        spans.add("evaluation.cells", len(grid.accuracy))
        spans.add("evaluation.cells_skipped", len(grid.skips))

    def lookup(method: str):
        orig = getattr(features.VectorCache, method, None)
        if orig is None:
            missing.append(f"dropsplit.features.VectorCache.{method}")
            return
        name = f"features.lookup.{method}"

        @wraps(orig)
        def traced(self, *args, **kwargs):
            builds = spans.counts.get("features.vector_builds", 0)
            i = spans.open(name)
            try:
                return orig(self, *args, **kwargs)
            finally:
                spans.close(i)
                spans.add("features.cache_lookups")
                if spans.counts.get("features.vector_builds", 0) == builds:
                    spans.add("features.cache_hits")

        setattr(features.VectorCache, method, traced)

    rebind(records, "ingest", "records.ingest", after_ingest)
    for attr in ("subset_exited_before", "subset_exited_from", "subset_enrolled"):
        rebind(records, attr, f"records.{attr}")
    for method in ("at_end", "at_last", "history", "as_of"):
        lookup(method)
    for attr in ("vector_at_end", "vector_at_last", "vector_as_of", "expand_history"):
        rebind(features, attr, f"features.build.{attr}", count="features.vector_builds")
    rebind(splits, "build_split", split_name, after_split)
    rebind(classifiers, "fit", fit_name, after_fit)
    rebind(classifiers, "predict", predict_name, after_predict)
    for attr in ("accuracy", "confusion"):
        rebind(classifiers, attr, f"classifiers.{attr}")
    rebind(evaluation, "run_grid", "evaluation.run_grid", after_grid)
    rebind(evaluation, "score_points", "evaluation.score_points")
    rebind(evaluation, "render_report", "evaluation.render_report")
    rebind(evaluation, "predict_enrolled", "evaluation.predict_enrolled")
    return missing


def main(argv: list[str]) -> int:
    spans_file, op_id, command = argv[0], int(argv[1]), argv[2:]
    spans = Spans()
    spans.op_id = op_id
    try:
        with spans.span("startup.import", start=_STARTED):
            import dropsplit.cli
        with spans.span("trace.install"):
            missing = _install(spans)
        with spans.span(f"cli.main.{command[0]}"):
            code = dropsplit.cli.main(command)
    finally:
        spans.save(spans_file)
    for hook in missing:
        print(f"perfbench tracer: no hook {hook}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
