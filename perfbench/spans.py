"""Spans around calls into qflake's public functions, recorded from outside.

``Tracer.install`` wraps each traced function in every loaded ``qflake``
module that holds a reference to it, so a call is seen whichever module
makes it; ``uninstall`` puts the originals back. Each span records its
name, start, end and parent; spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children. Where a layer can repeat work, the span also records a digest
of its inputs, so the per-layer metrics can count distinct inputs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FAMILIES = ("xgb", "dt", "rf", "knn", "svm")
TREE_FAMILIES = ("xgb", "dt", "rf")
MODULES = ("text", "linalg", "resample", "classifiers", "eval", "experiment", "bundle", "cli")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _feed(h, value) -> None:
    """Feed a canonical byte form of a call argument into hash ``h``."""
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, str):
        h.update(b"s")
        h.update(value.encode("utf-8"))
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, str) for v in value):
            h.update(b"S")
            h.update("\x1f".join(value).encode("utf-8"))
        else:
            h.update(b"[")
            for v in value:
                _feed(h, v)
                h.update(b",")
            h.update(b"]")
    elif isinstance(value, dict):
        h.update(json.dumps(value, sort_keys=True, default=repr).encode("utf-8"))
    elif hasattr(value, "ordered_tokens"):  # text.Vocabulary
        _feed(h, value.ordered_tokens)
    else:
        h.update(repr(value).encode("utf-8"))
    h.update(b";")


def digest(*values) -> str:
    h = hashlib.blake2b(digest_size=16)
    for v in values:
        _feed(h, v)
    return h.hexdigest()


def count_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + count_nodes(node.left) + count_nodes(node.right)


def model_nodes(model) -> int:
    if hasattr(model, "root"):
        return count_nodes(model.root)
    return sum(count_nodes(t) for t in getattr(model, "trees", ()))


def _train_attrs(a, result):
    return {
        "family": a["family"],
        "key": digest(a["family"], a["X"], a["y"], a["hyperparameters"] or {}, a["seed"]),
        "nodes": model_nodes(result),
    }


def _score_attrs(a, result):
    return {"family": a["self"].family, "rows": int(len(result))}


def _output_bytes(a, result):
    return {"bytes": sum(p.stat().st_size for p in result.rglob("*") if p.is_file())}


# (module, attribute, span name, attrs(bound arguments, result) or None).
# An attribute "Class.method" traces a method on a class.
TARGETS = (
    ("qflake.text", "tokenize", "text.tokenize",
     lambda a, r: {"key": digest(a["text"], repr(a["profile"]))}),
    ("qflake.text", "fit_vocabulary", "text.fit_vocabulary", None),
    ("qflake.text", "transform", "text.transform",
     lambda a, r: {"key": digest(list(a["docs"]), a["vocab"]), "cells": int(r.counts.size)}),
    ("qflake.linalg", "pca_fit", "linalg.pca_fit",
     lambda a, r: {"key": digest(np.asarray(a["X"], dtype=np.float64)),
                   "bytes": int(np.asarray(a["X"]).nbytes)}),
    ("qflake.linalg", "pca_transform", "linalg.pca_transform", None),
    ("qflake.resample", "smote_resample", "resample.smote",
     lambda a, r: {"key": digest(a["X"], a["y"], a["k_neighbors"], a["seed"]),
                   "synthetic": r.n_synthetic}),
    ("qflake.classifiers", "train_model", "classifiers.train", _train_attrs),
    ("qflake.classifiers.boosting", "GradientBoostingModel.score", "classifiers.score",
     _score_attrs),
    ("qflake.classifiers.tree", "DecisionTreeModel.score", "classifiers.score",
     _score_attrs),
    ("qflake.classifiers.forest", "RandomForestModel.score", "classifiers.score",
     _score_attrs),
    ("qflake.classifiers.neighbors", "KnnModel.score", "classifiers.score",
     _score_attrs),
    ("qflake.classifiers.svm", "LinearSvmModel.score", "classifiers.score",
     _score_attrs),
    ("qflake.eval", "cross_validate", "eval.cross_validate", None),
    ("qflake.eval", "tune_threshold", "eval.tune_threshold", None),
    ("qflake.experiment", "run_paper_suite", "experiment.run_paper_suite", None),
    ("qflake.experiment", "write_results", "experiment.write_results", _output_bytes),
    ("qflake.bundle", "train_bundle", "bundle.train_bundle", None),
    ("qflake.bundle", "ModelBundle.save", "bundle.save",
     lambda a, r: {"bytes": Path(a["path"]).stat().st_size}),
    ("qflake.bundle", "ModelBundle.load", "bundle.load", None),
    ("qflake.bundle", "ModelBundle.score_texts", "bundle.score_texts",
     lambda a, r: {"rows": int(len(r))}),
    ("qflake.cli", "main", "cli.main", lambda a, r: {"command": (a["argv"] or ["?"])[0]}),
)


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.attrs_s = 0.0  # time spent computing span attributes

    def _wrap(self, fn, name, attrs_fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            if attrs_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(attrs_fn(bound.arguments, result))
                # digests are tracing cost: charge them to no layer
                cost = time.perf_counter() - span.end
                self.attrs_s += cost
                if span.parent is not None:
                    spans[span.parent].child_s += cost
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, attrs_fn in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls = getattr(module, attr.split(".")[0])
                method = attr.split(".")[1]
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, attrs_fn))
                else:
                    wrapped = self._wrap(raw, name, attrs_fn)
                self._patches.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, attrs_fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "qflake" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


def _ratio(keys) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from one traced pass."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name, **match):
        return [s for s in by_name.get(name, ()) if all(s.attrs.get(k) == v for k, v in match.items())]

    def total(ss, attr=None):
        return sum(s.attrs.get(attr, 0) for s in ss) if attr else sum(s.duration for s in ss)

    m: dict[str, tuple[float, str]] = {}
    for f in FAMILIES:
        train, score = group("classifiers.train", family=f), group("classifiers.score", family=f)
        m[f"classifiers.{f}.train_s"] = (total(train), "s")
        m[f"classifiers.{f}.train_calls"] = (len(train), "count")
        m[f"classifiers.{f}.score_s"] = (total(score), "s")
        m[f"classifiers.{f}.score_rows"] = (total(score, "rows"), "count")
        if f in TREE_FAMILIES:
            m[f"classifiers.{f}.nodes"] = (total(train, "nodes"), "count")
    m["classifiers.train_unique_ratio"] = (
        _ratio([s.attrs["key"] for s in group("classifiers.train")]), "ratio")

    fit, proj = group("linalg.pca_fit"), group("linalg.pca_transform")
    m["linalg.pca_fit_s"] = (total(fit), "s")
    m["linalg.pca_fit_calls"] = (len(fit), "count")
    m["linalg.pca_fit_input_bytes"] = (total(fit, "bytes"), "bytes")
    m["linalg.pca_fit_unique_ratio"] = (_ratio([s.attrs["key"] for s in fit]), "ratio")
    m["linalg.pca_transform_s"] = (total(proj), "s")
    m["linalg.pca_transform_calls"] = (len(proj), "count")

    tok, voc, tr = group("text.tokenize"), group("text.fit_vocabulary"), group("text.transform")
    m["text.tokenize_s"] = (total(tok), "s")
    m["text.tokenize_calls"] = (len(tok), "count")
    m["text.tokenize_unique_ratio"] = (_ratio([s.attrs["key"] for s in tok]), "ratio")
    m["text.fit_vocabulary_s"] = (total(voc), "s")
    m["text.fit_vocabulary_calls"] = (len(voc), "count")
    m["text.transform_s"] = (total(tr), "s")
    m["text.transform_calls"] = (len(tr), "count")
    m["text.transform_cells"] = (total(tr, "cells"), "count")
    m["text.transform_unique_ratio"] = (_ratio([s.attrs["key"] for s in tr]), "ratio")

    smote = group("resample.smote")
    m["resample.smote_s"] = (total(smote), "s")
    m["resample.smote_calls"] = (len(smote), "count")
    m["resample.synthetic_rows"] = (total(smote, "synthetic"), "count")
    m["resample.smote_unique_ratio"] = (_ratio([s.attrs["key"] for s in smote]), "ratio")

    cv, tune = group("eval.cross_validate"), group("eval.tune_threshold")
    m["eval.cross_validate_s"] = (total(cv), "s")
    m["eval.cross_validate_calls"] = (len(cv), "count")
    m["eval.cross_validate_self_s"] = (sum(s.self_s for s in cv), "s")
    m["eval.tune_threshold_s"] = (total(tune), "s")
    m["eval.tune_threshold_calls"] = (len(tune), "count")

    write = group("experiment.write_results")
    m["experiment.run_paper_suite_self_s"] = (
        sum(s.self_s for s in group("experiment.run_paper_suite")), "s")
    m["experiment.write_results_s"] = (total(write), "s")
    m["experiment.output_bytes"] = (total(write, "bytes"), "bytes")

    save, load, st = group("bundle.save"), group("bundle.load"), group("bundle.score_texts")
    m["bundle.train_bundle_s"] = (total(group("bundle.train_bundle")), "s")
    m["bundle.save_s"] = (total(save), "s")
    m["bundle.bytes"] = (total(save, "bytes"), "bytes")
    m["bundle.load_s"] = (total(load), "s")
    m["bundle.score_texts_s"] = (total(st), "s")
    m["bundle.score_texts_rows"] = (total(st, "rows"), "count")
    m["cli.predict_self_s"] = (sum(s.self_s for s in group("cli.main", command="predict")), "s")

    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(s.self_s for s in spans if s.name.split(".")[0] == module), "s")
    return m
