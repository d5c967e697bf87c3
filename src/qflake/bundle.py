"""Single-file model bundles: tokenizer profile, vocabulary, optional PCA,
trained model, decision threshold, and training metadata.

Bundles are canonical JSON (sorted keys, two-space indent, shortest
round-trip float decimals). Format 3 stores every array as one object
holding its shape and its bytes in base64 (``linalg.encode_array``):
little-endian float64 for the PCA mean, components and explained
variances, the knn training rows and the svm weights, and for the trees
of dt, rf and xgb models their flat node arrays (``tree.FlatTrees``),
int64 for node indices and features. Parsing tens of thousands of JSON
decimals, or one nested dict per tree node, cost most of a
``qflake predict``; decoding the same bytes costs a copy, and the tree
structure is checked with whole-array operations (see ``tree``). Every
array loads bit for bit as it was trained, and its bytes encode back to
the same string, so save -> load -> save is byte-stable, a retrain with
the same seed reproduces the file exactly, and a loaded bundle scores
exactly as the trained one. Formats 1 (arrays as nested lists) and 2
(trees as nested dicts) are refused with a request to retrain: the bundle
records the seed and corpus hash that reproduce it. The tokenizer must be
a known profile name, and the vocabulary distinct strings in sorted order,
as training writes them; bundles are read and written through ``jsonio``,
which refuses the NaN and Infinity literals. Creation
time is only recorded when SOURCE_DATE_EPOCH is set; a wall clock would
break byte-identical reruns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classifiers import model_from_dict, model_to_dict
from .corpus import Corpus
from .errors import QflakeError
from .eval import FittedPipeline, PipelineConfig, ThresholdCurve, fit_pipeline
from .jsonio import dumps, loads
from .linalg import PcaModel, decode_array, encode_array
from .text import Vocabulary, get_tokenizer_profile, tokenize

FORMAT_VERSION = 3


@dataclass
class ModelBundle:
    """A fitted pipeline with its tokenizer and training metadata."""

    tokenizer: str
    pipeline: FittedPipeline
    metadata: dict
    format_version: int = FORMAT_VERSION

    @property
    def threshold(self) -> float:
        return self.pipeline.threshold

    def to_dict(self) -> dict:
        p = self.pipeline
        pca = None
        if p.pca is not None:
            pca = {
                "mean": encode_array(p.pca.mean),
                "components": encode_array(p.pca.components),
                "explained_variance": encode_array(p.pca.explained_variance),
            }
        return {
            "format_version": self.format_version,
            "tokenizer": self.tokenizer,
            "vocabulary": list(p.vocabulary.ordered_tokens),
            "pca": pca,
            "model": model_to_dict(p.model),
            "threshold": float(p.threshold),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelBundle":
        version = d.get("format_version")
        if type(version) is int and 0 < version < FORMAT_VERSION:
            raise QflakeError(
                f"bundle format_version {version} predates format {FORMAT_VERSION}; "
                "retrain it with `qflake train`"
            )
        if version != FORMAT_VERSION:
            raise QflakeError(
                f"unsupported bundle format_version {version!r}; expected {FORMAT_VERSION}"
            )
        tokenizer = d["tokenizer"]
        if type(tokenizer) is not str:
            raise QflakeError(
                f"bundle tokenizer must be a profile name, got {tokenizer!r:.40}"
            )
        get_tokenizer_profile(tokenizer)
        tokens = d["vocabulary"]
        if not (
            isinstance(tokens, list)
            and all(type(t) is str for t in tokens)
            and tokens == sorted(tokens)
            and len(set(tokens)) == len(tokens)
        ):
            raise QflakeError(
                "bundle vocabulary must be a list of distinct strings in sorted order"
            )
        vocabulary = Vocabulary(ordered_tokens=tuple(tokens))
        width = len(vocabulary)
        pca = None
        if d.get("pca") is not None:
            p = d["pca"]
            pca = PcaModel(
                mean=decode_array(p["mean"], 1),
                components=decode_array(p["components"], 2),
                explained_variance=decode_array(p["explained_variance"], 1),
            )
            k = pca.n_components
            shapes = (pca.mean.shape, pca.components.shape, pca.explained_variance.shape)
            if shapes != ((width,), (k, width), (k,)):
                raise QflakeError(
                    f"pca mean, components and explained variances of shapes {shapes} "
                    f"do not fit a vocabulary of {width} tokens"
                )
            width = k
        model = model_from_dict(d["model"])
        if model.n_features != width:
            raise QflakeError(
                f"model takes {model.n_features} inputs, the bundle feeds it {width}"
            )
        threshold = d["threshold"]
        if type(threshold) not in (int, float) or not 0.0 <= threshold <= 1.0:
            raise QflakeError(f"threshold must be a number in [0, 1], got {threshold!r}")
        threshold = float(threshold)
        metadata = dict(d["metadata"])
        curve = metadata.get("threshold_curve")
        pipeline = FittedPipeline(
            vocabulary=vocabulary,
            pca=pca,
            model=model,
            threshold=threshold,
            curve=None if curve is None else ThresholdCurve(
                grid=tuple((t, f1) for t, f1 in curve), best_threshold=threshold
            ),
            pca_effective=metadata.get("pca_effective"),
            smote_synthetic=metadata.get("smote_synthetic", 0),
        )
        return cls(
            tokenizer=tokenizer,
            pipeline=pipeline,
            metadata=metadata,
            format_version=version,
        )

    def to_json(self) -> str:
        return dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ModelBundle":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise QflakeError(
                f"{path}: cannot read model bundle ({exc.strerror or exc})"
            ) from None
        # every check raises QflakeError, which is a ValueError, so it comes
        # first; JSON parsing recurses once per nesting level, so a deeply
        # nested file raises RecursionError
        try:
            return cls.from_dict(loads(text))
        except QflakeError as exc:
            raise QflakeError(f"{path}: {exc}") from None
        except (
            ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError
        ) as exc:
            raise QflakeError(
                f"{path}: not a valid model bundle ({type(exc).__name__}: {exc})"
            ) from None

    # ------------------------------------------------------------- scoring

    def score_texts(self, texts) -> np.ndarray:
        profile = get_tokenizer_profile(self.tokenizer)
        return self.pipeline.score([tokenize(t, profile) for t in texts])

    def predict_texts(self, texts):
        scores = self.score_texts(texts)
        labels = ["flaky" if s >= self.threshold else "nonflaky" for s in scores]
        return scores, labels


def _creation_stamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    return int(epoch) if epoch is not None else None


def train_bundle(corpus: Corpus, config: PipelineConfig, seed: int = 0) -> ModelBundle:
    """Train on the full corpus (no held-out fold) and package the result.

    Threshold tuning, when requested, scores a seeded stratified 20%
    subset of the corpus; the model itself always trains on every row.
    With no evaluation fold, ``tune_on_eval_fold`` does not apply.
    """
    profile = get_tokenizer_profile(config.tokenizer)
    docs = [tokenize(e.text, profile) for e in corpus]
    fitted = fit_pipeline(
        docs, corpus.labels(), replace(config, tune_on_eval_fold=False), seed, "full"
    )
    metadata = {
        "family": config.family,
        "profile": config.profile_name,
        "hyperparameters": dict(config.hyperparameters),
        "seed": seed,
        "corpus_hash": corpus.content_hash(),
        "class_counts": {k.value: v for k, v in corpus.class_counts.items()},
        "smote": config.smote,
        "smote_synthetic": fitted.smote_synthetic,
        "pca_requested": config.pca_components,
        "pca_effective": fitted.pca_effective,
        "threshold_mode": "tuned" if config.tune_threshold else "fixed",
        "threshold_curve": (
            None if fitted.curve is None else [[t, f1] for t, f1 in fitted.curve.grid]
        ),
        "created_at": _creation_stamp(),
    }
    return ModelBundle(tokenizer=config.tokenizer, pipeline=fitted, metadata=metadata)
