"""Single-file model bundles: tokenizer profile, vocabulary, optional PCA,
trained model, decision threshold, and training metadata.

A bundle file (format 4) is a JSON header, one NUL byte, and a data
section, as safetensors lays out tensors. The header is the bundle's
document as canonical JSON (sorted keys, two-space indent, shortest
round-trip float decimals), in which every array is an object holding its
shape and the offset of its bytes in the data section
(``{"float64le": 0, "shape": [50, 617]}``; see ``linalg.encode_array``):
little-endian float64 for the PCA mean, components and explained
variances, the knn training rows, the svm weights and tree thresholds and
values, int64 for tree node indices and features (``tree.FlatTrees``).
The data section holds every array's bytes back to back, in the order the
header lists them, and the header is padded with spaces so that the data
section starts on an 8-byte boundary: each array loads in place, aligned,
with no copy and no text to decode. Parsing JSON decimals, or base64 text
as format 3 stored arrays, cost most of a knn or svm ``qflake predict``.

Loading checks the layout: each array starts where the one before it
ended, the last one ends the file, and the header is strict UTF-8 JSON
(``jsonio``, which also refuses the NaN and Infinity literals). Every
array loads bit for bit as it was trained, so save -> load -> save is
byte-stable, a retrain with the same seed reproduces the file exactly,
and a loaded bundle scores exactly as the trained one. A file holds no
NUL byte outside its separator (JSON escapes it in strings), and one with
none is parsed whole as JSON: formats 1-3 (arrays as nested lists, trees
as nested dicts, arrays as base64 text) are refused with a request to
retrain, since the bundle records the seed and corpus hash that
reproduce it.

The model payload holds only what scoring reads; the hyperparameters and
seed are in the metadata, and model keys a payload does not read (such
as ``params``, ``seed`` or ``flags``) are ignored. The metadata records each pipeline setting once and is otherwise
free-form: loading reads only its threshold curve and SMOTE count. The
tokenizer must be a known profile name, and the vocabulary distinct
strings in sorted order, as training writes them. A save writes a
temporary file beside its path and renames it into place, so a failed
write leaves an earlier bundle whole. Creation time is only recorded when
SOURCE_DATE_EPOCH is set; a wall clock would break byte-identical reruns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import model_from_dict
from .corpus import Corpus
from .errors import QflakeError
from .eval import FittedPipeline, PipelineConfig, ThresholdCurve, fit_pipeline
from .jsonio import dumps, loads, shown
from .linalg import ARRAY_DTYPES, PcaModel, array_nbytes, decode_array, encode_array
from .text import Vocabulary, get_tokenizer_profile, tokenize

FORMAT_VERSION = 4


@dataclass
class ModelBundle:
    """A fitted pipeline with its tokenizer and training metadata."""

    tokenizer: str
    pipeline: FittedPipeline
    metadata: dict

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
            "format_version": FORMAT_VERSION,
            "tokenizer": self.tokenizer,
            "vocabulary": list(p.vocabulary.ordered_tokens),
            "pca": pca,
            "model": p.model.to_dict(),
            "threshold": float(p.threshold),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelBundle":
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
            smote_synthetic=metadata.get("smote_synthetic", 0),
        )
        return cls(tokenizer=tokenizer, pipeline=pipeline, metadata=metadata)

    def save(self, path) -> None:
        """Write the bundle file to a temporary file beside ``path``, then
        rename it into place: a failed write leaves ``path`` as it was."""
        path = Path(path)
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            temporary.write_bytes(pack(self.to_dict()))
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "ModelBundle":
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise QflakeError(
                f"{path}: cannot read model bundle ({exc.strerror or exc})"
            ) from None
        # every check raises QflakeError, which is a ValueError, so it comes
        # first; JSON parsing recurses once per nesting level, so a deeply
        # nested header raises RecursionError
        try:
            return cls.from_dict(unpack(raw))
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
        """Flaky-class scores. Stored numbers are finite, but a tampered
        bundle's can still overflow here, and that is bad input."""
        profile = get_tokenizer_profile(self.tokenizer)
        with np.errstate(all="ignore"):
            scores = self.pipeline.score([tokenize(t, profile) for t in texts])
        if not np.isfinite(scores).all():
            raise QflakeError(
                "model bundle gives NaN or infinite scores: its stored numbers overflow"
            )
        return scores


def pack(document: dict) -> bytes:
    """The bundle file of ``document``, whose arrays hold their bytes
    (``linalg.encode_array``): the canonical JSON header with each array's
    bytes replaced by their offset, spaces up to the NUL byte that ends
    the header, so the data section starts on an 8-byte boundary, then
    every array's bytes in the order the header lists them."""
    chunks = []

    def place(raw) -> int:
        # json's encoder meets each array's bytes as it writes the header
        if not isinstance(raw, (bytes, memoryview)):
            raise TypeError(f"cannot write {type(raw).__name__} into a bundle")
        offset = sum(map(len, chunks))
        chunks.append(raw)
        return offset

    header = dumps(document, default=place, indent=2, sort_keys=True).encode("utf-8")
    header += b" " * (-(len(header) + 1) % 8)
    raw = b"".join([header, b"\0", *chunks])
    # the encoder's closures form a reference cycle that holds ``place``;
    # let the array bytes go now, not at the next cyclic collection
    chunks.clear()
    return raw


def unpack(raw: bytes) -> dict:
    """The document of bundle file ``raw``, each array holding a read-only
    view of its bytes in place of their offset. Anything but a format-4
    file laid out as ``pack`` lays it out raises QflakeError; a file with
    no NUL byte is parsed whole as JSON, so an older bundle meets the
    format version check."""
    end = raw.find(b"\0")
    if end < 0:
        end = len(raw)
    # (array object, key) in the order the parser closes the objects, which
    # for array objects (they hold no object) is the order the header lists
    # them; ``collect`` does not refer to itself, so it makes no reference
    # cycle that would hold the file's bytes until a cyclic collection
    fields = []

    def collect(node: dict) -> dict:
        fields.extend((node, key) for key in ARRAY_DTYPES if key in node)
        return node

    document = loads(raw[:end], object_hook=collect)
    if not isinstance(document, dict):
        raise QflakeError(f"bundle header must be a JSON object, got {shown(document):.40}")
    version = document.get("format_version")
    if type(version) is int and 0 < version < FORMAT_VERSION:
        raise QflakeError(
            f"bundle format_version {version} predates format {FORMAT_VERSION}; "
            "retrain it with `qflake train`"
        )
    if version != FORMAT_VERSION:
        raise QflakeError(
            f"unsupported bundle format_version {shown(version)}; expected {FORMAT_VERSION}"
        )
    data = memoryview(raw)[end + 1:]
    if data and (end + 1) % 8:
        raise QflakeError(f"bundle data starts at byte {end + 1}, not on an 8-byte boundary")
    at = 0
    for node, key in fields:
        offset, nbytes = node[key], array_nbytes(node)
        if type(offset) is not int or offset != at:
            raise QflakeError(f"array {key} at offset {shown(offset)}, expected {at}")
        if nbytes > len(data) - at:
            raise QflakeError(
                f"array of shape {node['shape']} needs {nbytes} bytes, {len(data) - at} remain"
            )
        node[key] = data[at:at + nbytes]
        at += nbytes
    if at < len(data):
        raise QflakeError(f"bytes after the last array: {len(data) - at}")
    return document


def _creation_stamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    return int(epoch) if epoch is not None else None


def train_bundle(corpus: Corpus, config: PipelineConfig, seed: int = 0) -> ModelBundle:
    """Train on the full corpus (no held-out fold) and package the result.

    Threshold tuning, when requested, scores a seeded stratified 20%
    subset of the corpus; the model itself always trains on every row.
    """
    profile = get_tokenizer_profile(config.tokenizer)
    docs = [tokenize(e.text, profile) for e in corpus]
    fitted = fit_pipeline(docs, corpus.labels(), config, seed, "full")
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
        "threshold_mode": config.threshold_mode,
        "threshold_curve": (
            None if fitted.curve is None else [[t, f1] for t, f1 in fitted.curve.grid]
        ),
        "created_at": _creation_stamp(),
    }
    return ModelBundle(tokenizer=config.tokenizer, pipeline=fitted, metadata=metadata)
