"""Labeled corpus loading, subsetting, and stratified fold assignment.

A corpus is a set of test source files, each labeled flaky or nonflaky,
described by a JSON Lines manifest. Entries are kept sorted by id so that
filesystem enumeration order can never change downstream results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import QflakeError
from .jsonio import dumps, loads
from .seeding import STREAM_FOLDS, STREAM_SUBSET, rng_for


class Label(Enum):
    FLAKY = "flaky"
    NONFLAKY = "nonflaky"


# fixed class iteration order for all per-class loops
CLASS_ORDER = (Label.FLAKY, Label.NONFLAKY)


@dataclass(frozen=True)
class CorpusEntry:
    """One labeled source file."""

    id: str
    path: str
    label: Label
    repo: str
    text: str


@dataclass(frozen=True)
class Corpus:
    """Immutable, id-sorted sequence of labeled entries."""

    entries: tuple[CorpusEntry, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda e: e.id))
        )
        seen = set()
        for e in self.entries:
            if e.id in seen:
                raise QflakeError(f"duplicate entry id: {e.id!r}")
            seen.add(e.id)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def class_counts(self) -> dict[Label, int]:
        counts = {label: 0 for label in CLASS_ORDER}
        for e in self.entries:
            counts[e.label] += 1
        return counts

    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    def labels(self) -> np.ndarray:
        """Label vector aligned with entry order: 1 = flaky, 0 = nonflaky."""
        return np.array(
            [1 if e.label is Label.FLAKY else 0 for e in self.entries], dtype=np.int8
        )

    def subset(self, ids) -> "Corpus":
        wanted = set(ids)
        return Corpus(tuple(e for e in self.entries if e.id in wanted))

    def content_hash(self) -> str:
        """SHA-256 over (id, label, text hash) of every entry, in id order."""
        h = hashlib.sha256()
        for e in self.entries:
            th = hashlib.sha256(e.text.encode("utf-8")).hexdigest()
            h.update(f"{e.id}\t{e.label.value}\t{th}\n".encode("utf-8"))
        return h.hexdigest()


@dataclass(frozen=True)
class FoldAssignment:
    """Maps every entry id to a fold index in [0, n_folds)."""

    n_folds: int
    assignment: dict[str, int] = field(compare=True)


def _decode(path: Path) -> str:
    """A file's UTF-8 text; unreadable or undecodable files raise."""
    try:
        data = path.read_bytes()
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise QflakeError(f"cannot read {path}: {reason}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise QflakeError(f"{path}: not valid UTF-8 ({exc})") from None


def _parse_record(line: str, base: Path, seen_ids: set) -> CorpusEntry:
    """One manifest line to an entry, or the QflakeError that rejects it."""
    try:
        record = loads(line)
    except (ValueError, RecursionError) as exc:
        raise QflakeError(f"invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise QflakeError(f"record must be a JSON object, got {type(record).__name__}")
    missing = [k for k in ("id", "path", "label") if k not in record]
    if missing:
        raise QflakeError(f"missing field(s) {missing}")
    entry_id = str(record["id"])
    if entry_id in seen_ids:
        raise QflakeError(f"duplicate id {entry_id!r}")
    seen_ids.add(entry_id)
    if record["label"] not in [label.value for label in CLASS_ORDER]:
        raise QflakeError(
            f"label must be 'flaky' or 'nonflaky', got {record['label']!r}"
        )
    if not isinstance(record["path"], str):
        raise QflakeError(f"path must be a string, got {record['path']!r}")
    file_path = base / record["path"]
    text = _decode(file_path)
    if not text:
        raise QflakeError(f"{file_path}: file is empty")
    return CorpusEntry(
        id=entry_id,
        path=str(file_path),
        label=Label(record["label"]),
        repo=str(record.get("repo", "unknown")),
        text=text,
    )


def parse_manifest(manifest_path):
    """Yield, for each non-blank line of a JSON Lines manifest, either its
    CorpusEntry or the QflakeError that rejects it, prefixed with
    ``path:line``.

    Each record is ``{"id": ..., "path": ..., "label": "flaky"|"nonflaky",
    "repo": ...}`` with ``path`` relative to the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    seen_ids: set[str] = set()
    for lineno, line in enumerate(_decode(manifest_path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield _parse_record(line, manifest_path.parent, seen_ids)
        except QflakeError as exc:
            yield type(exc)(f"{manifest_path}:{lineno}: {exc}")


def load_manifest(manifest_path) -> Corpus:
    """Load a JSON Lines manifest into a Corpus (see ``parse_manifest``).

    The first bad record raises: missing files, bad labels, duplicate ids,
    empty files, and non-UTF-8 files are all hard errors; silently
    skipping any of them would change class counts invisibly.
    """
    entries = []
    for item in parse_manifest(manifest_path):
        if isinstance(item, QflakeError):
            raise item
        entries.append(item)
    return Corpus(tuple(entries))


def scan_tree(root) -> list[dict]:
    """Scan ``<root>/flaky/**`` and ``<root>/nonflaky/**`` into manifest records.

    The id is the file's posix path relative to root; the repo is the first
    directory level under the class directory when present.
    """
    root = Path(root)
    records = []
    for label in CLASS_ORDER:
        class_dir = root / label.value
        if not class_dir.is_dir():
            continue
        for path in sorted(p for p in class_dir.rglob("*") if p.is_file()):
            rel = path.relative_to(root)
            parts = rel.parts
            repo = parts[1] if len(parts) >= 3 else "unknown"
            records.append(
                {
                    "id": rel.as_posix(),
                    "path": rel.as_posix(),
                    "label": label.value,
                    "repo": repo,
                }
            )
    return records


def write_manifest(records, manifest_path) -> None:
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [dumps(r, sort_keys=True) for r in records]
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class SubsetMode(Enum):
    BALANCED = "balanced"
    IMBALANCED = "imbalanced"
    ALL = "all"


def select_subset(corpus: Corpus, mode: SubsetMode, seed: int) -> Corpus:
    """Select the balanced (1:1) subset or pass the corpus through unchanged.

    Balanced keeps every minority entry and draws a seeded uniform sample
    (without replacement) of equal size from the majority class. The seed
    fully determines the subset; identical inputs give identical output.
    """
    counts = corpus.class_counts
    for label in CLASS_ORDER:
        if counts[label] == 0:
            raise QflakeError(f"corpus has no {label.value} entries")
    if mode in (SubsetMode.IMBALANCED, SubsetMode.ALL):
        return corpus

    minority, majority = sorted(CLASS_ORDER, key=lambda c: (counts[c], c.value))
    if counts[minority] == counts[majority]:
        return corpus
    majority_ids = sorted(e.id for e in corpus if e.label is majority)
    rng = rng_for(seed, STREAM_SUBSET)
    keep = rng.choice(len(majority_ids), size=counts[minority], replace=False)
    kept_majority = {majority_ids[i] for i in keep}
    selected = [
        e.id for e in corpus if e.label is minority or e.id in kept_majority
    ]
    return corpus.subset(selected)


def stratified_folds(corpus: Corpus, n_folds: int, seed: int) -> FoldAssignment:
    """Assign entries to folds, shuffling within each class then dealing
    round-robin so per-class fold sizes differ by at most one.
    """
    if n_folds < 2:
        raise QflakeError("n_folds must be at least 2")
    counts = corpus.class_counts
    for label in CLASS_ORDER:
        if counts[label] < n_folds:
            raise QflakeError(
                f"class {label.value} has {counts[label]} entries, "
                f"fewer than n_folds={n_folds}"
            )
    assignment: dict[str, int] = {}
    for class_idx, label in enumerate(CLASS_ORDER):
        ids = sorted(e.id for e in corpus if e.label is label)
        rng = rng_for(seed, STREAM_FOLDS, class_idx)
        order = rng.permutation(len(ids))
        for position, idx in enumerate(order):
            assignment[ids[idx]] = position % n_folds
    return FoldAssignment(n_folds=n_folds, assignment=assignment)
