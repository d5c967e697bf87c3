"""Tokenization and bag-of-words document-term matrices.

Stop words are never removed: keywords such as ``if`` and ``else`` carry
syntactic signal in source code. Counts are raw term frequencies with no
weighting or normalization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import QflakeError


@dataclass(frozen=True)
class TokenizerProfile:
    """Token rule: word-character runs, optional lowercasing, length floor."""

    name: str
    lowercase: bool
    min_token_len: int

    @cached_property
    def pattern(self) -> re.Pattern:
        """Runs of at least ``min_token_len`` word characters. A maximal run
        that long matches whole from its first character and a shorter one
        matches nowhere, so this finds exactly the long enough runs of
        ``\\w+``."""
        return re.compile(rf"\w{{{self.min_token_len},}}")


# "default" mirrors common reference-vectorizer behavior; "strict_code"
# keeps case and single-character identifiers for code-sensitive setups.
TOKENIZER_PROFILES = {
    "default": TokenizerProfile("default", lowercase=True, min_token_len=2),
    "strict_code": TokenizerProfile("strict_code", lowercase=False, min_token_len=1),
}


def get_tokenizer_profile(name: str) -> TokenizerProfile:
    try:
        return TOKENIZER_PROFILES[name]
    except KeyError:
        raise QflakeError(
            f"unknown tokenizer profile {name!r}; "
            f"expected one of {sorted(TOKENIZER_PROFILES)}"
        ) from None


def tokenize(text: str, profile: TokenizerProfile | None = None) -> list[str]:
    """Split text into maximal runs of word characters (letters, digits,
    underscore), dropping runs shorter than the profile's floor.
    """
    if profile is None:
        profile = TOKENIZER_PROFILES["default"]
    if profile.lowercase:
        text = text.lower()
    return profile.pattern.findall(text)


@dataclass(frozen=True)
class Vocabulary:
    """Lexicographically ordered token-to-column mapping."""

    ordered_tokens: tuple[str, ...]

    @property
    def token_to_col(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.ordered_tokens)}

    def __len__(self) -> int:
        return len(self.ordered_tokens)


@dataclass(frozen=True)
class DocTermMatrix:
    """Dense document-term count matrix; rows follow the input doc order."""

    counts: np.ndarray  # (documents, vocabulary size) int64

    def __post_init__(self):
        self.counts.setflags(write=False)


def fit_vocabulary(docs) -> Vocabulary:
    """Union of all tokens across docs, sorted for a deterministic column order."""
    docs = list(docs)
    if not docs:
        raise ValueError("fit_vocabulary needs at least one document")
    tokens = set()
    for doc in docs:
        tokens.update(doc)
    return Vocabulary(ordered_tokens=tuple(sorted(tokens)))


def transform(docs, vocab: Vocabulary) -> DocTermMatrix:
    """Count in-vocabulary token occurrences per document.

    Tokens absent from the vocabulary are ignored, so documents seen only
    at evaluation time produce well-defined (possibly all-zero) rows.
    """
    docs = list(docs)
    mapping = vocab.token_to_col
    width = len(vocab)
    # one flat cell index per in-vocabulary occurrence, counted at once
    cells = [
        i * width + j
        for i, doc in enumerate(docs)
        for j in map(mapping.get, doc)
        if j is not None
    ]
    counts = np.bincount(
        np.array(cells, dtype=np.int64), minlength=len(docs) * width
    ).astype(np.int64, copy=False).reshape(len(docs), width)
    return DocTermMatrix(counts=counts)
