"""Tokenization and bag-of-words document-term matrices.

Stop words are never removed: keywords such as ``if`` and ``else`` carry
syntactic signal in source code. Counts are raw term frequencies with no
weighting or normalization.

Both steps do their per-character and per-token work in C: ``tokenize``
with one ``str.translate`` and one ``str.split`` (or, for a text that is
not ASCII, one regular-expression scan), ``transform`` with one
``dict.get`` pass over all tokens and one ``bincount``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

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


# str.translate table: an ASCII word character stays, any other becomes a
# space. A word character is one for which ``ch.isalnum() or ch == "_"``
# holds, CPython's ``\w`` for ``str`` patterns (``SRE_UNI_IS_WORD``).
_ASCII_WORD_OR_SPACE = {
    code: code if chr(code).isalnum() or code == 95 else 32 for code in range(128)
}


def tokenize(text: str, profile: TokenizerProfile | None = None) -> list[str]:
    """Split text into maximal runs of word characters (letters, digits,
    underscore), dropping runs shorter than the profile's floor.

    An ASCII text, as nearly all source code is, takes the C fast path of
    ``str.translate``: every non-word character becomes a space, and
    ``str.split`` leaves exactly the maximal ``\\w+`` runs, since no word
    character is whitespace. Any other text is matched by the profile's
    pattern. A ``str.translate`` over it looks up each character in a dict
    and was about twice as slow as the pattern on files with a non-ASCII
    character in them; the tokens are the same either way.
    """
    if profile is None:
        profile = TOKENIZER_PROFILES["default"]
    if profile.lowercase:
        text = text.lower()
    if not text.isascii():
        return profile.pattern.findall(text)
    floor = profile.min_token_len
    return [t for t in text.translate(_ASCII_WORD_OR_SPACE).split() if len(t) >= floor]


@dataclass(frozen=True)
class Vocabulary:
    """Lexicographically ordered token-to-column mapping."""

    ordered_tokens: tuple[str, ...]

    @cached_property
    def token_to_col(self) -> dict[str, int]:
        """Column of each token, built once per vocabulary."""
        return dict(zip(self.ordered_tokens, range(len(self.ordered_tokens))))

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
    n, width = len(docs), len(vocab)
    lengths = np.fromiter(map(len, docs), np.int64, n)
    # every token's column in document order, -1 out of vocabulary
    cols = np.fromiter(
        map(vocab.token_to_col.get, chain.from_iterable(docs), repeat(-1)),
        np.int64,
        int(lengths.sum()),
    )
    cells = np.repeat(np.arange(n, dtype=np.int64) * width, lengths) + cols
    counts = np.bincount(cells[cols >= 0], minlength=n * width)
    return DocTermMatrix(counts=counts.astype(np.int64, copy=False).reshape(n, width))
