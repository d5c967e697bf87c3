import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflake.text import (
    TOKENIZER_PROFILES,
    fit_vocabulary,
    get_tokenizer_profile,
    tokenize,
    transform,
)

STRICT = get_tokenizer_profile("strict_code")


class TestTokenize:
    def test_single_char_tokens_dropped(self):
        assert tokenize("if x else y") == ["if", "else"]

    def test_lowercasing(self):
        assert tokenize("Qiskit qiskit") == ["qiskit", "qiskit"]

    def test_punctuation_splits_and_short_runs_drop(self):
        # "0", "5", "1" are separate runs of length 1; operators never tokens
        assert tokenize("delta_t=0.5; delta_t+=1") == ["delta_t", "delta_t"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_strict_profile_keeps_case_and_singletons(self):
        assert tokenize("Qiskit x", STRICT) == ["Qiskit", "x"]

    def test_underscore_is_a_word_character(self):
        assert tokenize("__init__ a_b") == ["__init__", "a_b"]


def word_runs_filtered(text, profile):
    """The token rule ``tokenize`` is checked against: every maximal run of
    word characters, then a length filter."""
    if profile.lowercase:
        text = text.lower()
    return [t for t in re.findall(r"\w+", text) if len(t) >= profile.min_token_len]


@settings(max_examples=300)
@given(
    text=st.text(
        # "İ" lowercases to two characters, the second no word character
        alphabet=st.sampled_from(list("aZz_09 .=\n\tİßéΣǅ٣\u0307")) | st.characters(),
        max_size=40,
    ),
    name=st.sampled_from(sorted(TOKENIZER_PROFILES)),
)
def test_tokens_equal_filtered_word_runs(text, name):
    profile = TOKENIZER_PROFILES[name]
    assert tokenize(text, profile) == word_runs_filtered(text, profile)


class TestVocabulary:
    def test_union_sorted(self):
        vocab = fit_vocabulary([["b", "a"], ["a", "c"]])
        assert vocab.ordered_tokens == ("a", "b", "c")

    def test_single_empty_doc(self):
        assert len(fit_vocabulary([[]])) == 0

    def test_deterministic(self):
        docs = [["q", "bit"], ["gate", "q"]]
        assert fit_vocabulary(docs) == fit_vocabulary(docs)

    def test_no_documents_rejected(self):
        with pytest.raises(ValueError):
            fit_vocabulary([])

    def test_column_order_independent_of_insertion_order(self):
        a = fit_vocabulary([["z", "a", "m"]])
        b = fit_vocabulary([["m"], ["z"], ["a"]])
        assert a.ordered_tokens == b.ordered_tokens


class TestTransform:
    def test_hand_counted_matrix(self):
        vocab = fit_vocabulary([["if", "else"]])
        m = transform([["if", "if", "else"], ["if"]], vocab)
        assert m.counts.tolist() == [[1, 2], [0, 1]]

    def test_empty_doc_rows_zero(self):
        vocab = fit_vocabulary([["a", "b"]])
        m = transform([[]], vocab)
        assert m.counts.tolist() == [[0, 0]]

    def test_out_of_vocabulary_ignored(self):
        vocab = fit_vocabulary([["a"]])
        m = transform([["zz", "yy"]], vocab)
        assert m.counts.tolist() == [[0]]


token_lists = st.lists(
    st.lists(st.text(alphabet="abcde_", min_size=1, max_size=6), max_size=12),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60)
@given(docs=token_lists)
def test_row_sums_equal_in_vocab_token_counts(docs):
    vocab = fit_vocabulary(docs)
    m = transform(docs, vocab)
    assert m.counts.sum(axis=1).tolist() == [len(d) for d in docs]


@settings(max_examples=40)
@given(docs=token_lists, seed=st.integers(min_value=0, max_value=999))
def test_permuting_documents_permutes_rows(docs, seed):
    vocab = fit_vocabulary(docs)
    m = transform(docs, vocab)
    perm = np.random.default_rng(seed).permutation(len(docs))
    m_perm = transform([docs[i] for i in perm], vocab)
    assert np.array_equal(m_perm.counts, m.counts[perm])


def per_token_counts(docs, vocab):
    """The per-token counting loop ``transform`` is checked against."""
    mapping = vocab.token_to_col
    counts = np.zeros((len(docs), len(vocab)), dtype=np.int64)
    for i, doc in enumerate(docs):
        for token in doc:
            j = mapping.get(token)
            if j is not None:
                counts[i, j] += 1
    return counts


@settings(max_examples=100)
@given(
    vocab_docs=token_lists,
    docs=st.lists(
        st.lists(st.text(alphabet="abcdefg_", min_size=1, max_size=3), max_size=15),
        max_size=8,
    ),
)
def test_counts_equal_per_token_loop(vocab_docs, docs):
    """Out-of-vocabulary tokens (letters f and g never enter the
    vocabulary), repeated tokens, empty documents and no documents at
    all count as the per-token loop counts them, in the same dtype."""
    vocab = fit_vocabulary(vocab_docs)
    m = transform(docs, vocab)
    expected = per_token_counts(docs, vocab)
    assert m.counts.dtype == expected.dtype
    assert m.counts.shape == expected.shape
    assert np.array_equal(m.counts, expected)
