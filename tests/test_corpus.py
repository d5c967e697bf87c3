import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflake.corpus import (
    Corpus,
    CorpusEntry,
    Label,
    SubsetMode,
    load_manifest,
    parse_manifest,
    scan_tree,
    select_subset,
    stratified_folds,
    write_manifest,
)
from qflake.errors import QflakeError

from conftest import write_jsonl


def make_corpus(n_flaky, n_nonflaky):
    entries = []
    for i in range(n_flaky):
        entries.append(
            CorpusEntry(f"f{i:03d}", f"f{i}.py", Label.FLAKY, "repo", f"flaky {i}")
        )
    for i in range(n_nonflaky):
        entries.append(
            CorpusEntry(f"n{i:03d}", f"n{i}.py", Label.NONFLAKY, "repo", f"plain {i}")
        )
    return Corpus(tuple(entries))


def write_corpus_files(tmp_path, records):
    for rec in records:
        p = tmp_path / rec["path"]
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(rec.pop("_text", f"content of {rec['id']}\n"), encoding="utf-8")
    return write_jsonl(tmp_path / "manifest.jsonl", records)


def simple_records(n_flaky, n_nonflaky):
    recs = []
    for i in range(n_flaky):
        recs.append(
            {"id": f"f{i}", "path": f"flaky_{i}.py", "label": "flaky", "repo": "r"}
        )
    for i in range(n_nonflaky):
        recs.append(
            {"id": f"n{i}", "path": f"plain_{i}.py", "label": "nonflaky", "repo": "r"}
        )
    return recs


class TestLoadManifest:
    def test_counts(self, tmp_path):
        manifest = write_corpus_files(tmp_path, simple_records(2, 3))
        corpus = load_manifest(manifest)
        assert corpus.class_counts == {Label.FLAKY: 2, Label.NONFLAKY: 3}

    def test_entries_sorted_by_id_regardless_of_manifest_order(self, tmp_path):
        recs = simple_records(2, 2)
        manifest = write_corpus_files(tmp_path, list(reversed(recs)))
        corpus = load_manifest(manifest)
        ids = corpus.ids()
        assert ids == sorted(ids)

    def test_bad_label(self, tmp_path):
        recs = simple_records(1, 1)
        recs[0]["label"] = "maybe"
        manifest = write_corpus_files(tmp_path, recs)
        with pytest.raises(QflakeError, match="label must be 'flaky' or 'nonflaky', got 'maybe'"):
            load_manifest(manifest)

    def test_missing_file(self, tmp_path):
        manifest = write_corpus_files(tmp_path, simple_records(1, 1))
        extra = {"id": "x", "path": "gone.py", "label": "flaky", "repo": "r"}
        with manifest.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(extra) + "\n")
        with pytest.raises(QflakeError, match="cannot read .*gone.py: No such file"):
            load_manifest(manifest)

    def test_duplicate_id(self, tmp_path):
        recs = simple_records(1, 1)
        recs[1]["id"] = recs[0]["id"]
        manifest = write_corpus_files(tmp_path, recs)
        with pytest.raises(QflakeError, match="manifest.jsonl:2: duplicate id 'f0'"):
            load_manifest(manifest)

    def test_empty_file(self, tmp_path):
        recs = simple_records(1, 1)
        recs[0]["_text"] = ""
        manifest = write_corpus_files(tmp_path, recs)
        with pytest.raises(QflakeError, match="flaky_0.py: file is empty"):
            load_manifest(manifest)

    def test_non_utf8_file(self, tmp_path):
        recs = simple_records(1, 1)
        manifest = write_corpus_files(tmp_path, recs)
        (tmp_path / "flaky_0.py").write_bytes(b"\xff\xfe broken")
        with pytest.raises(QflakeError, match="flaky_0.py: not valid UTF-8"):
            load_manifest(manifest)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "x", "path": "flaky_0.py", "repo": "r"}', "missing field(s) ['label']"),
            ('["x", "flaky_0.py", "flaky"]', "record must be a JSON object, got list"),
            ('{"id": "x", "path": ', "invalid JSON (Expecting value"),
            ('{"id": "x", "path": 3, "label": "flaky"}', "path must be a string, got 3"),
            ('{"id": NaN, "path": "flaky_0.py", "label": "flaky"}',
             "invalid JSON (NaN is not a JSON number)"),
        ],
        ids=["missing-label", "array", "invalid-json", "non-string-path", "nan-literal"],
    )
    def test_malformed_record(self, tmp_path, line, message):
        manifest = write_corpus_files(tmp_path, simple_records(1, 1))
        with manifest.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(QflakeError, match=r"manifest\.jsonl:3: " + re.escape(message)):
            load_manifest(manifest)

    def test_full_corpus_counts(self, corpus288):
        assert corpus288.class_counts == {Label.FLAKY: 45, Label.NONFLAKY: 243}

    def test_issue_collector_reports_every_problem(self, tmp_path):
        recs = simple_records(1, 1)
        recs[0]["label"] = "maybe"
        recs[1]["id"] = recs[0]["id"]
        manifest = write_corpus_files(tmp_path, recs)
        items = list(parse_manifest(manifest))
        assert [type(i) for i in items] == [QflakeError, QflakeError]
        assert str(items[0]).startswith(f"{manifest}:1: label must be 'flaky' or 'nonflaky'")
        assert str(items[1]).startswith(f"{manifest}:2: duplicate id ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
FIELD_VALUES = st.sampled_from(
    ["ok.py", "gone.py", "empty.py", "latin1.py", "", ".", "flaky", "nonflaky"]
) | JSON_VALUES
RECORD_LINES = st.fixed_dictionaries(
    {},
    optional={k: FIELD_VALUES for k in ("id", "path", "label", "repo")},
).map(json.dumps)
MANIFEST_LINES = RECORD_LINES | JSON_VALUES.map(json.dumps) | st.text()


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("arbitrary_manifest")
    (root / "ok.py").write_text("x = 1\n", encoding="utf-8")
    (root / "empty.py").write_bytes(b"")
    (root / "latin1.py").write_bytes(b"caf\xe9\n")
    return root


@settings(max_examples=300)
@given(lines=st.lists(MANIFEST_LINES, max_size=6))
@example(lines=['{"id": "a", "path": "\\ud800", "label": "flaky"}'])
@example(lines=['{"id": "a", "path": "a\\u0000b", "label": "flaky"}'])
@example(lines=["[" * 100000, "1" * 5000])
def test_load_manifest_returns_corpus_or_raises_qflake_error(manifest_dir, lines):
    manifest = manifest_dir / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        corpus = load_manifest(manifest)
    except QflakeError:
        return
    assert isinstance(corpus, Corpus)


class TestScanTree:
    def test_scan_matches_layout(self, tmp_path):
        for rel in ("flaky/repoA/t1.py", "flaky/t2.py", "nonflaky/repoB/t3.py"):
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text("x = 1\n")
        records = scan_tree(tmp_path)
        assert [r["label"] for r in records] == ["flaky", "flaky", "nonflaky"]
        by_id = {r["id"]: r for r in records}
        assert by_id["flaky/repoA/t1.py"]["repo"] == "repoA"
        assert by_id["flaky/t2.py"]["repo"] == "unknown"

    def test_roundtrip_through_manifest(self, tmp_path):
        for rel in ("flaky/a/t1.py", "nonflaky/b/t2.py"):
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text("y = 2\n")
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(scan_tree(tmp_path), manifest)
        corpus = load_manifest(manifest)
        assert len(corpus) == 2


class TestSelectSubset:
    def test_balanced_counts(self):
        corpus = make_corpus(45, 243)
        subset = select_subset(corpus, SubsetMode.BALANCED, seed=7)
        assert subset.class_counts == {Label.FLAKY: 45, Label.NONFLAKY: 45}

    def test_balanced_keeps_every_minority_entry(self):
        corpus = make_corpus(5, 20)
        subset = select_subset(corpus, SubsetMode.BALANCED, seed=1)
        minority_ids = {e.id for e in corpus if e.label is Label.FLAKY}
        assert minority_ids <= set(subset.ids())

    def test_already_balanced_is_identity(self):
        corpus = make_corpus(45, 45)
        subset = select_subset(corpus, SubsetMode.BALANCED, seed=123)
        assert subset.ids() == corpus.ids()

    def test_determinism(self):
        corpus = make_corpus(45, 243)
        a = select_subset(corpus, SubsetMode.BALANCED, seed=5)
        b = select_subset(corpus, SubsetMode.BALANCED, seed=5)
        assert a.ids() == b.ids()

    def test_seed_changes_selection(self):
        corpus = make_corpus(45, 243)
        a = select_subset(corpus, SubsetMode.BALANCED, seed=5)
        b = select_subset(corpus, SubsetMode.BALANCED, seed=6)
        assert a.ids() != b.ids()

    def test_imbalanced_and_all_pass_through(self):
        corpus = make_corpus(45, 243)
        assert select_subset(corpus, SubsetMode.IMBALANCED, 0).ids() == corpus.ids()
        assert select_subset(corpus, SubsetMode.ALL, 0).ids() == corpus.ids()

    def test_empty_class_rejected(self):
        entries = tuple(
            CorpusEntry(f"n{i}", "p", Label.NONFLAKY, "r", "t") for i in range(3)
        )
        with pytest.raises(QflakeError, match="corpus has no flaky entries"):
            select_subset(Corpus(entries), SubsetMode.BALANCED, 0)

    def test_output_sorted_by_id(self):
        corpus = make_corpus(10, 30)
        subset = select_subset(corpus, SubsetMode.BALANCED, seed=2)
        assert subset.ids() == sorted(subset.ids())


class TestStratifiedFolds:
    def test_real_corpus_shape(self):
        corpus = make_corpus(45, 243)
        folds = stratified_folds(corpus, 5, seed=0)
        flaky_counts = Counter()
        nonflaky_counts = Counter()
        for e in corpus:
            f = folds[e.id]
            (flaky_counts if e.label is Label.FLAKY else nonflaky_counts)[f] += 1
        assert sorted(flaky_counts.values()) == [9, 9, 9, 9, 9]
        assert sorted(nonflaky_counts.values()) == [48, 48, 49, 49, 49]

    def test_exact_division(self):
        corpus = make_corpus(10, 10)
        folds = stratified_folds(corpus, 5, seed=0)
        per_fold = Counter(folds.values())
        assert all(v == 4 for v in per_fold.values())

    def test_too_few_samples(self):
        corpus = make_corpus(5, 30)
        stratified_folds(corpus, 3, seed=0)  # 5 >= 3: fine
        with pytest.raises(QflakeError, match="class flaky has 5 entries, fewer than n_folds=6"):
            stratified_folds(corpus, 6, seed=0)

    def test_determinism(self):
        corpus = make_corpus(13, 29)
        a = stratified_folds(corpus, 5, seed=9)
        b = stratified_folds(corpus, 5, seed=9)
        assert a == b

    @settings(max_examples=30)
    @given(
        n_flaky=st.integers(min_value=2, max_value=40),
        n_nonflaky=st.integers(min_value=2, max_value=60),
        n_folds=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_and_stratification_properties(
        self, n_flaky, n_nonflaky, n_folds, seed
    ):
        if min(n_flaky, n_nonflaky) < n_folds:
            return
        corpus = make_corpus(n_flaky, n_nonflaky)
        folds = stratified_folds(corpus, n_folds, seed)
        # union of folds is the corpus, folds pairwise disjoint
        assert set(folds) == set(corpus.ids())
        for label in (Label.FLAKY, Label.NONFLAKY):
            counts = Counter(
                folds[e.id] for e in corpus if e.label is label
            )
            sizes = [counts.get(f, 0) for f in range(n_folds)]
            assert max(sizes) - min(sizes) <= 1
