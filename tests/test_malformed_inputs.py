"""Malformed input as a property: a valid bundle, manifest or --config file
with one JSON node replaced or deleted (for a bundle, a node of its
header, array offsets included), or a bundle cut short or with a byte
appended, never makes ``qflake`` raise, exit 3 or print more than one
line on stderr. The hand-written cases in ``test_bundle_cli`` pin the
message of each known one.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflake import cli
from qflake.bundle import pack
from qflake.jsonio import loads

FAMILIES = ("dt", "rf", "xgb", "knn", "svm")
N_FILES = 6

# What a node becomes; DELETE removes it from its object or list.
DELETE = object()
POOL = (
    DELETE, None, True, False, 0, 1, -1, 2**63, -(2**63), 1e308, -1e308, 1e-320, 10**400,
    "", "x", "flaky", "default", "AAAA", [], {}, [[]], [[1, 2], [3.5]], [["x", None]],
)


def json_paths(node, path=()):
    """The path of every node of a parsed JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(child, (*path, key))


def mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``,
    or deleted for ``DELETE`` (the root is replaced by None instead)."""
    if not path:
        return None if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run(argv):
    """``cli.main`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_refused_or_ok(code, err):
    assert code in (0, 2), err
    assert len(err.splitlines()) == (code == 2), err


def assert_predicted(argv, sources):
    """``predict`` exits 0 with one strict JSON line and a finite score per
    file, or exits 2 with one line."""
    code, out, err = run(argv)
    assert_refused_or_ok(code, err)
    if code == 0:
        lines = out.splitlines()
        assert len(lines) == len(sources)
        for line, source in zip(lines, sources):
            record = loads(line)
            assert record["path"] == str(source)
            assert type(record["score"]) is float and math.isfinite(record["score"])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A trainable manifest of six files (two flaky), its records, and a
    bundle file of each family trained on it."""
    root = tmp_path_factory.mktemp("valid")
    records = []
    for i in range(N_FILES):
        (root / f"t{i}.py").write_text(
            f"def test_case{i}():\n    assert qubit_{i % 2} == expected\n"
        )
        label = "flaky" if i < 2 else "nonflaky"
        records.append({"id": f"t{i}", "path": f"t{i}.py", "label": label, "repo": "r"})
    manifest = root / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    bundles = {}
    for family in FAMILIES:
        path = root / f"{family}.json"
        assert run(["train", "--manifest", manifest, "--family", family, "--out", path])[0] == 0
        bundles[family] = path.read_bytes()
    sources = sorted(root.glob("t*.py"))
    return {"root": root, "manifest": manifest, "records": records, "bundles": bundles,
            "sources": sources}


@settings(max_examples=300)
@given(data=st.data(), family=st.sampled_from(FAMILIES), value=st.sampled_from(POOL))
def test_mutated_bundle_predicts_or_exits_2(valid, data, family, value):
    """One node of the header replaced or deleted; ``pack`` pads the
    header again, and the data section follows it unchanged."""
    header, _, arrays = valid["bundles"][family].partition(b"\0")
    doc = json.loads(header)
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    bundle = valid["root"] / "mutated-bundle.json"
    bundle.write_bytes(pack(mutated(doc, path, value)) + arrays)
    assert_predicted(["predict", "--bundle", bundle, *valid["sources"]], valid["sources"])


@settings(max_examples=150)
@given(data=st.data(), family=st.sampled_from(FAMILIES), cut=st.booleans())
def test_cut_or_extended_bundle_predicts_or_exits_2(valid, data, family, cut):
    """A bundle file cut at a drawn byte, or with a drawn byte appended."""
    raw = valid["bundles"][family]
    if cut:
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        raw += bytes([data.draw(st.integers(0, 255), label="byte")])
    bundle = valid["root"] / "cut-bundle.json"
    bundle.write_bytes(raw)
    code, _, err = run(["predict", "--bundle", bundle, *valid["sources"]])
    assert (code, len(err.splitlines())) == (2, 1), err


@settings(max_examples=150)
@given(data=st.data(), value=st.sampled_from(POOL))
def test_mutated_manifest_trains_or_exits_2(valid, data, value):
    """``ingest`` and ``train`` agree on whether the manifest is valid; a
    bundle trained on it predicts."""
    records = valid["records"]
    path = data.draw(st.sampled_from(list(json_paths(records))[1:]), label="path")
    lines = mutated(records, path, value)
    manifest, bundle = valid["root"] / "mutated.jsonl", valid["root"] / "mutated-train.json"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in lines))
    ingest_code, _, err = run(["ingest", "--manifest", manifest])
    assert_refused_or_ok(ingest_code, err)
    code, _, err = run(["train", "--manifest", manifest, "--family", "dt", "--out", bundle])
    assert_refused_or_ok(code, err)
    assert code == ingest_code, err
    if code == 0:
        assert_predicted(["predict", "--bundle", bundle, *valid["sources"]], valid["sources"])


CONFIG = {
    "seed": 3, "folds": 2, "pca": 2, "profile": "paper_vanilla", "tokenizer": "default",
    "dataset": "all", "methods": ["vanilla"], "models": ["dt"],
    "hyperparameters": {"max_depth": 3, "min_samples_leaf": 1}, "smote": False,
    "tune_threshold": False, "replicate_paper_vectorization": False,
    "replicate_paper_threshold": False,
}


@settings(max_examples=150)
@given(data=st.data(), value=st.sampled_from(POOL))
def test_mutated_config_trains_or_exits_2(valid, data, value):
    path = data.draw(st.sampled_from(list(json_paths(CONFIG))), label="path")
    config, bundle = valid["root"] / "cfg.json", valid["root"] / "configured.json"
    config.write_text(json.dumps(mutated(CONFIG, path, value)))
    code, _, err = run(["train", "--manifest", valid["manifest"], "--family", "dt",
                        "--config", config, "--out", bundle])
    assert_refused_or_ok(code, err)
    if code == 0:
        assert_predicted(["predict", "--bundle", bundle, *valid["sources"]], valid["sources"])
