import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

from qflake.corpus import load_manifest
from qflake.synthetic import generate_corpus

# Property tests are judged on their examples, not their speed: on a busy
# machine one example can overrun any fixed deadline. Each test keeps its
# own max_examples.
settings.register_profile("qflake", deadline=None)
settings.load_profile("qflake")

# Point QFLAKE_CORPUS_MANIFEST at a real corpus manifest to run the
# corpus-scale tests against it; otherwise the bundled synthetic
# generator provides a 45:243 stand-in with the same shape.
CORPUS_ENV = "QFLAKE_CORPUS_MANIFEST"


@pytest.fixture(scope="session")
def corpus_manifest(tmp_path_factory) -> Path:
    override = os.environ.get(CORPUS_ENV)
    if override:
        return Path(override)
    root = tmp_path_factory.mktemp("corpus288")
    return generate_corpus(root, n_flaky=45, n_nonflaky=243, seed=2024)


@pytest.fixture(scope="session")
def corpus288(corpus_manifest):
    return load_manifest(corpus_manifest)


@pytest.fixture(scope="session")
def tiny_manifest(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus_tiny")
    return generate_corpus(root, n_flaky=8, n_nonflaky=16, seed=7)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_manifest):
    return load_manifest(tiny_manifest)


def write_jsonl(path: Path, records) -> Path:
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    return path
