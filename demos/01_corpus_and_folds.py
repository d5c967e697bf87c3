"""Build a labeled corpus, take the balanced subset, and assign folds.

Run from the repository root:  python demos/01_corpus_and_folds.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from qflake import (
    Label,
    SubsetMode,
    generate_corpus,
    load_manifest,
    select_subset,
    stratified_folds,
)

workdir = Path(tempfile.mkdtemp(prefix="qflake_demo_"))
manifest = generate_corpus(workdir, n_flaky=45, n_nonflaky=243, seed=0)
print(f"synthetic corpus written under {workdir}")

corpus = load_manifest(manifest)
counts = corpus.class_counts
print(f"loaded {len(corpus)} files: "
      f"{counts[Label.FLAKY]} flaky / {counts[Label.NONFLAKY]} nonflaky")

balanced = select_subset(corpus, SubsetMode.BALANCED, seed=7)
print(f"balanced subset: {len(balanced)} files "
      f"({balanced.class_counts[Label.NONFLAKY]} nonflaky kept of "
      f"{counts[Label.NONFLAKY]})")

folds = stratified_folds(corpus, n_folds=5, seed=7)
per_fold = Counter()
per_fold_flaky = Counter()
for entry in corpus:
    f = folds[entry.id]
    per_fold[f] += 1
    if entry.label is Label.FLAKY:
        per_fold_flaky[f] += 1
print("fold sizes:        ", [per_fold[f] for f in range(5)])
print("flaky per fold:    ", [per_fold_flaky[f] for f in range(5)])
print("every fold carries the same 9 flaky files; the 243 nonflaky split 49/49/49/48/48")
