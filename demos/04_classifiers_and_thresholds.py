"""Train the five classifier families on one split and sweep the decision
threshold for F1.

Run:  python demos/04_classifiers_and_thresholds.py
"""

import numpy as np

from qflake import compute_metrics, confusion, tune_threshold
from qflake.classifiers import get_profile, predict_labels, train_model

rng = np.random.default_rng(4)

# an overlapping two-class problem: imbalanced 1:4, not perfectly separable
n_flaky, n_plain = 30, 120
X = np.vstack([
    rng.normal(1.0, 1.2, size=(n_flaky, 6)),
    rng.normal(-1.0, 1.2, size=(n_plain, 6)),
])
y = np.array([1] * n_flaky + [0] * n_plain, dtype=np.int8)
holdout = rng.permutation(len(y))[:30]
train_mask = np.ones(len(y), bool)
train_mask[holdout] = False

print(f"{'family':6s} {'acc':>6s} {'f1':>6s} {'best_t':>7s} {'f1@best':>8s}")
for family in ("xgb", "dt", "rf", "knn", "svm"):
    profile = get_profile(family, "paper_vanilla")
    model = train_model(
        family, X[train_mask], y[train_mask], profile.hyperparameters, seed=11
    )
    scores = model.score(X[holdout])
    report = compute_metrics(confusion(y[holdout], predict_labels(scores, 0.5)))
    curve = tune_threshold(scores, y[holdout])
    print(
        f"{family:6s} {report.accuracy:6.3f} {report.f1:6.3f} "
        f"{curve.best_threshold:7.1f} {dict(curve.grid)[curve.best_threshold]:8.3f}"
    )

print("\nthreshold sweep for the last model (t, f1):")
print("  " + "  ".join(f"{t:.1f}:{f1:.2f}" for t, f1 in curve.grid))
print("the tuned threshold never scores below the 0.5 default on its tuning set")
