"""qflake: flaky-test detection for quantum software test suites.

Bag-of-words vectorization of test source files feeds five classifier
families (gradient boosting, decision tree, random forest, k-nearest
neighbors, linear SVM) through an optionally SMOTE-resampled, optionally
PCA-reduced, threshold-tunable pipeline evaluated by stratified
cross-validation.
"""

from .bundle import ModelBundle, train_bundle
from .corpus import (
    Corpus,
    CorpusEntry,
    FoldAssignment,
    Label,
    SubsetMode,
    load_manifest,
    scan_tree,
    select_subset,
    stratified_folds,
    write_manifest,
)
from .eval import (
    ConfusionMatrix,
    MetricReport,
    PipelineConfig,
    ThresholdCurve,
    compute_metrics,
    confusion,
    cross_validate,
    tune_threshold,
)
from .experiment import ResultsTable, run_paper_suite
from .linalg import PcaModel, pca_fit, pca_inverse_transform, pca_transform
from .resample import ResampledSet, smote_resample
from .synthetic import generate_corpus
from .text import (
    DocTermMatrix,
    Vocabulary,
    fit_vocabulary,
    tokenize,
    transform,
)

__version__ = "0.1.0"
