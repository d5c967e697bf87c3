"""The two exception types of the qflake pipeline; the type decides the
exit code of the command that raised it.

``QflakeError`` (a ``ValueError``) means the input is bad: a manifest,
source file, bundle, ``--config`` file, flag or hyperparameter that no
run can use. The CLI prints ``error: <msg>`` and exits 2.
``PipelineError`` means the input was valid but a stage could not fit or
score it (an SVD that does not converge, too few rows for SMOTE or k
neighbors). The CLI prints ``<command> failed: <msg>`` and exits 3.
"""


class QflakeError(ValueError):
    """Bad input, settings or files: exit code 2."""


class PipelineError(QflakeError):
    """Valid input that a stage could not fit or score: exit code 3."""
