"""Strict JSON for every file qflake reads or writes: manifests,
``--config`` files, bundles, reports and results.

Python's ``json`` reads and writes ``NaN``, ``Infinity`` and
``-Infinity``, which JSON does not allow. ``loads`` refuses them as bad
input; ``dumps`` refuses to write a non-finite float, which no valid
input should produce, so it is reported as a failed run.
"""

import json

from .errors import PipelineError, QflakeError


def _refuse_constant(name: str):
    raise QflakeError(f"{name} is not a JSON number")


def loads(text: str):
    return json.loads(text, parse_constant=_refuse_constant)


def shown(value) -> str:
    """``value`` for a message: as JSON (``true``, ``null``) if it can be."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def dumps(obj, **kwargs) -> str:
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise PipelineError(f"cannot write JSON: {exc}") from None
