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


def loads(text, object_hook=None):
    """``text`` parsed as strict JSON, each object passed through
    ``object_hook`` as ``json.loads`` does; bytes must be UTF-8, which
    ``json.loads`` would otherwise guess among UTF-8, -16 and -32."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise QflakeError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return json.loads(text, parse_constant=_refuse_constant, object_hook=object_hook)


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
