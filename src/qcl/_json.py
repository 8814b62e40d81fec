"""JSON emission with fixed 17-significant-digit floats.

The standard library does not let callers control float formatting, and
exact reproducibility of event times requires round-trippable output, so
this tiny serializer handles the flat structures this package emits.

The writer makes one pass: it appends string parts to one list, joined once
at the end.  An object with a ``json_text(indent)`` method, the event rows
of a trajectory, writes itself (the compiled ``qcl_write``), or returns None
to be written as a list, one value at a time.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    return format(v, ".17g")


def dumps(obj, indent: int = 0) -> str:
    parts: list[str] = []
    _write(obj, indent, parts)
    return "".join(parts)


def _write(obj, indent: int, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, float):
        parts.append(_format_float(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        child = indent + 2
        sep = ",\n" + " " * child
        parts.append("[\n" + " " * child)
        for k, v in enumerate(obj):
            if k:
                parts.append(sep)
            _write(v, child, parts)
        parts.append("\n" + " " * indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        child = indent + 2
        sep = ",\n" + " " * child
        parts.append("{\n" + " " * child)
        for k, (key, v) in enumerate(obj.items()):
            if k:
                parts.append(sep)
            parts.append(_quote(str(key)) + ": ")
            _write(v, child, parts)
        parts.append("\n" + " " * indent + "}")
    else:
        # A sequence that writes itself: Trajectory.to_json_obj's "events".
        json_text = getattr(obj, "json_text", None)
        if json_text is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        text = json_text(indent)
        if text is None:  # written, or refused, by the general rules
            _write(list(obj), indent, parts)
        else:
            parts.append(text)
