"""The ledger format 1 writer, kept as a test reference.

Format 1 spelled every float at 17 significant digits; format 2 spells it
by ``repr``. Both hold the same values, so parsing a format-2 document and
writing it back through ``reference_canonical_json`` must give the format-1
bytes, which lets the format-1 golden digests keep gating the values.
"""

import json
import math


def reference_format_float(value):
    """The format-1 spelling of a float: 17 significant digits, always with a "." or exponent."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float {value!r} cannot enter a ledger")
    text = f"{value:.17g}"
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def reference_canonical_json(value):
    """The plain recursive format-1 writer."""
    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, float):
        return reference_format_float(value)
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"ledger object keys must be strings, got {key!r}")
            label = json.dumps(key, ensure_ascii=True)
            items.append(label + ":" + reference_canonical_json(value[key]))
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_canonical_json(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} into a ledger")
