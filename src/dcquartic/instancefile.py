"""Strict instance-file schema and canonical JSON emission.

The on-disk format is a single JSON object:

    {
      "schema_version": "1",
      "n": 2, "N": 1,
      "A": [..n*n row-major..],
      "B": [[..n*n..], ...],          # N entries
      "gamma": [..N..], "c": [..N..],
      "f": [..n..],
      "K": 3.0,                       # scalar, or n*n row-major list
      "coercivity_override": false    # optional, default false
    }

The file is UTF-8.  Unknown and repeated keys are rejected.  Numbers
are emitted with 17 significant digits so a parse/serialize round trip
is value-identical at double precision, and the writer is fully
deterministic (fixed key order, fixed separators) so reports can be
compared byte for byte.
"""

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .errors import ParseError
from .problem import validate_instance

SCHEMA_VERSION = "1"

_REQUIRED_KEYS = ("schema_version", "n", "N", "A", "B", "gamma", "c", "f", "K")
_OPTIONAL_KEYS = ("coercivity_override",)


def dumps_canonical(obj):
    """Deterministic JSON writer with 17-significant-digit floats.

    Objects and non-empty lists take one entry per line, indented by two
    spaces a level; a list of scalars whose texts add up to under 72
    characters stays on one line.  Non-finite floats become null:
    reports carry NaN residuals for pairs outside C* and JSON has no NaN
    (instance data is finite by validation).  One pass over the object,
    dispatching on the exact type of each value.
    """
    return _dump(obj, "")


def _dump(obj, pad):
    """The text of any value, its nested lines indented past pad."""
    text = _scalar(obj)
    if text is not None:
        return text
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            text = _scalar(value)
            if text is None:
                text = _dump(value, inner)
            key = _encode_str(key) if type(key) is str else json.dumps(key)
            items.append(f"{inner}{key}: {text}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        texts = [_scalar(value) for value in obj]
        flat = None not in texts
        if not flat:
            texts = [_dump(value, inner) if text is None else text
                     for text, value in zip(texts, obj)]
            flat = not any(isinstance(value, (dict, list, tuple))
                           for value in obj)
        if flat and sum(map(len, texts)) < 72:
            return "[" + ", ".join(texts) + "]"
        return "[\n" + ",\n".join(inner + text for text in texts) \
            + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        return _dump(obj.tolist(), pad)
    raise ParseError(f"cannot serialize object of type {type(obj)!r}")


def _scalar(obj):
    """The text of a JSON scalar (number, bool, null or string), or None
    for anything else.  Exact Python types take no numpy call."""
    kind = type(obj)
    if kind is float:
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if np.isfinite(obj) else "null"
    if isinstance(obj, str):
        return _encode_str(obj)
    return None


def _require_numbers(key, value):
    """ParseError naming ``key`` unless every entry of the (nested) list
    ``value``, or ``value`` itself, is a JSON number (not a bool)."""
    todo = [value]
    while todo:
        entry = todo.pop()
        if isinstance(entry, list):
            todo.extend(entry)
        elif type(entry) not in (int, float):
            raise ParseError(
                f"{key} entries must be JSON numbers, got {entry!r}")


def _unique_fields(pairs):
    """json.loads object hook: a repeated key is a ParseError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"repeated field {key!r}")
        doc[key] = value
    return doc


def parse_instance_text(text):
    """Parse and validate the strict schema; returns a ProblemInstance."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_fields)
    except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance file must hold a JSON object")

    unknown = set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)} (strict schema)")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ParseError(f"missing fields {missing}")
    if type(doc["schema_version"]) is not str \
            or doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc['schema_version']!r}"
                         f" (must be the JSON string {SCHEMA_VERSION!r})")

    for key in ("n", "N"):
        if type(doc[key]) is not int:
            raise ParseError(f"{key} must be a JSON integer, got {doc[key]!r}")
    n, N, K = doc["n"], doc["N"], doc["K"]
    if type(K) not in (int, float, list):
        raise ParseError(f"K must be a number or a list, got {K!r}")
    if not isinstance(doc["B"], list) or len(doc["B"]) != N:
        raise ParseError(f"B must be a list of {N} row-major matrices")
    for key in ("A", "B", "gamma", "c", "f", "K"):
        _require_numbers(key, doc[key])
    try:
        A = np.asarray(doc["A"], dtype=float)
        B = np.asarray(doc["B"], dtype=float)
        gamma = np.asarray(doc["gamma"], dtype=float)
        c = np.asarray(doc["c"], dtype=float)
        f = np.asarray(doc["f"], dtype=float)
        K = np.asarray(K, dtype=float) if type(K) is list else float(K)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed numeric field: {exc}") from exc

    if f.size != n or gamma.size != N:
        raise ParseError(
            f"declared sizes n={n}, N={N} disagree with f ({f.size}) "
            f"or gamma ({gamma.size})")
    override = doc.get("coercivity_override", False)
    if type(override) is not bool:
        raise ParseError(
            f"coercivity_override must be a JSON bool, got {override!r}")
    return validate_instance(A, B, gamma, c, f, K,
                             coercivity_override=override)


def load_instance(path):
    """Read a UTF-8 instance file and parse_instance_text it; bytes that
    do not decode are a ParseError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"instance file is not UTF-8: {exc}") from exc
    return parse_instance_text(text)


def instance_to_doc(P):
    """The strict-schema document for a validated instance."""
    return {
        "schema_version": SCHEMA_VERSION,
        "n": P.n,
        "N": P.N,
        "A": P.A.ravel().tolist(),
        "B": P.B.reshape(P.N, -1).tolist(),
        "gamma": P.gamma.tolist(),
        "c": P.c.tolist(),
        "f": P.f.tolist(),
        "K": P.K.ravel().tolist(),
        "coercivity_override": bool(P.coercivity_override),
    }


def serialize_instance(P):
    return dumps_canonical(instance_to_doc(P)) + "\n"


def instance_digest(P):
    """Stable content hash of the canonical serialization."""
    return hashlib.sha256(serialize_instance(P).encode("utf-8")).hexdigest()
