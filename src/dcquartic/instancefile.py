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

import numpy as np

from .errors import ParseError
from .problem import validate_instance

SCHEMA_VERSION = "1"

_REQUIRED_KEYS = ("schema_version", "n", "N", "A", "B", "gamma", "c", "f", "K")
_OPTIONAL_KEYS = ("coercivity_override",)


def format_float(x):
    """Decimal text with 17 significant digits; round-trips any double."""
    x = float(x)
    if not np.isfinite(x):
        raise ParseError(f"non-finite number {x!r} cannot be serialized")
    return format(x, ".17g")


def dumps_canonical(obj, indent=0):
    """Deterministic JSON writer with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            items.append(f"{pad}  {json.dumps(key)}: "
                         f"{dumps_canonical(value, indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [dumps_canonical(v, indent + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple)) for v in seq) \
                and sum(len(r) for r in rendered) < 72:
            return "[" + ", ".join(rendered) + "]"
        items = [f"{pad}  {r}" for r in rendered]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # reports carry NaN residuals for pairs outside C*; JSON has no
        # NaN so these become null (instance data is finite by validation)
        if not np.isfinite(obj):
            return "null"
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist(), indent)
    raise ParseError(f"cannot serialize object of type {type(obj)!r}")


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
        "A": [float(v) for v in np.asarray(P.A).ravel()],
        "B": [[float(v) for v in np.asarray(P.B[j]).ravel()]
              for j in range(P.N)],
        "gamma": [float(v) for v in P.gamma],
        "c": [float(v) for v in P.c],
        "f": [float(v) for v in P.f],
        "K": [float(v) for v in np.asarray(P.K).ravel()],
        "coercivity_override": bool(P.coercivity_override),
    }


def serialize_instance(P):
    return dumps_canonical(instance_to_doc(P)) + "\n"


def instance_digest(P):
    """Stable content hash of the canonical serialization."""
    return hashlib.sha256(serialize_instance(P).encode("utf-8")).hexdigest()
