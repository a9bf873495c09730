"""Reading and writing algebra declarations as JSON documents.

Rationals travel as strings ("2", "-3/2") or JSON integers; floats are
rejected outright, never rounded.  Rendering is canonical (sorted keys,
two-space indent, rationals as strings) so documents are diff-stable and
round-trip exactly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import SpecError, SpecFileError
from .model import AlgebraSpec

Q = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _reject_float(text):
    raise SpecFileError(f"floating-point literal {text!r} is not allowed")


def parse_rational(value, path):
    if isinstance(value, bool):
        raise SpecFileError("expected a rational, got a boolean", field=path)
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise SpecFileError(f"malformed rational {value!r}", field=path)
        num, _, den = value.strip().partition("/")
        if den:
            if int(den) == 0:
                raise SpecFileError("zero denominator", field=path)
            return Q(int(num), int(den))
        return Q(int(num))
    raise SpecFileError(f"expected a rational, got {type(value).__name__}", field=path)


def _parse_tensor(value, shape, path):
    if not shape:
        return parse_rational(value, path)
    if not isinstance(value, list):
        raise SpecFileError("expected an array", field=path)
    if len(value) != shape[0]:
        raise SpecFileError(
            f"expected {shape[0]} entries, found {len(value)}", field=path
        )
    return [
        _parse_tensor(v, shape[1:], f"{path}[{i}]") for i, v in enumerate(value)
    ]


def _require(doc, key, kind):
    if key not in doc:
        raise SpecFileError("missing required field", field=key)
    value = doc[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SpecFileError("expected an integer", field=key)
    if kind is str and not isinstance(value, str):
        raise SpecFileError("expected a string", field=key)
    return value


def spec_from_document(doc):
    if not isinstance(doc, dict):
        raise SpecFileError("top-level document must be an object")
    name = _require(doc, "name", str)
    m = _require(doc, "m", int)
    n = _require(doc, "n", int)
    if m < 1 or n < 1:
        raise SpecFileError("dimensions must be positive", field="m")
    order = _require(doc, "order", int)
    if order < 0:
        raise SpecFileError("order must be non-negative", field="order")
    B = _parse_tensor(_require(doc, "B", list), (m, m, n), "B")
    r = _parse_tensor(_require(doc, "r", list), (m, n), "r")
    xi = doc.get("xi")
    if xi is not None:
        xi = tuple(_parse_tensor(xi, (n,), "xi"))
    h_names = doc.get("h_names", ())
    x_names = doc.get("x_names", ())
    for key, names, count in (("h_names", h_names, m), ("x_names", x_names, n)):
        if names and (
            not isinstance(names, list)
            or len(names) != count
            or not all(isinstance(s, str) for s in names)
        ):
            raise SpecFileError(f"expected {count} strings", field=key)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise SpecFileError("expected string-to-string object", field="metadata")
    try:
        return AlgebraSpec(
            name=name,
            m=m,
            n=n,
            B=B,
            r=r,
            xi=xi,
            order=order,
            h_names=tuple(h_names),
            x_names=tuple(x_names),
            metadata=dict(metadata),
        )
    except SpecError as exc:
        raise SpecFileError(str(exc)) from exc


def parse_spec_text(text):
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}")
    return spec_from_document(doc)


def parse_spec_file(path):
    """Parse a spec file into an AlgebraSpec, with field-level diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}")
    return parse_spec_text(text)


def _render_tensor(value):
    if isinstance(value, tuple):
        return [_render_tensor(v) for v in value]
    return str(value)


def spec_to_document(spec):
    doc = {
        "name": spec.name,
        "m": spec.m,
        "n": spec.n,
        "h_names": list(spec.h_names),
        "x_names": list(spec.x_names),
        "B": _render_tensor(spec.B),
        "r": _render_tensor(spec.r),
        "xi": None if spec.xi is None else _render_tensor(spec.xi),
        "order": spec.order,
        "metadata": dict(sorted(spec.metadata.items())),
    }
    return doc


def render_spec_file(spec):
    """Canonical JSON text for a spec; parse(render(s)) == s."""
    return json.dumps(spec_to_document(spec), indent=2, sort_keys=True) + "\n"


def write_spec_file(spec, path):
    Path(path).write_text(render_spec_file(spec), encoding="utf-8")
