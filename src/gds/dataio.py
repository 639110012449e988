"""Dataset documents: JSON on the way in and out, CSV for tables.

A dataset is a UTF-8 JSON object with exactly three keys:

    {
      "points":   ["p0", "p1", ...],
      "weights":  ["1/3", "2/3", ...],
      "features": {"f0": ["0", "1/2", ...], ...}
    }

Weights and feature values are strings parsed as rationals ("p/q") or
decimals; plain JSON integers are accepted too.  Exact mode refuses bare
JSON floats, because a binary float rarely means the decimal the author
wrote; emitted documents always use strings, so parse(emit(X), X.mode)
reproduces X exactly in either mode.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable

from .core import GeometricDataSet
from .errors import GdsError, SchemaError
from .numerics import EXACT, check_mode, exact_string, to_scalar

__all__ = [
    "csv_text",
    "doc_to_gds",
    "emit_gds",
    "gds_to_doc",
    "parse_gds",
]

_KEYS = ("points", "weights", "features")


def gds_to_doc(X: GeometricDataSet) -> dict:
    """Plain-dict form of a dataset, ready for json.dumps."""
    rows = X.features.rows
    return {
        "points": list(X.point_labels),
        "weights": [exact_string(w, X.mode) for w in X.measure.weights],
        "features": {
            label: [exact_string(v, X.mode) for v in rows[i]]
            for i, label in enumerate(X.features.labels)
        },
    }


def emit_gds(X: GeometricDataSet) -> str:
    return json.dumps(gds_to_doc(X), indent=2) + "\n"


def _fail(message: str) -> SchemaError:
    return SchemaError(f"dataset document: {message}")


def _scalar(value, mode: str, where: str):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise _fail(f"{where} must be a number or numeric string")
    try:
        return to_scalar(value, mode)
    except GdsError as exc:
        raise _fail(f"{where}: {exc}") from exc


def doc_to_gds(doc, mode: str = EXACT) -> GeometricDataSet:
    """Validate a parsed JSON document and build the dataset it describes.

    Every violation, structural or numeric, surfaces as SchemaError; that
    includes values the data model itself rejects (non-positive weights,
    features that fail to separate two points).
    """
    check_mode(mode)
    if not isinstance(doc, dict):
        raise _fail("top level must be an object")
    missing = [k for k in _KEYS if k not in doc]
    if missing:
        raise _fail(f"missing keys: {', '.join(missing)}")
    extra = [k for k in doc if k not in _KEYS]
    if extra:
        raise _fail(f"unknown keys: {', '.join(sorted(extra))}")

    points = doc["points"]
    if (
        not isinstance(points, list)
        or not points
        or not all(isinstance(p, str) for p in points)
    ):
        raise _fail('"points" must be a non-empty list of strings')
    n = len(points)

    weights = doc["weights"]
    if not isinstance(weights, list) or len(weights) != n:
        raise _fail('"weights" must be a list, one entry per point')
    parsed_weights = [
        _scalar(w, mode, f"weight of {points[i]!r}")
        for i, w in enumerate(weights)
    ]

    features = doc["features"]
    if not isinstance(features, dict) or not features:
        raise _fail('"features" must be a non-empty object')
    labels = []
    rows = []
    for label, values in features.items():
        if not isinstance(label, str):
            raise _fail("feature labels must be strings")
        if not isinstance(values, list) or len(values) != n:
            raise _fail(f"feature {label!r} must list one value per point")
        labels.append(label)
        rows.append(
            [
                _scalar(v, mode, f"feature {label!r} at {points[i]!r}")
                for i, v in enumerate(values)
            ]
        )

    try:
        return GeometricDataSet.build(
            rows,
            parsed_weights,
            feature_labels=labels,
            point_labels=points,
            mode=mode,
        )
    except GdsError as exc:
        raise _fail(str(exc)) from exc


def parse_gds(text: str, mode: str = EXACT) -> GeometricDataSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"not valid JSON ({exc})") from exc
    except RecursionError:
        raise _fail("JSON nested too deeply") from None
    return doc_to_gds(doc, mode)


def csv_text(header: Iterable, rows: Iterable) -> str:
    """CSV with a header row; cells are written with str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([str(h) for h in header])
    for row in rows:
        writer.writerow([str(c) for c in row])
    return buf.getvalue()
