"""Scalar layer: exact rationals vs. 64-bit floats.

Every container in the package is tagged with a mode, either "exact" or
"float".  Exact mode stores rational numbers and all comparisons are exact;
this is what makes the minimax solvers certifiable.  Float mode stores plain
floats and is meant for heuristics and sampling, with FLOAT_TOL as the
comparison tolerance.  Mixing the two modes in one computation is an error,
never a silent promotion.

Rationals are gmpy2.mpq when available (an order of magnitude faster under
the pivot-heavy solvers) and fractions.Fraction otherwise.  The two types
hash and compare identically, so the choice is invisible to callers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import ModeMismatch

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction

Scalar = Union[Fraction, float, int]

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

# Comparison tolerance for float mode.  Exact mode never consults it.
FLOAT_TOL = 1e-9

ZERO = Q(0)
ONE = Q(1)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ModeMismatch(f"unknown mode {mode!r}, expected one of {MODES}")
    return mode


def same_mode(*modes: str) -> str:
    """Return the common mode of the arguments, or raise ModeMismatch."""
    first = check_mode(modes[0])
    for m in modes[1:]:
        if m != first:
            raise ModeMismatch(f"cannot mix {first!r} and {m!r} objects")
    return first


def to_scalar(value, mode: str) -> Scalar:
    """Coerce a number or numeric string into the scalar type of `mode`.

    Exact mode accepts ints, rationals and strings like "3/7" or "0.25";
    it refuses floats, because a binary float rarely means the decimal the
    user wrote.  Float mode accepts anything float() does, plus "p/q"
    strings, so exact-mode documents stay readable.
    """
    if mode == FLOAT:
        if isinstance(value, str) and "/" in value:
            return float(Fraction(value.strip()))
        return float(value)
    if isinstance(value, float):
        raise ModeMismatch(
            "refusing to coerce a float into exact mode; pass a string or rational"
        )
    if isinstance(value, str):
        text = value.strip()
        # mpq parses "p/q" directly but not decimal strings in all versions;
        # Fraction handles both, so normalise through it.
        return Q(Fraction(text))
    return Q(value)


def scalar_list(values: Iterable, mode: str) -> tuple:
    return tuple(to_scalar(v, mode) for v in values)


def as_fraction(x: Scalar) -> Fraction:
    """Exact-mode scalar as a fractions.Fraction (for repr and JSON)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x.numerator, x.denominator)


def format_scalar(x: Scalar, mode: str) -> str:
    """Decimal rendering with 12 significant digits."""
    del mode
    return f"{float(x):.12g}"


def exact_string(x: Scalar, mode: str) -> str:
    """Lossless rendering: "p/q" in exact mode, repr(float) otherwise."""
    if mode == EXACT:
        return str(as_fraction(x))
    return repr(float(x))


def close(a: Scalar, b: Scalar, mode: str, tol: float = FLOAT_TOL) -> bool:
    if mode == EXACT:
        return a == b
    return abs(a - b) <= tol


def leq(a: Scalar, b: Scalar, mode: str, tol: float = FLOAT_TOL) -> bool:
    if mode == EXACT:
        return a <= b
    return a <= b + tol
