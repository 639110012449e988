"""Scalar layer: exact rationals vs. 64-bit floats.

Every container in the package is tagged with a mode, either "exact" or
"float".  Exact mode stores rational numbers and all comparisons are exact;
this is what makes the minimax solvers certifiable.  Float mode stores plain
floats and is meant for heuristics and sampling, with FLOAT_TOL as the
comparison tolerance.  Mixing the two modes in one computation is an error,
never a silent promotion.

Rationals are fractions.Fraction.  The hot kernels and the searches
around them run on Python ints, by one rule: scale once per instance,
compare ints, unscale once at return.  scaled_ints puts the numbers of
an instance over one common denominator, every sum, gap, level and
comparison is then made on the scaled ints, and unscaled converts back
only what a caller receives: a value once, a witness entry once.  Two
scaled quantities meet over the product of their scales; a flow sweep,
for one, compares a level over S with a flow over D as ints over S * D.
A rational bound meets a scaled int through scaled_ceil.  Witnesses
are certified on the same ints before they are unscaled.  In
float mode scaled_ints hands the floats back with no scale, each scale
reads as 1, and the same code computes on floats.  The public
objectives (box_objective, distortion, check_marginals) read the
unscaled inputs.  The brute-force oracles of the theorem suite share
Transport's int flows, each unscaled once, but keep their gaps and
objectives rational, so they check the scaled sweeps independently.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import GdsError, ModeMismatch

Q = Fraction

Scalar = Union[Fraction, float, int]

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

# Comparison tolerance for float mode.  Exact mode never consults it.
FLOAT_TOL = 1e-9

ZERO = Q(0)

# The exponent of a decimal string, as fractions.Fraction parses it.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")

# The largest decimal exponent exact mode parses.  A larger one would
# build a 10**|e| before the value could be checked; 10**600 is cheap, and
# its 601 digits print under any int/str digit limit (640 at the least).
# Every value from 1e309 up is refused anyway: format_scalar renders
# through float, which overflows there.
MAX_EXPONENT = 600


def tolerance(mode: str) -> Scalar:
    """Comparison slack of a mode: 0 in exact mode, FLOAT_TOL in float mode."""
    return 0 if mode == EXACT else FLOAT_TOL


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
    user wrote, decimal exponents beyond MAX_EXPONENT, and values too large
    for a float.  Float mode accepts anything float() does, plus "p/q" strings, so
    exact-mode documents stay readable, and refuses NaN and infinities.
    Refusals raise GdsError.
    """
    if mode == FLOAT:
        try:
            if isinstance(value, str) and "/" in value:
                x = float(Fraction(value.strip()))
            else:
                x = float(value)
        except OverflowError:
            x = math.inf
        except (ValueError, ZeroDivisionError):
            raise GdsError(f"not a number: {str(value)[:40]!r}") from None
        if not math.isfinite(x):
            raise GdsError(f"non-finite number {value!r}")
        return x
    if isinstance(value, float):
        raise ModeMismatch(
            "refusing to coerce a float into exact mode; pass a string or rational"
        )
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        try:
            if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
                raise GdsError(
                    f"decimal exponent of {text[:40]!r} exceeds {MAX_EXPONENT}"
                )
            x = Q(text)
        except (ValueError, ZeroDivisionError):
            raise GdsError(f"not a number: {text[:40]!r}") from None
    else:
        x = Q(value)
    try:
        float(x)
    except OverflowError:
        raise GdsError(f"{str(value)[:40]!r} is too large for a float") from None
    return x


def scaled_ints(*vectors) -> tuple:
    """Exact vectors as ints over one common denominator.

    Returns (scaled vectors, D), where D is the lcm of every entry's
    denominator and each entry is multiplied by D.  Sums, differences,
    absolute gaps and minima of the scaled entries are those of the
    rationals times D, and every comparison comes out the same, so a
    max-flow, a mass scan or a threshold sweep runs on ints and
    unscaled(x, D) recovers each rational it returns.  Vectors holding a float (float mode) come back unchanged,
    with D = None.
    """
    if any(isinstance(x, float) for v in vectors for x in v):
        return vectors, None
    D = math.lcm(*(x.denominator for v in vectors for x in v))
    return (
        tuple([x.numerator * (D // x.denominator) for x in v] for v in vectors),
        D,
    )


def unscaled(x, D):
    """Undo scaled_ints on one value: x / D as a rational (x if D is None)."""
    return x if D is None else Q(x, D)


def unscaled_rows(rows, D) -> tuple:
    """unscaled on every entry of a matrix, as a tuple of tuples."""
    return tuple(tuple(unscaled(x, D) for x in row) for row in rows)


def scaled_ceil(x, D):
    """The least int at or above x * D, for a rational x (x if D is None).

    An int c reaches x * D exactly when c >= scaled_ceil(x, D), so a scan
    that keeps its values as ints over D meets a rational bound x this way.
    """
    return x if D is None else -(-x.numerator * D // x.denominator)


def scalar_list(values: Iterable, mode: str) -> tuple:
    return tuple(to_scalar(v, mode) for v in values)


def format_scalar(x: Scalar) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{float(x):.12g}"


def exact_string(x: Scalar, mode: str) -> str:
    """Lossless rendering: "p/q" in exact mode, repr(float) otherwise."""
    if mode == EXACT:
        return str(Fraction(x))
    return repr(float(x))


def close(a: Scalar, b: Scalar, mode: str) -> bool:
    if mode == EXACT:
        return a == b
    return abs(a - b) <= FLOAT_TOL


def leq(a: Scalar, b: Scalar, mode: str) -> bool:
    if mode == EXACT:
        return a <= b
    return a <= b + FLOAT_TOL
