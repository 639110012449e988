from fractions import Fraction

import pytest

from gds.errors import GdsError, ModeMismatch
from gds.numerics import (
    EXACT,
    FLOAT,
    MAX_EXPONENT,
    Q,
    close,
    exact_string,
    format_scalar,
    leq,
    same_mode,
    to_scalar,
)


class TestToScalar:
    def test_exact_accepts_rational_strings(self):
        assert to_scalar("3/7", EXACT) == Q(3, 7)
        assert to_scalar("0.25", EXACT) == Q(1, 4)
        assert to_scalar(" 1/2 ", EXACT) == Q(1, 2)
        assert to_scalar(5, EXACT) == 5
        assert to_scalar(Fraction(2, 3), EXACT) == Q(2, 3)

    def test_exact_refuses_floats(self):
        with pytest.raises(ModeMismatch):
            to_scalar(0.25, EXACT)

    def test_exact_rejects_garbage(self):
        for mode in (EXACT, FLOAT):
            for text in ["zebra", "1/0", "", "1e_"]:
                with pytest.raises(GdsError):
                    to_scalar(text, mode)

    def test_exact_range_is_what_float_rendering_shows(self):
        # The bounds do not depend on the interpreter's int/str digit limit.
        assert to_scalar("1e308", EXACT) == 10**308
        assert to_scalar(f"1e-{MAX_EXPONENT}", EXACT) == Q(1, 10**MAX_EXPONENT)
        assert format_scalar(to_scalar("1e-400", EXACT)) == "0"
        assert exact_string(to_scalar("1e-400", EXACT), EXACT) == f"1/{10**400}"
        for text in ["1e309", "-1e400", f"1e-{MAX_EXPONENT + 1}", "1e999999"]:
            with pytest.raises(GdsError):
                to_scalar(text, EXACT)
        with pytest.raises(GdsError):
            to_scalar(10**400, EXACT)

    def test_float_refuses_non_finite(self):
        for value in ["nan", "inf", "-inf", "1e400", float("nan")]:
            with pytest.raises(GdsError):
                to_scalar(value, FLOAT)

    def test_float_accepts_everything_numeric(self):
        assert to_scalar("0.25", FLOAT) == 0.25
        assert to_scalar(0.25, FLOAT) == 0.25
        assert to_scalar(3, FLOAT) == 3.0

    def test_float_parses_rational_strings(self):
        # exact-mode documents must stay readable in float mode
        assert to_scalar("3/8", FLOAT) == 0.375


class TestRendering:
    def test_format_scalar_is_decimal(self):
        assert format_scalar(Q(1, 3)) == "0.333333333333"
        assert format_scalar(0.5) == "0.5"

    def test_exact_string_round_trips(self):
        for value in [Q(1, 3), Q(7, 2), Q(4), Q(0)]:
            assert to_scalar(exact_string(value, EXACT), EXACT) == value
        rendered = exact_string(0.1, FLOAT)
        assert float(rendered) == 0.1


class TestComparisons:
    def test_close_exact_is_equality(self):
        assert close(Q(1, 3), Q(1, 3), EXACT)
        assert not close(Q(1, 3), Q(1, 3) + Q(1, 10**12), EXACT)

    def test_close_float_uses_tolerance(self):
        assert close(0.1 + 0.2, 0.3, FLOAT)

    def test_leq(self):
        assert leq(Q(1, 3), Q(1, 2), EXACT)
        assert not leq(Q(1, 2), Q(1, 3), EXACT)
        assert leq(0.3000000001, 0.3, FLOAT)

    def test_same_mode_rejects_mixture(self):
        assert same_mode(EXACT, EXACT) == EXACT
        with pytest.raises(ModeMismatch):
            same_mode(EXACT, FLOAT)
