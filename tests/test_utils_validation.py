"""Tests for repro.utils.validation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckProbability:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, v):
        assert check_probability(v, "p") == v

    @pytest.mark.parametrize("v", [-0.1, 1.1, math.nan])
    def test_rejects_invalid(self, v):
        with pytest.raises(ValueError):
            check_probability(v, "p")

    def test_open_lower_endpoint(self):
        with pytest.raises(ValueError, match=r"\(0"):
            check_probability(0.0, "p", allow_zero=False)
        assert check_probability(1e-9, "p", allow_zero=False) == 1e-9

    def test_open_upper_endpoint(self):
        with pytest.raises(ValueError, match=r"1\)"):
            check_probability(1.0, "p", allow_one=False)

    def test_rejects_bool_and_str(self):
        with pytest.raises(TypeError):
            check_probability(True, "p")
        with pytest.raises(TypeError):
            check_probability("0.5", "p")

    def test_error_names_the_argument(self):
        with pytest.raises(ValueError, match="my_prob"):
            check_probability(2.0, "my_prob")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3.5, "x") == 3.5

    @pytest.mark.parametrize("v", [0.0, -1.0, math.inf, math.nan])
    def test_rejects(self, v):
        with pytest.raises(ValueError):
            check_positive(v, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-1e-9, "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_non_negative(math.inf, "x")


class TestCheckInRange:
    def test_inclusive_endpoints(self):
        assert check_in_range(2.0, "x", 2.0, 3.0) == 2.0
        assert check_in_range(3.0, "x", 2.0, 3.0) == 3.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(1.9, "x", 2.0, 3.0)
        with pytest.raises(ValueError):
            check_in_range(3.1, "x", 2.0, 3.0)


class TestCheckInteger:
    def test_accepts_int(self):
        assert check_integer(5, "n") == 5

    def test_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            check_integer(5.0, "n")
        with pytest.raises(TypeError):
            check_integer(True, "n")

    def test_bounds(self):
        assert check_integer(5, "n", minimum=5, maximum=5) == 5
        with pytest.raises(ValueError, match=">= 6"):
            check_integer(5, "n", minimum=6)
        with pytest.raises(ValueError, match="<= 4"):
            check_integer(5, "n", maximum=4)

    def test_numpy_integer_accepted(self):
        import numpy as np

        assert check_integer(np.int64(7), "n") == 7


# Every checker on each kind of input: the result (its value and exact
# type; -0.0 keeps its sign) or the exception type and message.  A plain
# float takes a fast path past the ``numbers`` ABC checks; nothing else
# may see a difference.
INPUTS = {
    "float": 0.5, "-0.0": -0.0, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "int": 1, "bool": True, "np.float64": np.float64(0.5),
    "np.int64": np.int64(1), "Fraction": Fraction(1, 2), "str": "0.5",
}
CHECKS = {
    "probability": lambda v: check_probability(v, "p"),
    "positive": lambda v: check_positive(v, "x"),
    "non_negative": lambda v: check_non_negative(v, "x"),
    "in_range": lambda v: check_in_range(v, "x", 0.0, 1.0),
    "integer": lambda v: check_integer(v, "n"),
}


def _real_type(v, name):
    return TypeError(f"{name} must be a real number, got {type(v).__name__}")


def _int_type(v):
    return TypeError(f"n must be an integer, got {type(v).__name__}")


EXPECTED = {
    "probability": {
        "float": 0.5, "-0.0": -0.0, "int": 1.0, "np.float64": 0.5,
        "np.int64": 1.0, "Fraction": 0.5,
        "nan": ValueError("p must not be NaN"),
        "inf": ValueError("p must be in [0, 1], got inf"),
        "-inf": ValueError("p must be in [0, 1], got -inf"),
        "bool": _real_type(True, "p"), "str": _real_type("", "p")},
    "positive": {
        "float": 0.5, "int": 1.0, "np.float64": 0.5, "np.int64": 1.0,
        "Fraction": 0.5,
        "-0.0": ValueError("x must be a finite positive number, got -0.0"),
        "nan": ValueError("x must be a finite positive number, got nan"),
        "inf": ValueError("x must be a finite positive number, got inf"),
        "-inf": ValueError("x must be a finite positive number, got -inf"),
        "bool": _real_type(True, "x"), "str": _real_type("", "x")},
    "non_negative": {
        "float": 0.5, "-0.0": -0.0, "int": 1.0, "np.float64": 0.5,
        "np.int64": 1.0, "Fraction": 0.5,
        "nan": ValueError("x must be a finite non-negative number, got nan"),
        "inf": ValueError("x must be a finite non-negative number, got inf"),
        "-inf": ValueError(
            "x must be a finite non-negative number, got -inf"),
        "bool": _real_type(True, "x"), "str": _real_type("", "x")},
    "in_range": {
        "float": 0.5, "-0.0": -0.0, "int": 1.0, "np.float64": 0.5,
        "np.int64": 1.0, "Fraction": 0.5,
        "nan": ValueError("x must be in [0.0, 1.0], got nan"),
        "inf": ValueError("x must be in [0.0, 1.0], got inf"),
        "-inf": ValueError("x must be in [0.0, 1.0], got -inf"),
        "bool": _real_type(True, "x"), "str": _real_type("", "x")},
    "integer": {
        "int": 1, "np.int64": 1,
        **{kind: _int_type(INPUTS[kind])
           for kind in ("float", "-0.0", "nan", "inf", "-inf", "bool",
                        "np.float64", "Fraction", "str")}},
}


@pytest.mark.parametrize("check, kind", [
    (check, kind) for check in CHECKS for kind in INPUTS])
def test_every_input_kind_gets_its_result(check, kind):
    want = EXPECTED[check][kind]
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            CHECKS[check](INPUTS[kind])
        assert str(info.value) == str(want)
        return
    got = CHECKS[check](INPUTS[kind])
    assert type(got) is type(want)
    assert got == want and math.copysign(1, got) == math.copysign(1, want)


class TestTables:
    def test_format_table_alignment(self):
        from repro.utils.tables import format_table

        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "2.500" in out and "0.125" in out
        assert len(lines) == 4

    def test_format_table_title_and_floatfmt(self):
        from repro.utils.tables import format_table

        out = format_table(["x"], [[1.23456]], floatfmt=".1f", title="T")
        assert out.splitlines()[0] == "T"
        assert "1.2" in out and "1.23" not in out

    def test_format_table_rejects_ragged_rows(self):
        from repro.utils.tables import format_table

        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])
