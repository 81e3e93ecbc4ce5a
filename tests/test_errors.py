"""Integer checks and the formatting of integers in messages."""
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphbandits import InputError
from graphbandits.errors import at_least, decimal_digits, int_text, integer


class TestIntegerChecks:
    @pytest.mark.parametrize(
        "value", [2.0, 2.5, True, False, "3", None, np.float64(3.0), np.bool_(True)]
    )
    def test_non_integers_are_refused_by_name(self, value):
        want = re.escape(f"horizon must be an integer, got {value!r}")
        with pytest.raises(InputError, match=f"^{want}$"):
            at_least("horizon", value)
        with pytest.raises(InputError, match="^horizon must be an integer"):
            integer("horizon", value)

    @pytest.mark.parametrize(
        "value", [7, np.int64(7), np.int8(7), np.uint64(7), np.array(7)]
    )
    def test_integers_and_numpy_integers_pass_as_int(self, value):
        for got in (at_least("horizon", value), integer("horizon", value)):
            assert type(got) is int and got == 7

    def test_range_message_is_unchanged(self):
        with pytest.raises(InputError, match="^num_runs must be at least 1, got 0$"):
            at_least("num_runs", 0)
        with pytest.raises(InputError, match=r"^seed must be at least 0, got -<5001 digits>$"):
            at_least("seed", -(10**5000), 0)


class TestIntegerText:
    @given(st.integers(0, 4299).flatmap(
        lambda d: st.integers(-(10 ** (d + 1)) + 1, 10 ** (d + 1) - 1)))
    def test_digit_count_matches_str(self, value):
        assert decimal_digits(value) == len(str(abs(value)))

    @pytest.mark.parametrize("digits", [1, 2, 15, 16, 17, 308, 4300, 4301, 20000])
    def test_digit_count_at_powers_of_ten(self, digits):
        # 10^(d-1) has d digits and 10^(d-1) - 1 one fewer, past str()'s limit too
        assert decimal_digits(10 ** (digits - 1)) == digits
        assert decimal_digits(10 ** (digits - 1) - 1) == max(digits - 1, 1)

    def test_short_values_print_in_full(self):
        assert int_text(0) == "0"
        assert int_text(-12) == "-12"
        assert int_text(10**49) == "1" + "0" * 49

    def test_long_values_print_their_digit_count(self):
        assert int_text(10**50) == "<51 digits>"
        assert int_text(-(10**50)) == "-<51 digits>"
        assert int_text(10**50, max_digits=60) == str(10**50)
        # None: as many digits as str() converts, then the caller's text
        assert int_text(10**4299, None) == str(10**4299)
        assert int_text(10**4300, None) == "<4301 digits>"
        assert int_text(2**14285, None, "2^14285") == "2^14285"
