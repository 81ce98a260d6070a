from __future__ import annotations

import sys

import pytest

from gallai_forge import formulas
from gallai_forge.formulas import (
    TARGET_FAMILIES,
    cycle_ramsey,
    describe_cycle,
    describe_even_cycle_bounds,
    describe_gr,
    describe_ramsey,
    even_cycle_gr_bounds,
    gr_value,
    ramsey_value,
)


def test_families():
    assert TARGET_FAMILIES == ("star-plus", "path-plus")


@pytest.mark.parametrize("family", TARGET_FAMILIES)
def test_gr_spot_values(family):
    assert gr_value(family, 4, 1) == 4
    assert gr_value(family, 4, 2) == 7
    assert gr_value(family, 4, 3) == 16
    assert gr_value(family, 4, 4) == 31
    assert gr_value(family, 4, 5) == 76
    assert gr_value(family, 5, 4) == 41
    assert gr_value(family, 6, 5) == 126


def test_gr_two_color_linear_form():
    for family in TARGET_FAMILIES:
        for t in range(4, 65):
            assert gr_value(family, t, 2) == 2 * t - 1


def test_gr_recurrence_two_more_colors():
    for family in TARGET_FAMILIES:
        for t in range(4, 17):
            for k in range(1, 17):
                assert gr_value(family, t, k + 2) == 5 * (gr_value(family, t, k) - 1) + 1


def test_gr_rejects_degenerate_target():
    with pytest.raises(ValueError):
        gr_value("star-plus", 3, 2)
    with pytest.raises(ValueError):
        gr_value("star-plus", 4, 0)
    with pytest.raises(ValueError):
        gr_value("cycle", 4, 2)  # not a supported family here


def test_ramsey_value_linear():
    assert ramsey_value("star-plus", 4, 4) == 7
    assert ramsey_value("path-plus", 4, 5) == 9
    assert ramsey_value("star-plus", 6, 4) == 11
    with pytest.raises(ValueError):
        ramsey_value("star-plus", 3, 4)


def test_cycle_spot_values():
    assert cycle_ramsey(5, 7) == 13  # both odd: 2n-1
    assert cycle_ramsey(4, 6) == 7  # both even: n - 1 + m/2
    assert cycle_ramsey(4, 7) == 8  # even vs odd: max(n - 1 + m/2, 2m - 1)
    assert cycle_ramsey(3, 5) == 9
    assert cycle_ramsey(6, 8) == 10
    assert cycle_ramsey(4, 5) == 7  # max(4 - 1 + 2, 7) = 7


def test_cycle_exclusions_and_ordering():
    with pytest.raises(ValueError):
        cycle_ramsey(3, 3)
    with pytest.raises(ValueError):
        cycle_ramsey(4, 4)
    with pytest.raises(ValueError):
        cycle_ramsey(7, 5)  # m must not exceed n
    with pytest.raises(ValueError):
        cycle_ramsey(2, 6)


def test_even_cycle_bounds():
    assert even_cycle_gr_bounds(4, 3) == (14, 21)
    for n in range(2, 51):
        for k in range(1, 51):
            lo, hi = even_cycle_gr_bounds(n, k)
            assert lo == (n - 1) * k + n + 1
            assert hi == (n - 1) * k + 3 * n
            assert lo <= hi
    with pytest.raises(ValueError):
        even_cycle_gr_bounds(1, 3)


def test_describe_gr_branches():
    even = describe_gr("star-plus", 4, 2)
    assert even == {"value": 7, "branch": "even-k"}
    odd = describe_gr("star-plus", 4, 3)
    assert odd == {"value": 16, "branch": "odd-k"}


def test_describe_gr_refuses_a_huge_k_from_k(monkeypatch):
    # at k = 10^8 the value has about 35 million digits and takes minutes;
    # the refusal computes no value for a k far beyond the largest accepted
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    seen = []

    def counted(family, t, k):
        seen.append(k)
        return gr_value(family, t, k)

    monkeypatch.setattr(formulas, "gr_value", counted)
    refusal = "k = 100000000 gives a value of more than 4300 decimal digits; the largest k accepted for this t is 12303"
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        describe_gr("star-plus", 4, 10**8)
    assert max(seen) <= 2 * 12303
    assert describe_gr("star-plus", 4, 12303)["value"] < 10**4300 <= gr_value("star-plus", 4, 12304)


def test_describe_ramsey():
    assert describe_ramsey("path-plus", 4, 5) == {"value": 9, "branch": "linear-in-max"}


def test_describe_cycle_branches():
    assert describe_cycle(5, 7)["branch"] == "shorter-odd"
    assert describe_cycle(4, 6)["branch"] == "both-even"
    assert describe_cycle(4, 7)["branch"] == "shorter-even-longer-odd"


def test_describe_even_cycle_bounds():
    d = describe_even_cycle_bounds(4, 3)
    assert d == {"lower": 14, "upper": 21, "branch": "interval"}
