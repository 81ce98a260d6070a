"""Closed-form two-color Ramsey and k-color rainbow-free threshold values.

All arithmetic is exact (Python integers), so no overflow is possible at
any argument size.  Domain checks are strict: the star-plus and path-plus
closed forms start at t = 4 because the t = 3 target degenerates to the
triangle, whose two-color Ramsey number is 6, not 2*3 - 1.
"""

from __future__ import annotations

import sys

TARGET_FAMILIES = ("star-plus", "path-plus")


def _check_family(family: str) -> None:
    if family not in TARGET_FAMILIES:
        raise ValueError(f"unknown target family {family!r}, expected one of {TARGET_FAMILIES}")


def _check_t(t: int) -> None:
    if t < 4:
        raise ValueError(f"need t >= 4, got {t}; the t = 3 target is the triangle and follows R = 6")


def gr_value(family: str, t: int, k: int) -> int:
    """Least order forcing, in every k-coloring, a rainbow triangle or a
    monochromatic copy of the family's target on t vertices.

    Even k: 2(t-1) * 5^((k-2)/2) + 1.  Odd k: (t-1) * 5^((k-1)/2) + 1.
    Both families share the same value.
    """
    _check_family(family)
    _check_t(t)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k % 2 == 0:
        return 2 * (t - 1) * 5 ** ((k - 2) // 2) + 1
    return (t - 1) * 5 ** ((k - 1) // 2) + 1


def ramsey_value(family: str, s: int, t: int) -> int:
    """Two-color Ramsey number for a pair of targets from the family on s and
    t vertices: 2*max(s, t) - 1, valid from 4 upward."""
    _check_family(family)
    if s < 4 or t < 4:
        raise ValueError(f"need s, t >= 4, got s={s}, t={t}; the t = 3 target follows R = 6")
    return linear_claim(s, t)[0]


def linear_claim(s: int, t: int) -> tuple[int, int]:
    """The value a search on targets of sizes s and t is held against, and
    the largest order it tries: (2*max(s, t) - 1, 2*max(s, t) + 1).  Unlike
    ramsey_value this accepts size 3, where the claim fails (see
    size_three_divergence)."""
    expected = 2 * max(s, t) - 1
    return expected, expected + 2


def size_three_divergence(s: int, t: int, value: int) -> str | None:
    """The note explaining why a certified ``value`` departs from the linear
    form when a target has 3 vertices, or None when both have more."""
    if min(s, t) != 3:
        return None
    return (
        "the linear form 2*max(s, t) - 1 holds only from size 4 upward; "
        "at size 3 the target degenerates to the triangle and the "
        f"certified value is {value}"
    )


def _cycle_branch(m: int, n: int) -> tuple[str, int]:
    """The branch of the cycle formula that (m, n) takes, and its value."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    if (m, n) in ((3, 3), (4, 4)):
        raise ValueError(f"the pair ({m}, {n}) is a classical exception outside the formula")
    if m % 2 == 1:
        return "shorter-odd", 2 * n - 1
    if n % 2 == 0:
        return "both-even", n - 1 + m // 2
    return "shorter-even-longer-odd", max(n - 1 + m // 2, 2 * m - 1)


def cycle_ramsey(m: int, n: int) -> int:
    """Two-color Ramsey number of a cycle pair (shorter length m, longer n).

    Odd m: 2n - 1.  Both even: n - 1 + m/2.  m even with n odd: the larger
    of n - 1 + m/2 and 2m - 1.  The classical exceptions (3,3) and (4,4)
    are outside the formula's domain.
    """
    return _cycle_branch(m, n)[1]


def even_cycle_gr_bounds(n: int, k: int) -> tuple[int, int]:
    """Lower and upper bounds for the k-color rainbow-free threshold of the
    even cycle on 2n vertices: (n-1)k + n + 1 up to (n-1)k + 3n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return (n - 1) * k + n + 1, (n - 1) * k + 3 * n


def describe_gr(family: str, t: int, k: int) -> dict:
    """The value with its branch.  Raises ValueError, naming the largest k
    accepted for this t, when the value has more decimal digits than the
    interpreter will print."""
    value = gr_value(family, t, k)
    # Python 3.10 before 3.10.7 prints integers of any length
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and value >= 10**digits:
        lo, hi = 0, k  # the value grows with k: lo is accepted (or 0), hi is not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if gr_value(family, t, mid) < 10**digits else (lo, mid)
        raise ValueError(
            f"k = {k} gives a value of more than {digits} decimal digits; "
            f"the largest k accepted for this t is {lo}"
        )
    return {"value": value, "branch": "even-k" if k % 2 == 0 else "odd-k"}


def describe_ramsey(family: str, s: int, t: int) -> dict:
    return {"value": ramsey_value(family, s, t), "branch": "linear-in-max"}


def describe_cycle(m: int, n: int) -> dict:
    branch, value = _cycle_branch(m, n)
    return {"value": value, "branch": branch}


def describe_even_cycle_bounds(n: int, k: int) -> dict:
    lower, upper = even_cycle_gr_bounds(n, k)
    return {"lower": lower, "upper": upper, "branch": "interval"}
