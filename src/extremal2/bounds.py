"""Effective central-charge bounds per category.

Two one-sided arguments turn the recurrence into a finite search window:

* positive side: along c -> c + 24n from each class seed (``seed_rows``)
  the diagonal iterate makes chi_00 eventually negative; the published
  per-class cutoff n_max is the sign change of the concave quadratic

      Qt(n) = -240 n^2 + |M| n + |(h - 1) chi_00|,
      M = chi_00 + chi_11 - 240 (h - 1),

  whose positive root is the radical threshold quoted in the bound.  The
  sign test is decided in exact rational arithmetic; no square roots are
  ever evaluated.

* negative side: ``negative_base_point`` steps c -> c - 24 (``iterate``)
  from each class seed until h < 0, beta > 1 and |chi_10| <= 1 hold; from
  there |beta| stays above 1 (so chi_10 can never again be an integer) for
  every n > |alpha - 120(1-h)| (1-h) / 860, an exactly rational threshold.

``positive_rows`` and ``negative_rows`` give a category's 3 rows per side,
one per class, and ``c_extremes`` folds them into (c_min, c_max).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chimat import CharMatrix, alpha_beta, iterate, seed_rows
from .genus import CategoryInfo, category

__all__ = [
    "nmax_positive",
    "positive_threshold_witness",
    "nmax_negative",
    "negative_threshold",
    "negative_base_point",
    "c_extremes",
    "positive_rows",
    "negative_rows",
]


def _quadratic_data(m: CharMatrix, h: Fraction) -> tuple[Fraction, Fraction]:
    """|M| and |(h - 1) chi_00|, the linear and constant coefficients of Qt."""
    if h <= 0:
        raise ValueError("lemma requires h_ext > 0")
    big_m = m.x + m.w - 240 * (h - 1)
    return abs(big_m), abs((h - 1) * m.x)


def nmax_positive(m: CharMatrix, h: Fraction) -> int:
    """Least n_max >= 0 with Qt(n) < 0 for every integer n > n_max.

    Qt is the absolute-coefficient quadratic described in the module
    docstring; it is concave with one sign change on n >= 1, so a forward
    scan of exact evaluations terminates and is exact.
    """
    a, b = _quadratic_data(m, Fraction(h))

    def qt(n: int) -> Fraction:
        return -240 * n * n + a * n + b

    n = 1
    while qt(n) >= 0:
        n += 1
    return n - 1


def _isqrt_ceil(value: int) -> int:
    r = math.isqrt(value)
    return r if r * r == value else r + 1


def positive_threshold_witness(m: CharMatrix, h: Fraction) -> Fraction:
    """Rational witness for the positive-side threshold (|M| + sqrt(disc))/480.

    Exact when disc is a perfect rational square; otherwise sqrt(disc) is
    replaced by the least multiple of 1e-6 at or above it, so the witness
    lies at or above the true irrational threshold.
    """
    a, b = _quadratic_data(m, Fraction(h))
    disc = a * a + 960 * b
    num, den = disc.numerator, disc.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return (a + Fraction(rn, rd)) / 480
    # least s with (s/10^6)^2 >= disc, i.e. s^2 * den >= num * 10^12; s^2 is an
    # integer, so that is s^2 >= ceil(num * 10^12 / den)
    scale = 10**6
    s = _isqrt_ceil(-(-num * scale * scale // den))
    return (a + Fraction(s, scale)) / 480


def negative_threshold(m: CharMatrix, h: Fraction) -> Fraction:
    """Exact rational threshold |alpha - 120(1-h)| (1-h) / 860."""
    ab = alpha_beta(m)
    return abs(ab.alpha - 120 * (1 - h)) * (1 - h) / 860


def nmax_negative(m: CharMatrix, h: Fraction) -> int:
    """Least n_max >= 0 such that every integer n > n_max exceeds the threshold.

    Hypotheses: h < 0, beta > 1 and |chi_10| <= 1; each violation is
    reported by name.
    """
    h = Fraction(h)
    if h >= 0:
        raise ValueError("lemma requires h_ext < 0")
    ab = alpha_beta(m)
    if not ab.beta > 1:
        raise ValueError("lemma requires beta > 1")
    if not abs(m.z) <= 1:
        raise ValueError("lemma requires |chi10| <= 1")
    return max(0, math.floor(negative_threshold(m, h)))


def negative_base_point(
    cat: CategoryInfo | str, class_index: int
) -> tuple[Fraction, CharMatrix, Fraction]:
    """Step c -> c - 24 from the class seed until the negative-side hypotheses hold.

    Returns the first (c, chi, h) with h < 0, beta > 1 and |chi_10| <= 1;
    these are the per-class base points the lower bound is anchored at.
    """
    c, m, h = seed_rows(cat)[class_index]
    for _ in range(64):
        if h < 0 and alpha_beta(m).beta > 1 and abs(m.z) <= 1:
            return c, m, h
        m, h = iterate(m, h, -1)
        c -= 24
    raise RuntimeError("no valid negative-side base point within 64 steps")


def c_extremes(cat: CategoryInfo | str) -> tuple[Fraction, Fraction]:
    """(c_min, c_max) for a category, combining its three classes."""
    c_max = max(r["c"] + 24 * r["n_max"] for r in positive_rows(cat))
    c_min = min(r["c"] - 24 * r["n_max"] for r in negative_rows(cat))
    return c_min, c_max


def positive_rows(cat: CategoryInfo | str) -> list[dict]:
    """A category's 3 positive-side rows, one per class, ascending class c."""
    cat = category(cat)
    rows = []
    for c, m, h in seed_rows(cat):
        rows.append(
            {
                "category": cat.id,
                "c": c,
                "chi": m,
                "h_ext": h,
                "n_max": nmax_positive(m, h),
            }
        )
    return rows


def negative_rows(cat: CategoryInfo | str) -> list[dict]:
    """A category's 3 negative-side rows, one per class, descending base c."""
    cat = category(cat)
    rows = []
    for i in reversed(range(3)):
        c, m, h = negative_base_point(cat, i)
        ab = alpha_beta(m)
        rows.append(
            {
                "category": cat.id,
                "c": c,
                "chi": m,
                "h_ext": h,
                "alpha": ab.alpha,
                "beta": ab.beta,
                "n_max": nmax_negative(m, h),
                "chi10": m.z,
            }
        )
    return rows
