"""Catalog of the eight rank-two modular tensor categories.

Each category is recorded by the data a character computation actually
consumes: a normalized S-matrix (kept exact as entries over Q(sqrt 5)
divided by the square root of a normalization constant), the class of the
central charge mod 8, and the class of the non-vacuum conformal weight
mod 1.  A *genus* pairs a category with an admissible central charge; its
derived quantities (extremal weight, the integer ell, the two exponents)
are what the recursion and the differential equation consume.

Convention note: the two "dagger" categories share one S-matrix and are
braid-reverses of each other, so swapping their (c mod 8, h mod 1) data
relabels rather than changes the catalog.  We fix the binding
semion-dagger = (c = 3 mod 8, h = 3/4 mod 1), which is the one all the
per-category bound tables downstream are keyed to.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "Surd",
    "CategoryInfo",
    "Genus",
    "CATALOG",
    "category",
    "is_admissible",
    "h_ext",
    "genus",
    "modular_rep_check",
]


class Surd(NamedTuple):
    """Exact element a + b*sqrt(5) of Q(sqrt 5), with rational a and b."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*sqrt(5)"


def _s(a, b=0) -> Surd:
    return Surd(Fraction(a), Fraction(b))


def _add(x: Surd, y: Surd) -> Surd:
    return Surd(x.a + y.a, x.b + y.b)


def _mul(x: Surd, y: Surd) -> Surd:
    return Surd(x.a * y.a + 5 * x.b * y.b, x.a * y.b + x.b * y.a)


class CategoryInfo(NamedTuple):
    """One catalog row: id, exact S-matrix data, and the two residue classes.

    The S-matrix is ``s_num / sqrt(s_norm)`` entrywise; ``s_num`` entries
    and ``s_norm`` live in Q(sqrt 5), and :func:`modular_rep_check`
    decides S^2 = I and (S T)^3 = I on them exactly.
    """

    id: str
    s_num: tuple[tuple[Surd, Surd], tuple[Surd, Surd]]
    s_norm: Surd
    c_mod8: Fraction
    h_mod1: Fraction

    def __str__(self) -> str:
        return self.id


_PHI = _s(Fraction(1, 2), Fraction(1, 2))          # golden ratio
_PHI_M1 = _s(Fraction(-1, 2), Fraction(1, 2))      # golden ratio - 1
_TWO_PLUS_PHI = _s(Fraction(5, 2), Fraction(1, 2))
_THREE_MINUS_PHI = _s(Fraction(5, 2), Fraction(-1, 2))
# 4 sin^2(pi h), keyed by the distance from h to the nearest integer
_FOUR_SIN2 = {Fraction(1, 4): _s(2), Fraction(1, 5): _THREE_MINUS_PHI,
              Fraction(2, 5): _TWO_PLUS_PHI}

_SEMION_S = ((_s(1), _s(1)), (_s(1), _s(-1)))
_DAGGER_S = ((_s(-1), _s(1)), (_s(1), _s(1)))
_FIB_S = ((_s(1), _PHI), (_PHI, _s(-1)))
_YL_S = ((_s(-1), _PHI_M1), (_PHI_M1, _s(1)))

CATALOG: tuple[CategoryInfo, ...] = (
    CategoryInfo("semion", _SEMION_S, _s(2), Fraction(1), Fraction(1, 4)),
    CategoryInfo("semion-bar", _SEMION_S, _s(2), Fraction(7), Fraction(3, 4)),
    CategoryInfo("semion-dagger", _DAGGER_S, _s(2), Fraction(3), Fraction(3, 4)),
    CategoryInfo("semion-bar-dagger", _DAGGER_S, _s(2), Fraction(5), Fraction(1, 4)),
    CategoryInfo("fib", _FIB_S, _TWO_PLUS_PHI, Fraction(14, 5), Fraction(2, 5)),
    CategoryInfo("fib-bar", _FIB_S, _TWO_PLUS_PHI, Fraction(26, 5), Fraction(3, 5)),
    CategoryInfo("yang-lee", _YL_S, _THREE_MINUS_PHI, Fraction(18, 5), Fraction(4, 5)),
    CategoryInfo("yang-lee-bar", _YL_S, _THREE_MINUS_PHI, Fraction(22, 5), Fraction(1, 5)),
)

_BY_ID = {cat.id: cat for cat in CATALOG}


def category(cat: CategoryInfo | str) -> CategoryInfo:
    """Look a catalog row up by its serialized id, e.g. ``"yang-lee"``, or by a row's id."""
    cat_id = cat if isinstance(cat, str) else cat.id
    try:
        return _BY_ID[cat_id]
    except KeyError:
        raise ValueError(
            f"unknown category {cat_id!r}; known: {', '.join(sorted(_BY_ID))}"
        ) from None


def is_admissible(cat: CategoryInfo, c: Fraction | int) -> bool:
    """Whether c lies in the category's central-charge class mod 8."""
    return (Fraction(c) - cat.c_mod8) % 8 == 0


def h_ext(cat: CategoryInfo, c: Fraction | int) -> Fraction:
    """The unique weight h in the category's class mod 1 with 0 <= 1 + c/2 - 6h < 6.

    Solving the double inequality puts h in the half-open window
    (U - 1, U] with U = (1 + c/2)/6, which contains exactly one
    representative of each class mod 1.
    """
    c = Fraction(c)
    if not is_admissible(cat, c):
        raise ValueError(
            f"c not in category's class mod 8: {cat.id} needs "
            f"c = {cat.c_mod8} (mod 8), got c = {c % 8} (mod 8)"
        )
    upper = (1 + c / 2) / 6
    return cat.h_mod1 + math.floor(upper - cat.h_mod1)


class Genus(NamedTuple):
    """A category together with an admissible central charge.

    ``ell`` is 1 + c/2 - 6*h_ext, always an integer in 0..5; ``exponent0 =
    -c/24`` and ``exponent1 = h_ext - c/24`` are the characters' leading
    q-powers, the indicial roots of their MLDE (Mathur-Mukhi-Sen 1988).
    """

    category: CategoryInfo
    c: Fraction
    h_ext: Fraction
    ell: int
    exponent0: Fraction
    exponent1: Fraction


def genus(cat: CategoryInfo, c: Fraction | int) -> Genus:
    """Build the genus (cat, c), validating admissibility."""
    c = Fraction(c)
    h = h_ext(cat, c)
    if h.denominator == 1:
        raise ValueError(f"extremal weight {h} must not be an integer")
    ell = 1 + c / 2 - 6 * h
    if ell.denominator != 1:
        raise ValueError(f"ell = {ell} is not an integer for ({cat.id}, {c})")
    return Genus(cat, c, h, int(ell), -c / 24, h - c / 24)


def modular_rep_check(cat: CategoryInfo, c: Fraction | int) -> bool:
    """Exact check that S^2 = I and (S T)^3 = I for the genus (cat, c).

    Write S = A/sqrt(N), A = ((a, b), (b', e)) = ``s_num``, N = ``s_norm``,
    and T = t*diag(1, u), t = e^(-2 pi i c/24), u = e^(2 pi i h), h = h_ext.

    - S^2 = I iff A^2 = N*I: e = -a and a^2 + b*b' = N, or A = a*I, where
      ST = +-T and T^3 is not scalar, as 3h is not an integer.
    - With e = -a, ST is not scalar, so by Cayley-Hamilton (ST)^3 = I iff
      tr^2 = det and tr*det = -1.  As det = -t^2 u and
      tr = a t (1 - u)/sqrt(N) with 1 - u = -2i sin(pi h) e^(pi i h), the
      first is 4 a^2 sin^2(pi h) = N.  Then 2 a sin(pi h)/sqrt(N) = +-1,
      tr*det = +-i t^3 e^(3 pi i h), and the second is
      -c/8 - 1/4 + 3h/2 + [a sin(pi h) < 0]/2 in Z.
    - 4 sin^2(pi h) is 2 for h in 1/4 + Z/2, 3 - phi for h = +-1/5 and
      2 + phi for h = +-2/5 (mod 1); sin(pi h) < 0 iff floor(h) is odd.

    An h whose denominator is not 4 or 5 raises ValueError.
    """
    h = h_ext(cat, c)
    four_sin2 = _FOUR_SIN2.get(min(h % 1, -h % 1))
    if four_sin2 is None:
        raise ValueError(f"no exact sin^2(pi h) for h = {h}: its denominator is not 4 or 5")
    (a, b), (b_t, e) = cat.s_num
    # a has the sign of the larger of |a.a| and |a.b|*sqrt(5), which differ unless a = 0
    a_negative = (a.a if a.a * a.a > 5 * a.b * a.b else a.b) < 0
    negative = a_negative != (math.floor(h) % 2 == 1)
    phase = -Fraction(c) / 8 - Fraction(1, 4) + 3 * h / 2 + Fraction(negative, 2)
    return (_add(a, e) == _s(0) and _add(_mul(a, a), _mul(b, b_t)) == cat.s_norm
            and _mul(_mul(a, a), four_sin2) == cat.s_norm and phase.denominator == 1)
