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

import cmath
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
    "ell_general",
    "genus",
    "modular_rep_check",
]


class Surd(NamedTuple):
    """Exact number a + b*sqrt(d) with rational a, b and d in {1, 5}."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 1

    def value(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*sqrt({self.d})"


def _s(a, b=0) -> Surd:
    if b == 0:
        return Surd(Fraction(a))
    return Surd(Fraction(a), Fraction(b), 5)


class CategoryInfo(NamedTuple):
    """One catalog row: id, exact S-matrix data, and the two residue classes.

    The S-matrix is ``s_num / sqrt(s_norm)`` entrywise; ``s_num`` entries
    and ``s_norm`` live in Q(sqrt 5) and are kept exact.  Nothing checks
    S^2 = I exactly: :func:`modular_rep_check` checks it in floats.
    """

    id: str
    s_num: tuple[tuple[Surd, Surd], tuple[Surd, Surd]]
    s_norm: Surd
    c_mod8: Fraction
    h_mod1: Fraction

    def s_matrix_float(self) -> list[list[float]]:
        scale = 1.0 / math.sqrt(self.s_norm.value())
        return [[e.value() * scale for e in row] for row in self.s_num]

    def __str__(self) -> str:
        return self.id


_PHI = _s(Fraction(1, 2), Fraction(1, 2))          # golden ratio
_PHI_M1 = _s(Fraction(-1, 2), Fraction(1, 2))      # golden ratio - 1
_TWO_PLUS_PHI = _s(Fraction(5, 2), Fraction(1, 2))
_THREE_MINUS_PHI = _s(Fraction(5, 2), Fraction(-1, 2))

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
            f"c = {cat.c_mod8} (mod 8), got {c}"
        )
    upper = (1 + c / 2) / 6
    return cat.h_mod1 + math.floor(upper - cat.h_mod1)


def ell_general(n: int, c: Fraction | int, h: list[Fraction]) -> Fraction:
    """binom(n,2) + n*c/4 - 6*sum(h_j) for a putative n-module spectrum.

    ``h`` lists the n-1 non-vacuum weights (the vacuum contributes h_0 = 0).
    """
    if n < 1:
        raise ValueError("need at least the vacuum module")
    if len(h) != n - 1:
        raise ValueError(f"expected {n - 1} non-vacuum weights, got {len(h)}")
    return Fraction(n * (n - 1), 2) + n * Fraction(c) / 4 - 6 * sum(h, Fraction(0))


class Genus(NamedTuple):
    """A category together with an admissible central charge.

    ``ell`` is 1 + c/2 - 6*h_ext, always an integer in 0..5;
    ``lambda0 = 1 - c/24`` and ``lambda1 = h_ext - c/24`` are the two
    exponents governing the q-expansion.
    """

    category: CategoryInfo
    c: Fraction
    h_ext: Fraction
    ell: int
    lambda0: Fraction
    lambda1: Fraction


def genus(cat: CategoryInfo, c: Fraction | int) -> Genus:
    """Build the genus (cat, c), validating admissibility."""
    c = Fraction(c)
    h = h_ext(cat, c)
    if h.denominator == 1:
        raise ValueError(f"extremal weight {h} must not be an integer")
    ell = ell_general(2, c, [h])
    if ell.denominator != 1:
        raise ValueError(f"ell = {ell} is not an integer for ({cat.id}, {c})")
    return Genus(cat, c, h, int(ell), 1 - c / 24, h - c / 24)


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]


def _max_dev_from_identity(m) -> float:
    dev = 0.0
    for i in range(2):
        for j in range(2):
            target = 1.0 if i == j else 0.0
            dev = max(dev, abs(m[i][j] - target))
    return dev


# largest entry-wise deviation from I that modular_rep_check accepts
_REP_TOL = 1e-12


def modular_rep_check(cat: CategoryInfo, c: Fraction | int) -> bool:
    """Float check that S^2 = I and (S T)^3 = I for the genus (cat, c).

    T is e^(-2 pi i c/24) * diag(1, e^(2 pi i h_ext)); this is the only
    place in the pipeline where the S-matrix is evaluated numerically.
    """
    h = h_ext(cat, c)
    s = [[complex(v) for v in row] for row in cat.s_matrix_float()]
    phase = cmath.exp(-2j * cmath.pi * float(c) / 24)
    t = [[phase, 0j], [0j, phase * cmath.exp(2j * cmath.pi * float(h))]]
    st = _mat_mul(s, t)
    st3 = _mat_mul(_mat_mul(st, st), st)
    s2 = _mat_mul(s, s)
    return _max_dev_from_identity(s2) <= _REP_TOL and _max_dev_from_identity(st3) <= _REP_TOL
