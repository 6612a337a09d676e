"""Characteristic matrices and the exact c -> c +/- 24 recurrence calculus.

A characteristic matrix chi holds the constant terms of the fundamental
matrix of a genus; its first column is (dim V(1), dim M(h)) for any VOA
realizing the genus.  ``f_plus``/``f_minus`` advance (chi, h) one step of
24 in the central charge, exactly and invertibly.  ``g_closed`` is the
n-fold iterate of the diagonal restriction g of f_plus (enough to control
chi_00 for large positive c), and ``k_closed`` the n-fold iterate of the
map k that evolves the reduced pair (alpha, beta) = (chi_00 - chi_11,
chi_10 * chi_01) under c -> c - 24; their n = 1 cases are g and k.

``seed`` hands out exact characteristic matrices for one representative of
each of the three admissible classes of c mod 24 per category; all other
matrices in the pipeline are reached from these 24 by iteration, and
``chi_of`` walks from the class seed to any admissible c.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .genus import CategoryInfo, category, genus

__all__ = [
    "CharMatrix",
    "AlphaBeta",
    "f_plus",
    "f_minus",
    "iterate",
    "g_closed",
    "alpha_beta",
    "k_closed",
    "seed",
    "seed_rows",
    "chi_of",
]


class CharMatrix(namedtuple("CharMatrix", "x y z w")):
    """Exact 2x2 matrix ((x, y), (z, w)) of rationals; entries are coerced
    to ``Fraction`` (``NamedTuple`` cannot override ``__new__``)."""

    __slots__ = ()

    def __new__(cls, x, y, z, w):
        return super().__new__(cls, Fraction(x), Fraction(y), Fraction(z), Fraction(w))

    @classmethod
    def _make(cls, iterable) -> "CharMatrix":
        # the inherited _make, which _replace builds through, skips __new__
        return cls(*iterable)

    @classmethod
    def from_rows(cls, rows) -> "CharMatrix":
        (x, y), (z, w) = rows
        return cls(x, y, z, w)

    def first_column(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.z)

    def to_json(self) -> dict[str, str]:
        return {k: str(v) for k, v in zip(self._fields, self)}

    @classmethod
    def from_json(cls, data: dict[str, str]) -> "CharMatrix":
        return cls(*(data[k] for k in cls._fields))

    def __str__(self) -> str:
        return f"[[{self.x}, {self.y}], [{self.z}, {self.w}]]"


class AlphaBeta(NamedTuple):
    """The reduced pair (chi_00 - chi_11, chi_10 * chi_01)."""

    alpha: Fraction
    beta: Fraction


def _require_noninteger(h: Fraction) -> Fraction:
    h = Fraction(h)
    if h.denominator == 1:
        raise ValueError(f"h = {h} must not be an integer")
    return h


def f_plus(m: CharMatrix, h: Fraction) -> tuple[CharMatrix, Fraction]:
    """Advance (chi, h) at central charge c to its values at c + 24.

    Requires a nonzero bottom-left entry and non-integer h (which keeps
    the denominators h+1 and h+2 away from zero).
    """
    h = _require_noninteger(h)
    if m.z == 0:
        raise ValueError("not in M-: bottom-left entry is zero")
    x, y, z, w = m.x, m.y, m.z, m.w
    x2 = (w + h * (x - 240)) / (h + 1)
    y2 = 1 / z
    z2 = (
        ((h + 1) ** 2 * (h - 2) * y * z
         - (x - w + 120 * (h - 1)) ** 2
         + 746496 * (h + 1) ** 2)
        / ((h + 2) * (h + 1) ** 2)
    ) * z
    w2 = (x + h * (w + 240)) / (h + 1)
    return CharMatrix(x2, y2, z2, w2), h + 2


def f_minus(m: CharMatrix, h: Fraction) -> tuple[CharMatrix, Fraction]:
    """Advance (chi, h) at central charge c to its values at c - 24.

    Inverse of :func:`f_plus`; requires a nonzero top-right entry and
    non-integer h (keeping h-3 and h-4 away from zero).
    """
    h = _require_noninteger(h)
    if m.y == 0:
        raise ValueError("not in M+: top-right entry is zero")
    x, y, z, w = m.x, m.y, m.z, m.w
    x2 = (-w + (h - 2) * (x + 240)) / (h - 3)
    y2 = (
        (h * (h - 3) ** 2 * y * z
         + (x - w + 120 * (h - 1)) ** 2
         - 746496 * (h - 3) ** 2)
        / ((h - 4) * (h - 3) ** 2)
    ) * y
    z2 = 1 / y
    w2 = (-x + (h - 2) * (w - 240)) / (h - 3)
    return CharMatrix(x2, y2, z2, w2), h - 2


def iterate(m: CharMatrix, h: Fraction, steps: int) -> tuple[CharMatrix, Fraction]:
    """Compose |steps| applications of f_plus (steps > 0) or f_minus (< 0)."""
    h = Fraction(h)
    step = f_plus if steps > 0 else f_minus
    for _ in range(abs(steps)):
        m, h = step(m, h)
    return m, h


def g_closed(
    x: Fraction, w: Fraction, h: Fraction, n: int
) -> tuple[Fraction, Fraction, Fraction]:
    """The diagonal (chi00, chi11) after n >= 0 f_plus steps c -> c + 24, in closed form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    h = _require_noninteger(h)
    x, w = Fraction(x), Fraction(w)
    if n == 0:
        return (x, w, h)
    den = h + 2 * n - 1
    x_n = (n * w + (h + n - 1) * (x - 240 * n)) / den
    w_n = (n * x + (h + n - 1) * (w + 240 * n)) / den
    return (x_n, w_n, h + 2 * n)


def alpha_beta(m: CharMatrix) -> AlphaBeta:
    """Project a characteristic matrix to (x - w, z*y)."""
    return AlphaBeta(m.x - m.w, m.z * m.y)


def k_closed(ab: AlphaBeta, h: Fraction, n: int) -> tuple[AlphaBeta, Fraction]:
    """The pair (alpha, beta) after n >= 0 f_minus steps c -> c - 24, in closed form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    h = _require_noninteger(h)
    if n == 0:
        return (AlphaBeta(Fraction(ab.alpha), Fraction(ab.beta)), h)
    a, b = ab.alpha, ab.beta
    a_n = (a * (h - 1) + 480 * n * (h - n - 1)) / (h - 2 * n - 1)
    b_n = (
        n * (h - n - 1) * (a + 120 * (h - 1)) ** 2
        / ((h - 2 * n) * (h - 2 * n - 1) ** 2 * (h - 2 * n - 2))
        + (h * (h - 2) * b - 746496 * n * (h - n - 1))
        / ((h - 2 * n) * (h - 2 * n - 2))
    )
    return AlphaBeta(a_n, b_n), h - 2 * n


# Exact characteristic-matrix seeds: one row per admissible class of
# c mod 24, three per category, constant terms transcribed once and
# cross-validated downstream (inverse-walk reproduction, series
# integrality, and the ell = 0 rows matching dim A1 = 3, dim E7 = 133,
# dim G2 = 14, dim F4 = 52).
_SEEDS: dict[str, tuple[tuple[Fraction, tuple[tuple[int, int], tuple[int, int]], Fraction], ...]] = {
    "semion": (
        (Fraction(1), ((3, 26752), (2, -247)), Fraction(1, 4)),
        (Fraction(9), ((251, 26752), (2, 1)), Fraction(1, 4)),
        (Fraction(17), ((323, 88), (1632, -319)), Fraction(5, 4)),
    ),
    "semion-bar": (
        (Fraction(7), ((133, 1248), (56, -377)), Fraction(3, 4)),
        (Fraction(15), ((381, 1248), (56, -129)), Fraction(3, 4)),
        (Fraction(23), ((69, 10), (32384, -65)), Fraction(7, 4)),
    ),
    "semion-dagger": (
        (Fraction(11), ((-319, 1632), (88, 323)), Fraction(3, 4)),
        (Fraction(19), ((-247, 2), (26752, 3)), Fraction(7, 4)),
        (Fraction(27), ((1, 2), (26752, 251)), Fraction(7, 4)),
    ),
    "semion-bar-dagger": (
        (Fraction(5), ((-65, 32384), (10, 69)), Fraction(1, 4)),
        (Fraction(13), ((-377, 56), (1248, 133)), Fraction(5, 4)),
        (Fraction(21), ((-129, 56), (1248, 381)), Fraction(5, 4)),
    ),
    "fib": (
        (Fraction(14, 5), ((14, 12857), (7, -258)), Fraction(2, 5)),
        (Fraction(54, 5), ((262, 12857), (7, -10)), Fraction(2, 5)),
        (Fraction(94, 5), ((188, 46), (4794, -184)), Fraction(7, 5)),
    ),
    "fib-bar": (
        (Fraction(26, 5), ((52, 3774), (26, -296)), Fraction(3, 5)),
        (Fraction(66, 5), ((300, 3774), (26, -48)), Fraction(3, 5)),
        (Fraction(106, 5), ((106, 17), (15847, -102)), Fraction(8, 5)),
    ),
    "yang-lee": (
        (Fraction(58, 5), ((-406, 902), (87, 410)), Fraction(4, 5)),
        (Fraction(98, 5), ((-245, 1), (26999, 1)), Fraction(9, 5)),
        (Fraction(138, 5), ((3, 1), (26999, 249)), Fraction(9, 5)),
    ),
    "yang-lee-bar": (
        (Fraction(22, 5), ((-55, 32509), (11, 59)), Fraction(1, 5)),
        (Fraction(62, 5), ((-434, 57), (682, 190)), Fraction(6, 5)),
        (Fraction(102, 5), ((-186, 57), (682, 438)), Fraction(6, 5)),
    ),
}


def seed(cat: CategoryInfo | str, class_index: int) -> tuple[Fraction, CharMatrix, Fraction]:
    """Seed (c, chi(c), h_ext(c)) for one class of c mod 24.

    ``class_index`` 0..2 orders the three classes by ascending
    representative c.
    """
    rows = _SEEDS[category(cat).id]
    if class_index not in (0, 1, 2):
        raise ValueError("class_index must be 0, 1 or 2")
    c, rows_m, h = rows[class_index]
    return c, CharMatrix.from_rows(rows_m), h


def seed_rows(cat: CategoryInfo | str) -> tuple[tuple[Fraction, CharMatrix, Fraction], ...]:
    """All three seeds of a category in class order."""
    return tuple(seed(cat, i) for i in range(3))


def chi_of(cat: CategoryInfo | str, c: Fraction | int) -> CharMatrix:
    """Characteristic matrix at any admissible c, reached from its class seed."""
    cat = category(cat)
    g = genus(cat, c)  # rejects c outside the category's class mod 8
    for c0, m0, h0 in seed_rows(cat):
        diff = (g.c - c0) / 24
        if diff.denominator == 1:
            m, h = iterate(m0, h0, int(diff))
            if h != g.h_ext:
                raise RuntimeError(
                    f"recurrence reached h = {h} at ({cat.id}, {g.c}), "
                    f"but the genus has h_ext = {g.h_ext}"
                )
            return m
    raise RuntimeError(f"no seed of {cat.id} lies in the class of c = {g.c} mod 24")
