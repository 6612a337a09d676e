"""Characteristic matrices and the exact c -> c +/- 24 recurrence calculus.

A characteristic matrix chi holds the constant terms of the fundamental
matrix of a genus; its first column is (dim V(1), dim M(h)) for any VOA
realizing the genus.  ``f_plus``/``f_minus`` advance (chi, h) one step of
24 in the central charge, exactly and invertibly.  ``g_closed`` is the
n-fold iterate of the diagonal restriction g of f_plus (enough to control
chi_00 for large positive c), and ``k_closed`` the n-fold iterate of the
map k that evolves the reduced pair (alpha, beta) = (chi_00 - chi_11,
chi_10 * chi_01) under c -> c - 24; their n = 1 cases are g and k.

``iterate`` is the one integer kernel behind both steps (``f_plus`` and
``f_minus`` are its one-step cases).  With h = p/q, whose denominator q
never changes, it carries x and w as integers over one denominator d, the
product beta = y*z as a reduced integer pair, and the off-diagonal entry
that the step divides by (z going up, y going down) as a running integer
product: each step multiplies it by beta' and hands its reciprocal to the
other entry.  Each step spends one gcd on (x, w, d), one on beta and a
cross-cancellation against beta' on the running product, so the big
numbers only meet small ones; Fractions are built once, at the end.

``seed`` hands out exact characteristic matrices for one representative of
each of the three admissible classes of c mod 24 per category; all other
matrices in the pipeline are reached from these 24 by iteration, and
``chi_of`` walks from the class seed to any admissible c.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
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

    With alpha = x - w, beta = y*z and s = alpha + 120(h - 1) the step is
    x' = (w + h(x - 240))/(h + 1), w' = (x + h(w + 240))/(h + 1),
    y' = 1/z, z' = beta' z with
    beta' = ((h + 1)^2 (h - 2) beta - s^2 + 746496 (h + 1)^2) / ((h + 2)(h + 1)^2),
    and h' = h + 2.  Requires a nonzero bottom-left entry and non-integer h
    (which keeps the denominators h+1 and h+2 away from zero).
    """
    return iterate(m, h, 1)


def f_minus(m: CharMatrix, h: Fraction) -> tuple[CharMatrix, Fraction]:
    """Advance (chi, h) at central charge c to its values at c - 24.

    The inverse of :func:`f_plus`: in its notation
    x' = (-w + (h - 2)(x + 240))/(h - 3), w' = (-x + (h - 2)(w - 240))/(h - 3),
    z' = 1/y, y' = beta' y with
    beta' = (h (h - 3)^2 beta + s^2 - 746496 (h - 3)^2) / ((h - 4)(h - 3)^2),
    and h' = h - 2.  Requires a nonzero top-right entry and non-integer h
    (keeping h-3 and h-4 away from zero).
    """
    return iterate(m, h, -1)


def iterate(m: CharMatrix, h: Fraction, steps: int) -> tuple[CharMatrix, Fraction]:
    """Compose |steps| applications of f_plus (steps > 0) or f_minus (< 0).

    One integer kernel runs both directions.  With h = p/q, x = X/d,
    w = W/d and beta = b/b', a step up takes (e, r, t, v, sigma) =
    (p + q, p, p - 2q, p + 2q, 1) and a step down (p - 3q, p - 2q, -p,
    4q - p, -1); then, with S = q(X - W) + 120(p - q)d,

        X' = sigma q W + r (X - 240 sigma d),  W' = sigma q X + r (W + 240 sigma d),
        d' = e d,  beta' = (t e^2 d^2 b + q b' (746496 e^2 d^2 - S^2)) / (v e^2 d^2 b'),

    the formulas of f_plus and f_minus times q^3 d^2 b' (f_minus's beta'
    also negated above and below).  The pivot, z going up and y going
    down, becomes beta' times itself and the other off-diagonal entry its
    old reciprocal.  ``steps == 0`` returns (m, h) unchecked.
    """
    h = Fraction(h)
    if steps == 0:
        return m, h
    _require_noninteger(h)  # h moves by 2, so its denominator q never changes
    up = steps > 0
    p, q = h.numerator, h.denominator
    d = lcm(m.x.denominator, m.w.denominator)
    xn, wn = m.x.numerator * (d // m.x.denominator), m.w.numerator * (d // m.w.denominator)
    beta = m.y * m.z
    bn, bd = beta.numerator, beta.denominator
    pivot = m.z if up else m.y  # the entry the step divides by
    pn, pd = pivot.numerator, pivot.denominator
    for _ in range(abs(steps)):
        if pn == 0:
            raise ValueError("not in M-: bottom-left entry is zero" if up
                             else "not in M+: top-right entry is zero")
        if up:
            e, r, t, v, sign = p + q, p, p - 2 * q, p + 2 * q, 1
        else:
            e, r, t, v, sign = p - 3 * q, p - 2 * q, -p, 4 * q - p, -1
        shift = q * (xn - wn) + 120 * (p - q) * d
        e2_dd = e * e * d * d
        bn, bd = t * e2_dd * bn + q * bd * (746496 * e2_dd - shift * shift), v * e2_dd * bd
        g = gcd(bn, bd)
        bn, bd = bn // g, bd // g
        xn, wn, d = (sign * q * wn + r * (xn - sign * 240 * d),
                     sign * q * xn + r * (wn + sign * 240 * d), d * e)
        g = gcd(xn, wn, d)
        xn, wn, d = xn // g, wn // g, d // g
        # cross-cancel the pivot against beta' so the pair stays reduced; the
        # big side is reduced first, as gcd(big, small) is slow in CPython
        other = (pd, pn)
        g, g2 = gcd(bd, pn % bd), gcd(bn, pd % bn) if bn else 1
        pn, pd = (pn // g) * (bn // g2), (pd // g2) * (bd // g)
        p += 2 * sign * q
    pivot = (pn, pd)
    y, z = (other, pivot) if up else (pivot, other)
    return CharMatrix(Fraction(xn, d), Fraction(*y), Fraction(*z), Fraction(wn, d)), Fraction(p, q)


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
