"""Characteristic matrices and the exact c -> c +/- 24 recurrence calculus.

A characteristic matrix chi holds the constant terms of the fundamental
matrix of a genus; its first column is (dim V(1), dim M(h)) for any VOA
realizing the genus.  ``iterate`` advances (chi, h) by any number of steps
of 24 in the central charge, exactly and invertibly: its one-step cases
are the paper's maps f+ (c -> c + 24) and f- (c -> c - 24).  ``g_closed``
is the n-fold iterate of the diagonal restriction g of f+ (enough to
control chi_00 for large positive c), and ``k_closed`` the n-fold iterate
of the map k that evolves the reduced pair (alpha, beta) = (chi_00 -
chi_11, chi_10 * chi_01) under f-; their n = 1 cases are g and k.

``iterate`` is one integer kernel for both directions.  With h = p/q,
whose denominator q never changes, it carries x and w as integers over
one denominator d, the product beta = y*z as a reduced integer pair, and
the off-diagonal entry that the step divides by (z going up, y going
down) as a running integer product: each step multiplies it by beta' and
hands its reciprocal to the other entry.  Each step spends one gcd on
(x, w, d), one on beta and a cross-cancellation against beta' on the
running product, so the big numbers only meet small ones; Fractions are
built once, at the end.

``seed_rows`` derives one exact characteristic matrix per admissible
class of c mod 24, 24 in all, from eight stored (c, chi_10) pairs through
the characters' MLDE (``mlde_characters``); iteration reaches every other
one.  ``class_seed`` finds c's seed, and ``chi_of`` walks from it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .exactq import delta, mlde_series, mlde_solve
from .genus import CATALOG, CategoryInfo, Genus, category, genus

__all__ = [
    "CharMatrix",
    "AlphaBeta",
    "iterate",
    "g_closed",
    "alpha_beta",
    "k_closed",
    "mlde_characters",
    "seed_rows",
    "class_seed",
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

    def to_json(self) -> dict[str, str]:
        return {k: str(v) for k, v in zip(self._fields, self)}

    def __str__(self) -> str:
        return f"[[{self.x}, {self.y}], [{self.z}, {self.w}]]"


SeedRow = tuple[Fraction, CharMatrix, Fraction]  # (c, chi(c), h_ext(c))


class AlphaBeta(NamedTuple):
    """The reduced pair (chi_00 - chi_11, chi_10 * chi_01)."""

    alpha: Fraction
    beta: Fraction


def _require_noninteger(h: Fraction) -> Fraction:
    h = Fraction(h)
    if h.denominator == 1:
        raise ValueError(f"h = {h} must not be an integer")
    return h


def iterate(m: CharMatrix, h: Fraction, steps: int) -> tuple[CharMatrix, Fraction]:
    """Compose |steps| applications of f+ (steps > 0) or f- (steps < 0).

    With alpha = x - w, beta = y*z and s = alpha + 120(h - 1), f+ takes
    (chi, h) at c to its values at c + 24:

        x' = (w + h(x - 240))/(h + 1),  w' = (x + h(w + 240))/(h + 1),
        y' = 1/z,  z' = beta' z,  h' = h + 2,
        beta' = ((h + 1)^2 (h - 2) beta - s^2 + 746496 (h + 1)^2) / ((h + 2)(h + 1)^2),

    and needs z != 0.  Its inverse f- takes c to c - 24:

        x' = (-w + (h - 2)(x + 240))/(h - 3),  w' = (-x + (h - 2)(w - 240))/(h - 3),
        z' = 1/y,  y' = beta' y,  h' = h - 2,
        beta' = (h (h - 3)^2 beta + s^2 - 746496 (h - 3)^2) / ((h - 4)(h - 3)^2),

    and needs y != 0.  Both need a non-integer h, which keeps every
    denominator away from zero.

    One integer kernel runs both directions.  With h = p/q, x = X/d,
    w = W/d and beta = b/b', a step up takes (e, r, t, v, sigma) =
    (p + q, p, p - 2q, p + 2q, 1) and a step down (p - 3q, p - 2q, -p,
    4q - p, -1); then, with S = q(X - W) + 120(p - q)d,

        X' = sigma q W + r (X - 240 sigma d),  W' = sigma q X + r (W + 240 sigma d),
        d' = e d,  beta' = (t e^2 d^2 b + q b' (746496 e^2 d^2 - S^2)) / (v e^2 d^2 b'),

    the formulas above times q^3 d^2 b' (f-'s beta' also negated above
    and below).  The pivot, z going up and y going down, becomes beta'
    times itself and the other off-diagonal entry its old reciprocal.
    ``steps == 0`` returns (m, h) unchecked.
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
    """The diagonal (chi00, chi11) after n >= 0 f+ steps c -> c + 24, in closed form."""
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
    """The pair (alpha, beta) after n >= 0 f- steps c -> c - 24, in closed form."""
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


def mlde_characters(g: Genus, x: Fraction | None, z: Fraction | int, order: int
                    ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The vacuum series (1, x, ...) through q^(order + 1) and the module
    series (z, ...) through q^order above their leads.  Both solve the scalar
    MLDE (Mathur-Mukhi-Sen 1988; Hampapura-Mukhi 2016 for ell = 2 and 4)
    with roots e0 = g.exponent0, e1 = g.exponent1; with theta = q d/dq,
    mu = e0 e1 and k = ell/2 it reads

        E4^k theta^2 f + (ell E6 E4^(k-1) - E2 E4^k)/6 theta f + (mu E4^(k+1) + 1728 nu Delta) f = 0.

    At ell = 0 and 2, nu = 0 and the vacuum's q^1 term is an output, so x is
    not read; at ell = 4, nu is fitted so that term is x.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if g.ell not in (0, 2, 4):
        raise ValueError(f"no scalar MLDE for ell = {g.ell}")
    a6, b6, potential = mlde_series(g.ell, order + 2)
    r0, r1 = g.exponent0, g.exponent1
    cs = [r0 * r1 * v for v in potential]
    if g.ell == 4:  # the vacuum's q^1 term (1 - h_ext) x + A_1 r0^2 + B_1 r0 + C_1 = 0
        nu_1728 = -(1 - g.h_ext) * x - (Fraction(a6[1] * r0 + b6[1], 6) * r0 + cs[1])
        cs = [u + nu_1728 * v for u, v in zip(cs, delta(order + 2))]
    d = lcm(r0.denominator, r1.denominator)
    scale = lcm(*((6 * d * d * v).denominator for v in cs))
    rows = [(scale * a, scale * d * b, int(6 * d * d * scale * c))
            for a, b, c in zip(a6, b6, cs)]
    return (mlde_solve(rows, int(d * r0), d, Fraction(1), order + 2),
            mlde_solve(rows, int(d * r1), d, Fraction(z), order + 1))


def _seed_row(g: Genus, vacuum: tuple, module: tuple, z: Fraction | int) -> SeedRow:
    """(c, chi, h) of g from its MLDE series (1, x, ...) and (1, u1, u2) and
    chi_10 = z.  To first order in chi, ``expand``'s recursion gives
    u1 = X[1]_10/z, u2 = X[2]_10/z and w1 = X[1]_11 as below; they solve in
    turn for w, w1 and y, as h is never an integer.

        u1 = (x + h(w + 240))/(h + 1),
        u2 = (x(u1 + 240) + h w1 + 240hw + 199044h - 14097c)/(h + 2),
        w1 = (w(w + 240) - (h - 2) y z + 338328(h - 1 - c/24))/2
    """
    c, h, x, (_, u1, u2) = g.c, g.h_ext, vacuum[1], module
    w = ((h + 1) * u1 - x) / h - 240
    w1 = ((h + 2) * u2 - x * (u1 + 240) - 240 * h * w - 199044 * h + 14097 * c) / h
    y = (w * (w + 240) + 338328 * (h - 1 - c / 24) - 2 * w1) / ((h - 2) * z)
    return c, CharMatrix(x, y, z, w), h


# The ell = 0 seed (c, chi_10) of each category, from which seed_rows derives all 24
_SEEDS = {"semion": (Fraction(1), 2), "semion-bar": (Fraction(7), 56),
          "semion-dagger": (Fraction(19), 26752), "semion-bar-dagger": (Fraction(13), 1248),
          "fib": (Fraction(14, 5), 7), "fib-bar": (Fraction(26, 5), 26),
          "yang-lee": (Fraction(98, 5), 26999), "yang-lee-bar": (Fraction(62, 5), 682)}


@lru_cache(maxsize=None)
def seed_rows(cat: CategoryInfo | str) -> tuple[SeedRow, ...]:
    """The three seeds (c, chi(c), h_ext(c)) of a category, one per class of
    c mod 24, in order of ascending representative c, derived from ``_SEEDS``:

    - ell = 0, at the stored c: ``_seed_row`` reads chi off the MLDE.
    - ell = 4, at c + 8: tensoring with E8 at level 1 multiplies both
      characters by j^(1/3) = E4/eta^8 = q^(-1/3) (1 + 248q + ...), so
      chi(c + 8) = chi(c) + 248 I.
    - ell = 2, at 24 - c', where the dual category (c mod 8 and h mod 1
      negated) has its ell = 0 seed.  The two genera share an S-matrix with
      S^2 = I, and c + c' = 24 and h + h' = 2 cancel their T-phases, so
      vacuum x vacuum' + module x module' is modular with a simple pole at
      q = 0: J plus a constant (a dual pair, Hampapura-Mukhi 2016).  Its
      module product starts at q^1, where J has 196884, so
      z z' = 196884 - (x2 + x x' + x2'), the x's being the two vacuums'
      q^1 and q^2 terms, and z times the lead-1 module series is the module.
    """
    cat = category(cat)
    dual = next(k for k in CATALOG if (k.c_mod8, k.h_mod1) == (-cat.c_mod8 % 8, -cat.h_mod1 % 1))
    (c0, z0), (c1, z1) = _SEEDS[cat.id], _SEEDS[dual.id]
    g0, g2, g4 = genus(cat, c0), genus(cat, 24 - c1), genus(cat, c0 + 8)
    _, m0, h0 = _seed_row(g0, *mlde_characters(g0, None, 1, 2), z0)
    (_, x, x2, _), _ = mlde_characters(genus(dual, c1), None, 1, 2)
    vacuum, module = mlde_characters(g2, None, 1, 2)
    z2 = (196884 - (x2 + x * vacuum[1] + vacuum[2])) / z1
    return tuple(sorted([(c0, m0, h0), _seed_row(g2, vacuum, module, z2),  # c's differ
                         (g4.c, m0._replace(x=m0.x + 248, w=m0.w + 248), g4.h_ext)]))


def class_seed(cat: CategoryInfo | str, c: Fraction | int) -> tuple[SeedRow, int]:
    """The seed row (c0, chi, h) of c's class mod 24, and the signed number
    of steps (c - c0)/24 that ``iterate`` takes from it to c."""
    for row in seed_rows(cat):
        steps = (Fraction(c) - row[0]) / 24
        if steps.denominator == 1:
            return row, int(steps)
    raise RuntimeError(f"no seed of {category(cat).id} lies in the class of c = {c} mod 24")


def chi_of(cat: CategoryInfo | str, c: Fraction | int) -> CharMatrix:
    """Characteristic matrix at any admissible c, reached from its class seed."""
    g = genus(category(cat), c)  # rejects c outside the category's class mod 8
    (_, m0, h0), steps = class_seed(g.category, g.c)
    m, h = iterate(m0, h0, steps)
    if h != g.h_ext:
        raise RuntimeError(f"recurrence reached h = {h} at ({g.category.id}, {g.c}), "
                           f"but the genus has h_ext = {g.h_ext}")
    return m
