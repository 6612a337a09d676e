"""A scalar modular differential equation for every candidate's character.

Each component of a genus's character vector solves a second-order modular
linear differential equation (Mathur-Mukhi-Sen 1988; Naculich 1989;
Hampapura-Mukhi 2016 for ell = 2 and 4).  With theta = q d/dq, the Serre
derivative D^2 f = theta^2 f - (1/6) E2 theta f, the exponents
alpha0 = -c/24 and alpha1 = h_ext - c/24 and mu = alpha0 alpha1, the
equations multiplied by E4^(ell/2) read

    ell = 0:  D^2 f + mu E4 f = 0
    ell = 2:  E4 D^2 f + (1/3) E6 Df + mu E4^2 f = 0
    ell = 4:  E4^2 D^2 f + (2/3) E4 E6 Df + (mu E4^3 + 1728 nu Delta) f = 0

At ell = 4 the extra parameter nu is fitted from chi_00, the vacuum's q^1
coefficient; at ell = 0 and 2 chi_00 is an output, so the oracle checks the
recurrence walk that produced it.  The module series starts at chi_10.

E2, E4, E6 and Delta come from divisor sums built here; nothing is imported
from ``extremal2.exactq``, whose ``ode_series`` feeds the recursion under
test.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from extremal2.charser import character_vector, expand
from extremal2.chimat import CharMatrix, chi_of, seed_rows
from extremal2.classify import candidates
from extremal2.genus import CATALOG, Genus, genus

F = Fraction


def eisenstein(k: int, n_terms: int) -> list[int]:
    """E_k = 1 + c_k sum_n sigma_(k-1)(n) q^n for k = 2, 4, 6."""
    scale = {2: -24, 4: 240, 6: -504}[k]
    return [1] + [scale * sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
                  for n in range(1, n_terms)]


def times(a: list, b: list) -> list:
    """Product of two power series, to the shorter length."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def plus(*terms: tuple) -> list:
    """The sum of weight * series over (weight, series) pairs."""
    return [sum(w * s[n] for w, s in terms) for n in range(len(terms[0][1]))]


@functools.lru_cache(maxsize=None)
def forms(ell: int, n_terms: int) -> tuple[list, list, list, list]:
    """A and B of the ell-th equation, the series P with C = mu P + 1728 nu Delta
    (P = E4^(ell/2 + 1)), and Delta."""
    e2, e4, e6 = (eisenstein(k, n_terms) for k in (2, 4, 6))
    e4_squared = times(e4, e4)
    e4_cubed = times(e4, e4_squared)
    delta = [(x - y) // 1728 for x, y in zip(e4_cubed, times(e6, e6))]
    power, serre, potential = {
        0: ([1] + [0] * (n_terms - 1), [0] * n_terms, e4),
        2: (e4, plus((F(1, 3), e6)), e4_squared),
        4: (e4_squared, plus((F(2, 3), times(e4, e6))), e4_cubed),
    }[ell]
    return power, plus((F(-1, 6), times(e2, power)), (1, serre)), potential, delta


def mlde(ell: int, mu: Fraction, nu: Fraction, n_terms: int) -> tuple[list, list, list]:
    """(A, B, C) with A theta^2 f + B theta f + C f = 0 for the ell-th equation."""
    power, first, potential, delta = forms(ell, n_terms)
    return power, first, plus((mu, potential), (1728 * nu, delta))


def solve(equation: tuple[list, list, list], alpha: Fraction, roots: tuple, lead: Fraction,
          n_terms: int) -> tuple[Fraction, ...]:
    """Coefficients of the solution q^alpha (lead + a_1 q + ...).

    The q^(alpha + n) term of the equation fixes a_n over
    (alpha + n - alpha0)(alpha + n - alpha1).  With x = X/d and every term
    scaled by d^2 s, each polynomial in X the recursion evaluates has
    integer coefficients, so a_n = nums[n] / scale over one running integer
    scale: each new divisor multiplies the scale and the earlier numerators.
    """
    d = math.lcm(*(F(v).denominator for v in (alpha, *roots)))
    rows = [(F(a), F(b) * d, F(c) * d * d) for a, b, c in zip(*equation)]
    s = math.lcm(*(v.denominator for row in rows for v in row))
    rows = [tuple(int(v * s) for v in row) for row in rows]
    x0, r0, r1 = (int(v * d) for v in (alpha, *roots))
    lead = F(lead)
    nums, scale = [lead.numerator], lead.denominator
    for n in range(1, n_terms):
        total = sum(((a * x + b) * x + c) * nums[n - k]
                    for k, (a, b, c) in enumerate(rows[1 : n + 1], 1)
                    for x in [x0 + d * (n - k)])
        divisor = s * (x0 + d * n - r0) * (x0 + d * n - r1)
        nums = [v * divisor for v in nums] + [-total]
        scale *= divisor
    return tuple(F(v, scale) for v in nums)


def mlde_character(g: Genus, chi: CharMatrix, order: int) -> tuple[tuple, tuple]:
    """The vacuum series through q^(order + 1) and the module series through
    q^order, in the layout of ``CharacterVector.series0``/``series1``."""
    roots = (-g.c / 24, g.h_ext - g.c / 24)
    mu = roots[0] * roots[1]
    nu = F(0)
    if g.ell == 4:  # the vacuum's q^1 coefficient is affine in nu
        at = [solve(mlde(4, mu, F(trial), 2), roots[0], roots, 1, 2)[1] for trial in (0, 1)]
        nu = (chi.x - at[0]) / (at[1] - at[0])
    equation = mlde(g.ell, mu, nu, order + 2)
    a_series, b_series, c_series = equation
    # the q^0 term is the indicial polynomial (x - alpha0)(x - alpha1)
    assert (a_series[0], b_series[0], c_series[0]) == (1, -sum(roots), mu)
    return (solve(equation, roots[0], roots, 1, order + 2),
            solve(equation, roots[1], roots, chi.z, order + 1))


def test_helpers_reproduce_known_coefficients():
    assert eisenstein(2, 4) == [1, -24, -72, -96]
    assert eisenstein(4, 4) == [1, 240, 2160, 6720]
    assert eisenstein(6, 4) == [1, -504, -16632, -122976]
    _, _, potential = mlde(4, F(0), F(1, 1728), 4)
    assert potential == [0, 1, -24, 252]  # Delta = q - 24 q^2 + 252 q^3


ORDER = 20


def test_mlde_matches_expand_on_every_window_candidate():
    ells = Counter()
    for cat in CATALOG:
        for c, m, _ in candidates(cat):
            g = genus(cat, c)
            vec = character_vector(expand(g, m, ORDER))
            assert mlde_character(g, m, ORDER) == (vec.series0, vec.series1), (cat.id, c)
            ells[g.ell] += 1
    assert ells == {0: 27, 2: 23, 4: 24}


@given(st.sampled_from(CATALOG), st.integers(0, 2), st.integers(-6, 6))
def test_mlde_matches_expand_on_walk_genera(cat, class_index, steps):
    c = seed_rows(cat)[class_index][0] + 24 * steps
    g, m = genus(cat, c), chi_of(cat, c)
    vec = character_vector(expand(g, m, 12))
    assert mlde_character(g, m, 12) == (vec.series0, vec.series1)
