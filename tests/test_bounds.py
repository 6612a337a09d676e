from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extremal2.bounds import (
    c_extremes,
    negative_base_point,
    negative_threshold,
    nmax_negative,
    nmax_positive,
    negative_rows,
    positive_rows,
    positive_threshold_witness,
)
from extremal2.chimat import CharMatrix, alpha_beta, g_closed, iterate, k_closed, seed_rows
from extremal2.genus import CATALOG, category

F = Fraction


def fixture(name: str):
    return json.loads(
        resources.files("extremal2").joinpath("fixtures", name).read_text()
    )["rows"]


GOLDEN_EXTREMES = {
    "semion": (F(-23), F(57)),
    "semion-bar": (F(-17), F(39)),
    "semion-dagger": (F(-13), F(67)),
    "semion-bar-dagger": (F(-19), F(37)),
    "fib": (F(-106, 5), F(174, 5)),
    "fib-bar": (F(-94, 5), F(186, 5)),
    "yang-lee": (F(-62, 5), F(338, 5)),
    "yang-lee-bar": (F(-98, 5), F(222, 5)),
}


# ---------------------------------------------------------------------------
# positive side


def test_nmax_positive_examples():
    assert nmax_positive(CharMatrix(3, 26752, 2, -247), F(1, 4)) == 0
    assert nmax_positive(CharMatrix(251, 26752, 2, 1), F(1, 4)) == 2
    assert nmax_positive(CharMatrix(-245, 1, 26999, 1), F(9, 5)) == 2


def test_nmax_positive_requires_positive_h():
    with pytest.raises(ValueError, match="h_ext > 0"):
        nmax_positive(CharMatrix(3, 26752, 2, -247), F(-1, 4))


def test_positive_threshold_witness_values():
    # chi(1): threshold (64 + sqrt(6256))/480 = 0.2981..., quoted as 0.298
    w = positive_threshold_witness(CharMatrix(3, 26752, 2, -247), F(1, 4))
    assert math.floor(w * 1000) == 298
    # the yang-lee-bar class seed has a perfect-square radicand: threshold exactly 1
    w = positive_threshold_witness(CharMatrix(-55, 32509, 11, 59), F(1, 5))
    assert w == 1
    assert nmax_positive(CharMatrix(-55, 32509, 11, 59), F(1, 5)) == 1


def test_positive_witness_consistent_with_nmax():
    """n_max is the least n with n + 1 strictly above the threshold witness."""
    for cat in CATALOG:
        for _, m, h in seed_rows(cat):
            n_max = nmax_positive(m, h)
            w = positive_threshold_witness(m, h)
            assert n_max + 1 > w
            assert n_max == 0 or n_max <= w  # w is an upper bound on the root


def _just_below_a_square(s: int) -> tuple[F, F, F]:
    """(x, w, h) with |M| = 0 and disc * 10^12 = s^2 - 1/2, so the least step is s."""
    x = F(2 * s * s - 1, 2 * 960 * 10**12)
    return x, 240 - x, F(2)


@given(
    st.tuples(
        st.fractions(-1000, 1000, max_denominator=30),
        st.fractions(-1000, 1000, max_denominator=30),
        st.fractions(0, 20, max_denominator=12).filter(bool),
    )
    | st.integers(1, 10**9).map(_just_below_a_square)
)
def test_positive_witness_is_the_least_micro_step_above_the_root(xwh):
    """The witness is (|M| + r)/480 with r = sqrt(disc) when that is rational,
    otherwise the least multiple r of 1e-6 with r >= sqrt(disc)."""
    x, w, h = xwh
    a = abs(x + w - 240 * (h - 1))
    disc = a * a + 960 * abs((h - 1) * x)
    r = 480 * positive_threshold_witness(CharMatrix(x, 1, 1, w), h) - a
    if r * r != disc:
        assert (r * 10**6).denominator == 1
        assert (r - F(1, 10**6)) ** 2 < disc < r * r


def test_positive_table_matches_fixture():
    got = [
        {
            "category": r["category"],
            "c": str(r["c"]),
            "chi": r["chi"].to_json(),
            "h_ext": str(r["h_ext"]),
            "n_max": r["n_max"],
        }
        for cat in CATALOG
        for r in positive_rows(cat)
    ]
    assert got == fixture("nmax_positive.json")


def test_bound_is_not_vacuous():
    """One step past n_max the diagonal really is negative."""
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            n_max = nmax_positive(m, h)
            out, _ = iterate(m, h, n_max + 1)
            assert out.x < 0


def test_positive_window_is_complete_for_every_n():
    """x_n < 0 for every n > n_max, from each seed.

    ``g_closed`` gives x_n (h + 2n - 1) = Q(n) = -240 n^2 + M n + (h - 1) x
    with M = x + w - 240 (h - 1).  Q is concave with its vertex at M/480, so
    Q(n_max + 1) < 0 and M/480 <= n_max + 1 make Q negative for every
    n > n_max; with h > 0 the factor h + 2n - 1 is positive for n >= 1.
    """
    seen = 0
    for cat in CATALOG:
        for _, m, h in seed_rows(cat):
            big_m = m.x + m.w - 240 * (h - 1)

            def q(n):
                return -240 * n * n + big_m * n + (h - 1) * m.x

            assert h > 0
            for n in range(6):
                assert g_closed(m.x, m.w, h, n)[0] * (h + 2 * n - 1) == q(n)
            n_max = nmax_positive(m, h)
            assert q(n_max + 1) < 0
            assert big_m <= 480 * (n_max + 1)
            seen += 1
    assert seen == 24


def test_quadratic_nonnegative_somewhere_when_nmax_positive():
    """n_max > 0 only when the absolute-coefficient quadratic is >= 0 at some n <= n_max."""
    for cat in CATALOG:
        for _, m, h in seed_rows(cat):
            n_max = nmax_positive(m, h)
            if n_max == 0:
                continue
            big_m = abs(m.x + m.w - 240 * (h - 1))
            const = abs((h - 1) * m.x)
            assert any(
                -240 * n * n + big_m * n + const >= 0 for n in range(1, n_max + 1)
            )


# ---------------------------------------------------------------------------
# negative side


def test_nmax_negative_example_chi_minus23():
    m = CharMatrix(F(713, 11), F(57264144384, 11), F(1, 26752), F(-3397, 11))
    assert nmax_negative(m, F(-7, 4)) == 0
    t = negative_threshold(m, F(-7, 4))
    assert t == F(6, 43)  # = 0.1395..., quoted as 0.13
    assert math.floor(t * 100) == 13


def test_nmax_negative_zero_threshold_synthetic():
    # alpha = 120(1 - h) makes the threshold exactly zero
    h = F(-3, 4)
    alpha = 120 * (1 - h)
    m = CharMatrix(alpha, 4, F(1, 2), 0)  # x - w = alpha, beta = 2 > 1, |z| <= 1
    assert alpha_beta(m).alpha == alpha
    assert negative_threshold(m, h) == 0
    assert nmax_negative(m, h) == 0


def test_nmax_negative_precondition_errors():
    good = CharMatrix(F(713, 11), F(57264144384, 11), F(1, 26752), F(-3397, 11))
    with pytest.raises(ValueError, match="h_ext < 0"):
        nmax_negative(good, F(1, 4))
    with pytest.raises(ValueError, match="beta > 1"):
        nmax_negative(CharMatrix(1, 1, F(1, 2), 0), F(-1, 4))
    with pytest.raises(ValueError, match="chi10"):
        nmax_negative(CharMatrix(1, 400, 2, 0), F(-1, 4))


def test_negative_table_matches_fixture_and_all_zero():
    rows = [r for cat in CATALOG for r in negative_rows(cat)]
    got = [
        {
            "category": r["category"],
            "c": str(r["c"]),
            "chi": r["chi"].to_json(),
            "h_ext": str(r["h_ext"]),
            "alpha": str(r["alpha"]),
            "beta": str(r["beta"]),
            "n_max": r["n_max"],
            "chi10": str(r["chi10"]),
        }
        for r in rows
    ]
    assert got == fixture("nmax_negative.json")
    assert all(r["n_max"] == 0 for r in rows)


def test_negative_base_points_are_one_step_down():
    for cat in CATALOG:
        for i, (c_seed, _, h_seed) in enumerate(seed_rows(cat)):
            c, m, h = negative_base_point(cat, i)
            assert c == c_seed - 24
            assert h == h_seed - 2 and h < 0
            assert alpha_beta(m).beta > 1 and abs(m.z) <= 1


def test_chi10_stays_small_under_further_descent():
    """|chi_10| < 1 for five more reverse steps from every base point."""
    for cat in CATALOG:
        for i in range(3):
            _, m, h = negative_base_point(cat, i)
            state = (m, h)
            for _ in range(5):
                state = iterate(*state, -1)
                assert abs(state[0].z) < 1
                assert state[0].z != 0


def _poly_mul(p, q):
    """Product of two polynomials in n, as coefficient lists from n^0 up."""
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _poly_add(*ps):
    return [sum(cs, F(0)) for cs in itertools.zip_longest(*ps, fillvalue=F(0))]


def _poly_eval(p, n):
    return sum(c * n**k for k, c in enumerate(p))


def test_negative_window_is_complete_for_every_n():
    """beta_n > 1 for every n >= 0 below each base point, so chi_10 never
    again becomes a non-negative integer.

    With D(n) = (h - 2n)(h - 2n - 1)^2 (h - 2n - 2), ``k_closed`` gives
    (beta_n - 1) D(n) = P(n) = n (h - n - 1)(alpha + 120 (h - 1))^2
    + (h (h - 2) beta - 746496 n (h - n - 1))(h - 2n - 1)^2 - D(n), a quartic
    in n.  D(n) > 0 for h < 0 and n >= 0, and a quartic whose five
    coefficients are positive is positive for every n >= 0.
    """
    seen = 0
    for cat in CATALOG:
        for i in range(3):
            _, m, h = negative_base_point(cat, i)
            ab = alpha_beta(m)
            a, b = ab.alpha, ab.beta
            assert h < 0
            # the factors of D and P as polynomials in n
            h_2n, h_2n_1, h_2n_2 = [h, F(-2)], [h - 1, F(-2)], [h - 2, F(-2)]
            n_h_n_1 = [F(0), h - 1, F(-1)]  # n (h - n - 1)
            d = _poly_mul(_poly_mul(h_2n, h_2n_1), _poly_mul(h_2n_1, h_2n_2))
            p = _poly_add(
                [c * (a + 120 * (h - 1)) ** 2 for c in n_h_n_1],
                _poly_mul(_poly_add([h * (h - 2) * b], [-746496 * c for c in n_h_n_1]),
                          _poly_mul(h_2n_1, h_2n_1)),
                [-c for c in d],
            )
            for n in range(9):
                beta_n = k_closed(ab, h, n)[0].beta
                assert _poly_eval(p, n) == (beta_n - 1) * _poly_eval(d, n)
            assert len(p) == 5 and all(c > 0 for c in p), (cat.id, i, p)
            seen += 1
    assert seen == 24


# ---------------------------------------------------------------------------
# combined window


def test_c_extremes_golden_values():
    for cat in CATALOG:
        assert c_extremes(cat) == GOLDEN_EXTREMES[cat.id]


def test_semion_class0_negative_side():
    c, m, h = negative_base_point("semion", 0)
    assert c == -23
    assert nmax_negative(m, h) == 0
    assert negative_threshold(m, h) == F(6, 43)
