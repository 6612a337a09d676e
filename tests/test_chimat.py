from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extremal2.chimat import (
    AlphaBeta,
    CharMatrix,
    alpha_beta,
    f_minus,
    f_plus,
    g_closed,
    iterate,
    k_closed,
    seed,
    seed_rows,
)
from extremal2.genus import CATALOG

from conftest import random_charmatrix, random_noninteger_h

F = Fraction


def negative_fixture_rows():
    data = json.loads(
        resources.files("extremal2").joinpath("fixtures", "nmax_negative.json").read_text()
    )
    return data["rows"]


def test_f_plus_maps_negative_row_back_to_seed():
    m = CharMatrix(59, 13424640, F(1, 88), -55)
    out, h = f_plus(m, F(-3, 4))
    assert out == CharMatrix(323, 88, 1632, -319)
    assert h == F(5, 4)


def test_f_minus_from_chi_one():
    m = CharMatrix(3, 26752, 2, -247)
    out, h = f_minus(m, F(1, 4))
    assert out == CharMatrix(
        F(713, 11), F(57264144384, 11), F(1, 26752), F(-3397, 11)
    )
    assert h == F(-7, 4)


def test_f_minus_from_chi_seventeen():
    out, h = f_minus(CharMatrix(323, 88, 1632, -319), F(5, 4))
    assert out == CharMatrix(59, 13424640, F(1, 88), -55)
    assert h == F(-3, 4)


def test_inverse_pair_on_all_seeds():
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            assert f_plus(*f_minus(m, h)) == (m, h)
            assert f_minus(*f_plus(m, h)) == (m, h)


def test_inverse_pair_on_random_matrices(rng):
    for _ in range(200):
        m = random_charmatrix(rng)
        h = random_noninteger_h(rng)
        down, h_down = f_minus(m, h)
        if down.y != 0 and down.z != 0:
            assert f_plus(down, h_down) == (m, h)
        up, h_up = f_plus(m, h)
        if up.y != 0 and up.z != 0:
            assert f_minus(up, h_up) == (m, h)


def test_f_plus_requires_nonzero_bottom_left():
    with pytest.raises(ValueError, match="M-"):
        f_plus(CharMatrix(1, 1, 0, 1), F(1, 4))


def test_f_minus_requires_nonzero_top_right():
    with pytest.raises(ValueError, match=r"M\+"):
        f_minus(CharMatrix(1, 0, 1, 1), F(1, 4))


def test_integer_h_rejected():
    m = CharMatrix(1, 1, 1, 1)
    for fn in (f_plus, f_minus):
        with pytest.raises(ValueError, match="integer"):
            fn(m, F(3))
    with pytest.raises(ValueError, match="integer"):
        g_closed(1, 1, F(-1), 1)
    with pytest.raises(ValueError, match="integer"):
        k_closed(AlphaBeta(F(1), F(1)), F(4), 1)


def test_iterate_identity_and_inverse_composition(rng):
    c, m, h = seed("semion", 1)
    assert iterate(m, h, 0) == (m, h)
    assert iterate(*iterate(m, h, 3), -3) == (m, h)


def test_iterate_reaches_negative_table_row():
    _, m, h = seed("semion", 0)
    out, h_out = iterate(m, h, -1)
    assert out.x == F(713, 11) and h_out == F(-7, 4)


def test_g_step_example():
    assert g_closed(F(3), F(-247), F(1, 4), 1) == (F(-245), F(1), F(9, 4))


def test_g_matches_diagonal_of_f_plus(rng):
    for _ in range(100):
        m = random_charmatrix(rng)
        h = random_noninteger_h(rng)
        out, h_out = f_plus(m, h)
        assert g_closed(m.x, m.w, h, 1) == (out.x, out.w, h_out)


def test_g_closed_identity_and_composition(rng):
    """With the base case above, g_closed(n + 1) = g_closed(g_closed(n), 1)
    makes g_closed(n) the n-fold diagonal of f_plus."""
    x, w, h = F(3), F(-247), F(1, 4)
    assert g_closed(x, w, h, 0) == (x, w, h)
    up, h_up = iterate(CharMatrix(3, 26752, 2, -247), h, 2)  # the diagonal is (x, w)
    assert g_closed(x, w, h, 2) == (up.x, up.w, h_up)
    for _ in range(20):
        x, w = F(rng.randint(-99, 99), rng.randint(1, 9)), F(rng.randint(-99, 99))
        h = random_noninteger_h(rng)
        for n in range(50):
            assert g_closed(x, w, h, n + 1) == g_closed(*g_closed(x, w, h, n), 1)


def test_alpha_beta_examples():
    chi_m23 = CharMatrix(F(713, 11), F(57264144384, 11), F(1, 26752), F(-3397, 11))
    ab = alpha_beta(chi_m23)
    assert (ab.alpha, ab.beta) == (F(4110, 11), F(23546112, 121))
    ab = alpha_beta(CharMatrix(0, 310124, 1, -244))
    assert (ab.alpha, ab.beta) == (244, 310124)
    assert alpha_beta(CharMatrix(5, 1, 1, 5)) == AlphaBeta(F(0), F(1))


def test_k_step_example():
    ab, h = k_closed(AlphaBeta(F(250), F(53504)), F(1, 4), 1)
    assert (ab.alpha, ab.beta, h) == (F(4110, 11), F(23546112, 121), F(-7, 4))


def test_k_closed_identity_and_composition(rng):
    """With the base case below, k_closed(n + 1) = k_closed(k_closed(n), 1)
    makes k_closed(n) the n-fold alpha_beta of f_minus."""
    ab, h = AlphaBeta(F(250), F(53504)), F(1, 4)
    assert k_closed(ab, h, 0) == (ab, h)
    down, h_down = iterate(CharMatrix(3, 26752, 2, -247), h, -3)  # alpha_beta is ab
    assert k_closed(ab, h, 3) == (alpha_beta(down), h_down)
    for _ in range(20):
        ab = AlphaBeta(F(rng.randint(-99, 99), rng.randint(1, 9)), F(rng.randint(1, 99)))
        h = random_noninteger_h(rng)
        for n in range(50):
            assert k_closed(ab, h, n + 1) == k_closed(*k_closed(ab, h, n), 1)


def test_k_step_matches_alpha_beta_of_f_minus(rng):
    for cat in CATALOG:
        for _, m, h in seed_rows(cat):
            down, h_down = f_minus(m, h)
            assert k_closed(alpha_beta(m), h, 1) == (alpha_beta(down), h_down)
    for _ in range(100):
        m = random_charmatrix(rng)
        h = random_noninteger_h(rng)
        down, h_down = f_minus(m, h)
        assert k_closed(alpha_beta(m), h, 1) == (alpha_beta(down), h_down)


rationals = st.fractions(-1000, 1000, max_denominator=30)
noninteger_h = st.fractions(-20, 20, max_denominator=12).filter(lambda h: h.denominator != 1)


@given(rationals, rationals, rationals.filter(bool), rationals, noninteger_h)
def test_f_minus_inverts_f_plus(x, y, z, w, h):
    m = CharMatrix(x, y, z, w)
    assert f_minus(*f_plus(m, h)) == (m, h)


# The diagonal of f_plus reads only (chi00, chi11, h), and alpha_beta of
# f_minus only (alpha, beta, h), so each step lifts its state to any matrix
# with those entries and a nonzero off-diagonal entry where the map divides.


@given(rationals, rationals, noninteger_h, st.integers(0, 6))
def test_g_closed_is_the_iterated_step(x, w, h, n):
    state = (x, w, h)
    for _ in range(n):
        up, h_up = f_plus(CharMatrix(state[0], 0, 1, state[1]), state[2])
        state = (up.x, up.w, h_up)
    assert g_closed(x, w, h, n) == state


@given(rationals, rationals, noninteger_h, st.integers(0, 6))
def test_k_closed_is_the_iterated_step(alpha, beta, h, n):
    ab = AlphaBeta(alpha, beta)
    state = (ab, h)
    for _ in range(n):
        down, h_down = f_minus(CharMatrix(state[0].alpha, 1, state[0].beta, 0), state[1])
        state = (alpha_beta(down), h_down)
    assert k_closed(ab, h, n) == state


def test_seed_examples():
    assert seed("semion", 0) == (F(1), CharMatrix(3, 26752, 2, -247), F(1, 4))
    assert seed("yang-lee-bar", 0) == (
        F(22, 5),
        CharMatrix(-55, 32509, 11, 59),
        F(1, 5),
    )
    assert seed("fib", 0) == (F(14, 5), CharMatrix(14, 12857, 7, -258), F(2, 5))


def test_seed_rejects_bad_class_index():
    with pytest.raises(ValueError):
        seed("semion", 3)


def test_roundtrip_six_steps_and_offdiagonals_nonzero():
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            state = (m, h)
            for _ in range(6):
                state = f_minus(*state)
                assert state[0].y != 0 and state[0].z != 0
            back = iterate(*state, 6)
            assert back == (m, h)
            state = (m, h)
            for _ in range(6):
                state = f_plus(*state)
                assert state[0].y != 0 and state[0].z != 0
            assert iterate(*state, -6) == (m, h)


def test_negative_table_rows_derived_from_seeds():
    """Each golden negative-side row is one reverse step from its class seed."""
    rows = {(r["category"], r["c"]): r for r in negative_fixture_rows()}
    seen = 0
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            down, h_down = f_minus(m, h)
            row = rows[(cat.id, str(c - 24))]
            assert CharMatrix.from_json(row["chi"]) == down
            assert F(row["h_ext"]) == h_down
            ab = alpha_beta(down)
            assert F(row["alpha"]) == ab.alpha
            assert F(row["beta"]) == ab.beta
            assert F(row["chi10"]) == down.z
            seen += 1
    assert seen == 24


def test_charmatrix_json_roundtrip():
    m = CharMatrix(F(713, 11), F(-3, 8), F(1, 26752), F(0))
    assert m.to_json() == {"x": "713/11", "y": "-3/8", "z": "1/26752", "w": "0"}
    assert CharMatrix.from_json(m.to_json()) == m


def test_charmatrix_coerces_entries_to_fractions():
    m = CharMatrix(3, 26752, 2, "-247")
    assert all(type(v) is Fraction for v in m)
    assert m.x == 3 and m.w == -247
    assert CharMatrix.from_rows(((3, 26752), (2, -247))) == m
    assert all(type(v) is Fraction for v in CharMatrix._make([3, 26752, 2, "-247"]))
    assert all(type(v) is Fraction for v in m._replace(x=5, y="1/2"))


@given(rationals, rationals, rationals, rationals)
def test_charmatrix_json_roundtrip_property(x, y, z, w):
    m = CharMatrix(x, y, z, w)
    assert CharMatrix.from_json(m.to_json()) == m
