from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from extremal2.chimat import (
    AlphaBeta,
    CharMatrix,
    alpha_beta,
    g_closed,
    iterate,
    k_closed,
    seed_rows,
    walk,
)
from extremal2.genus import CATALOG, category, genus

from conftest import random_charmatrix, random_noninteger_h

F = Fraction


# ---------------------------------------------------------------------------
# the schoolbook steps: the Fraction formulas of f+ and f- (iterate's
# docstring), one step at a time, as the oracle for its integer kernel


def schoolbook_plus(m: CharMatrix, h: Fraction) -> tuple[CharMatrix, Fraction]:
    if h.denominator == 1:
        raise ValueError(f"h = {h} must not be an integer")
    if m.z == 0:
        raise ValueError("not in M-: bottom-left entry is zero")
    x, y, z, w = m
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


def schoolbook_minus(m: CharMatrix, h: Fraction) -> tuple[CharMatrix, Fraction]:
    if h.denominator == 1:
        raise ValueError(f"h = {h} must not be an integer")
    if m.y == 0:
        raise ValueError("not in M+: top-right entry is zero")
    x, y, z, w = m
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


def schoolbook_walk(m: CharMatrix, h: Fraction, steps: int):
    """Yield (j, state) for j = 1 .. |steps|, the state after j schoolbook
    steps, or the ValueError of the step that raised, after which it stops."""
    step = schoolbook_plus if steps > 0 else schoolbook_minus
    state = (m, F(h))
    for j in range(1, abs(steps) + 1):
        try:
            state = step(*state)
        except ValueError as exc:
            yield j, exc
            return
        yield j, state


def negative_fixture_rows():
    data = json.loads(
        resources.files("extremal2").joinpath("fixtures", "nmax_negative.json").read_text()
    )
    return data["rows"]


def test_f_plus_maps_negative_row_back_to_seed():
    m = CharMatrix(59, 13424640, F(1, 88), -55)
    out, h = iterate(m, F(-3, 4), 1)
    assert out == CharMatrix(323, 88, 1632, -319)
    assert h == F(5, 4)


def test_f_minus_from_chi_one():
    m = CharMatrix(3, 26752, 2, -247)
    out, h = iterate(m, F(1, 4), -1)
    assert out == CharMatrix(
        F(713, 11), F(57264144384, 11), F(1, 26752), F(-3397, 11)
    )
    assert h == F(-7, 4)


def test_f_minus_from_chi_seventeen():
    out, h = iterate(CharMatrix(323, 88, 1632, -319), F(5, 4), -1)
    assert out == CharMatrix(59, 13424640, F(1, 88), -55)
    assert h == F(-3, 4)


def test_inverse_pair_on_all_seeds():
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            assert iterate(*iterate(m, h, -1), 1) == (m, h)
            assert iterate(*iterate(m, h, 1), -1) == (m, h)


def test_inverse_pair_on_random_matrices(rng):
    for _ in range(200):
        m = random_charmatrix(rng)
        h = random_noninteger_h(rng)
        down, h_down = iterate(m, h, -1)
        if down.y != 0 and down.z != 0:
            assert iterate(down, h_down, 1) == (m, h)
        up, h_up = iterate(m, h, 1)
        if up.y != 0 and up.z != 0:
            assert iterate(up, h_up, -1) == (m, h)


def test_f_plus_requires_nonzero_bottom_left():
    with pytest.raises(ValueError, match="M-"):
        iterate(CharMatrix(1, 1, 0, 1), F(1, 4), 1)


def test_f_minus_requires_nonzero_top_right():
    with pytest.raises(ValueError, match=r"M\+"):
        iterate(CharMatrix(1, 0, 1, 1), F(1, 4), -1)


def test_integer_h_rejected():
    m = CharMatrix(1, 1, 1, 1)
    for steps in (1, -1):
        with pytest.raises(ValueError, match="integer"):
            iterate(m, F(3), steps)
    with pytest.raises(ValueError, match="integer"):
        g_closed(1, 1, F(-1), 1)
    with pytest.raises(ValueError, match="integer"):
        k_closed(AlphaBeta(F(1), F(1)), F(4), 1)


def test_iterate_identity_and_inverse_composition(rng):
    c, m, h = seed_rows("semion")[1]
    assert iterate(m, h, 0) == (m, h)
    assert iterate(*iterate(m, h, 3), -3) == (m, h)


def test_iterate_reaches_negative_table_row():
    _, m, h = seed_rows("semion")[0]
    out, h_out = iterate(m, h, -1)
    assert out.x == F(713, 11) and h_out == F(-7, 4)


def test_g_step_example():
    assert g_closed(F(3), F(-247), F(1, 4), 1) == (F(-245), F(1), F(9, 4))


def test_g_matches_diagonal_of_f_plus(rng):
    for _ in range(100):
        m = random_charmatrix(rng)
        h = random_noninteger_h(rng)
        out, h_out = iterate(m, h, 1)
        assert g_closed(m.x, m.w, h, 1) == (out.x, out.w, h_out)


def test_g_closed_identity_and_composition(rng):
    """With the base case above, g_closed(n + 1) = g_closed(g_closed(n), 1)
    makes g_closed(n) the n-fold diagonal of f+."""
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
    makes k_closed(n) the n-fold alpha_beta of f-."""
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
            down, h_down = iterate(m, h, -1)
            assert k_closed(alpha_beta(m), h, 1) == (alpha_beta(down), h_down)
    for _ in range(100):
        m = random_charmatrix(rng)
        h = random_noninteger_h(rng)
        down, h_down = iterate(m, h, -1)
        assert k_closed(alpha_beta(m), h, 1) == (alpha_beta(down), h_down)


rationals = st.fractions(-1000, 1000, max_denominator=30)
noninteger_h = st.fractions(-20, 20, max_denominator=12).filter(lambda h: h.denominator != 1)


@given(rationals, rationals, rationals.filter(bool), rationals, noninteger_h)
def test_f_minus_inverts_f_plus(x, y, z, w, h):
    m = CharMatrix(x, y, z, w)
    assert iterate(*iterate(m, h, 1), -1) == (m, h)


# The diagonal of f+ reads only (chi00, chi11, h), and alpha_beta of
# f- only (alpha, beta, h), so each step lifts its state to any matrix
# with those entries and a nonzero off-diagonal entry where the map divides.


@given(rationals, rationals, noninteger_h, st.integers(0, 6))
def test_g_closed_is_the_iterated_step(x, w, h, n):
    state = (x, w, h)
    for _ in range(n):
        up, h_up = iterate(CharMatrix(state[0], 0, 1, state[1]), state[2], 1)
        state = (up.x, up.w, h_up)
    assert g_closed(x, w, h, n) == state


@given(rationals, rationals, noninteger_h, st.integers(0, 6))
def test_k_closed_is_the_iterated_step(alpha, beta, h, n):
    ab = AlphaBeta(alpha, beta)
    state = (ab, h)
    for _ in range(n):
        down, h_down = iterate(CharMatrix(state[0].alpha, 1, state[0].beta, 0), state[1], -1)
        state = (alpha_beta(down), h_down)
    assert k_closed(ab, h, n) == state


def test_seed_examples():
    semion = seed_rows("semion")
    assert [c for c, _, _ in semion] == [1, 9, 17]  # the three classes, ascending
    assert semion[0] == (F(1), CharMatrix(3, 26752, 2, -247), F(1, 4))
    assert semion[2] == (F(17), CharMatrix(323, 88, 1632, -319), F(5, 4))
    assert seed_rows("yang-lee-bar")[0] == (
        F(22, 5),
        CharMatrix(-55, 32509, 11, 59),
        F(1, 5),
    )
    assert seed_rows("fib")[0] == (F(14, 5), CharMatrix(14, 12857, 7, -258), F(2, 5))
    # ell = 0 seeds, where the MLDE outputs chi_00 = dim V(1): A1, E7, G2 and F4
    ell0 = [seed_rows(cat_id)[0] for cat_id in ("semion", "semion-bar", "fib", "fib-bar")]
    assert [(c, m.x) for c, m, _ in ell0] == [(1, 3), (7, 133), (F(14, 5), 14), (F(26, 5), 52)]


# The seed table as it was transcribed before seed_rows derived anything:
# (category, c, ((x, y), (z, w)), h_ext).  seed_rows now stores only each
# ell = 0 seed's (c, z) and derives the rest, so this is the oracle for all
# 80 derived entries and the 24 derived h.
TRANSCRIBED_SEED_ROWS = (
    ("semion", 1, ((3, 26752), (2, -247)), F(1, 4)),
    ("semion", 9, ((251, 26752), (2, 1)), F(1, 4)),
    ("semion", 17, ((323, 88), (1632, -319)), F(5, 4)),
    ("semion-bar", 7, ((133, 1248), (56, -377)), F(3, 4)),
    ("semion-bar", 15, ((381, 1248), (56, -129)), F(3, 4)),
    ("semion-bar", 23, ((69, 10), (32384, -65)), F(7, 4)),
    ("semion-dagger", 11, ((-319, 1632), (88, 323)), F(3, 4)),
    ("semion-dagger", 19, ((-247, 2), (26752, 3)), F(7, 4)),
    ("semion-dagger", 27, ((1, 2), (26752, 251)), F(7, 4)),
    ("semion-bar-dagger", 5, ((-65, 32384), (10, 69)), F(1, 4)),
    ("semion-bar-dagger", 13, ((-377, 56), (1248, 133)), F(5, 4)),
    ("semion-bar-dagger", 21, ((-129, 56), (1248, 381)), F(5, 4)),
    ("fib", F(14, 5), ((14, 12857), (7, -258)), F(2, 5)),
    ("fib", F(54, 5), ((262, 12857), (7, -10)), F(2, 5)),
    ("fib", F(94, 5), ((188, 46), (4794, -184)), F(7, 5)),
    ("fib-bar", F(26, 5), ((52, 3774), (26, -296)), F(3, 5)),
    ("fib-bar", F(66, 5), ((300, 3774), (26, -48)), F(3, 5)),
    ("fib-bar", F(106, 5), ((106, 17), (15847, -102)), F(8, 5)),
    ("yang-lee", F(58, 5), ((-406, 902), (87, 410)), F(4, 5)),
    ("yang-lee", F(98, 5), ((-245, 1), (26999, 1)), F(9, 5)),
    ("yang-lee", F(138, 5), ((3, 1), (26999, 249)), F(9, 5)),
    ("yang-lee-bar", F(22, 5), ((-55, 32509), (11, 59)), F(1, 5)),
    ("yang-lee-bar", F(62, 5), ((-434, 57), (682, 190)), F(6, 5)),
    ("yang-lee-bar", F(102, 5), ((-186, 57), (682, 438)), F(6, 5)),
)


def test_seed_rows_equal_the_transcribed_table():
    """Every (c, chi, h_ext) triple, h_ext now derived, equals the old table's."""
    got = [(cat.id, *row) for cat in CATALOG for row in seed_rows(cat)]
    want = [(cat_id, F(c), CharMatrix(x, y, z, w), h)
            for cat_id, c, ((x, y), (z, w)), h in TRANSCRIBED_SEED_ROWS]
    assert got == want
    assert all(type(v) is F for row in got for v in (row[1], row[3]))


@pytest.mark.parametrize("cat_id, c, seed_c, steps", [
    ("semion", 1, 1, 0), ("semion", 33, 9, 1), ("semion", -23, 1, -1),
    ("semion", -7, 17, -1), ("yang-lee", F(-22, 5), F(98, 5), -1),
    ("fib", F(94, 5) + 240, F(94, 5), 10),
])
def test_class_seed_finds_the_seed_and_the_signed_steps(cat_id, c, seed_c, steps):
    """``walk`` reaches c from its class seed in the signed number of steps."""
    (_, m0, h0), = (row for row in seed_rows(cat_id) if row[0] == seed_c)
    assert seed_c + 24 * steps == c
    assert walk(genus(category(cat_id), c)) == (iterate(m0, h0, steps)[0], None)


def test_class_seed_rejects_a_charge_outside_every_seed_class(monkeypatch):
    """A charge whose class mod 24 has no seed is an internal error."""
    import extremal2.chimat as chimat_mod

    monkeypatch.setattr(chimat_mod, "seed_rows", lambda cat: seed_rows(cat)[:2])
    with pytest.raises(RuntimeError, match="no seed of semion lies in the class of c = 41 mod 24"):
        walk(genus(category("semion"), 41))


def test_roundtrip_six_steps_and_offdiagonals_nonzero():
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            state = (m, h)
            for _ in range(6):
                state = iterate(*state, -1)
                assert state[0].y != 0 and state[0].z != 0
            back = iterate(*state, 6)
            assert back == (m, h)
            state = (m, h)
            for _ in range(6):
                state = iterate(*state, 1)
                assert state[0].y != 0 and state[0].z != 0
            assert iterate(*state, -6) == (m, h)


def test_negative_table_rows_derived_from_seeds():
    """Each golden negative-side row is one reverse step from its class seed."""
    rows = {(r["category"], r["c"]): r for r in negative_fixture_rows()}
    seen = 0
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            down, h_down = iterate(m, h, -1)
            row = rows[(cat.id, str(c - 24))]
            assert CharMatrix(**row["chi"]) == down
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
    assert CharMatrix(**m.to_json()) == m


def test_charmatrix_coerces_entries_to_fractions():
    m = CharMatrix(3, 26752, 2, "-247")
    assert all(type(v) is Fraction for v in m)
    assert m.x == 3 and m.w == -247
    assert all(type(v) is Fraction for v in CharMatrix._make([3, 26752, 2, "-247"]))
    assert all(type(v) is Fraction for v in m._replace(x=5, y="1/2"))


@given(rationals, rationals, rationals, rationals)
def test_charmatrix_json_roundtrip_property(x, y, z, w):
    m = CharMatrix(x, y, z, w)
    assert CharMatrix(**m.to_json()) == m


# ---------------------------------------------------------------------------
# the integer kernel against the schoolbook walk


def beta_killed_by_one_step(alpha: Fraction, h: Fraction, up: bool) -> Fraction:
    """The beta = y*z whose image under one step is 0, so the step after it
    meets a zero off-diagonal entry."""
    s2 = (alpha + 120 * (h - 1)) ** 2
    if up:
        return (s2 - 746496 * (h + 1) ** 2) / ((h + 1) ** 2 * (h - 2))
    return (746496 * (h - 3) ** 2 - s2) / (h * (h - 3) ** 2)


@st.composite
def walks(draw):
    """(m, h, steps) with |steps| <= 12.  h may be an integer, the entry a
    step divides by may be 0, and beta may be tuned to vanish after one step."""
    h = draw(st.fractions(-20, 20, max_denominator=12))
    steps = draw(st.integers(-12, 12))
    x, w = draw(rationals), draw(rationals)
    pivot, other = draw(rationals), draw(rationals)
    if pivot and h.denominator != 1 and steps and draw(st.booleans()):
        other = beta_killed_by_one_step(x - w, h, steps > 0) / pivot
    m = CharMatrix(x, other, pivot, w) if steps > 0 else CharMatrix(x, pivot, other, w)
    return m, h, steps


def assert_iterate_follows_the_schoolbook(m: CharMatrix, h: Fraction, steps: int) -> None:
    sign = 1 if steps > 0 else -1
    for j, state in schoolbook_walk(m, h, steps):
        if isinstance(state, ValueError):
            for n in (j, abs(steps)):  # the same error at the same step, and beyond it
                with pytest.raises(ValueError, match=re.escape(str(state))):
                    iterate(m, h, sign * n)
            return
        assert iterate(m, h, sign * j) == state


@given(walks())
@example((CharMatrix(1, 5, 0, 2), F(1, 4), 3))           # z = 0: f+ raises at once
@example((CharMatrix(1, 0, 5, 2), F(1, 4), -3))          # y = 0: f- raises at once
@example((CharMatrix(1, 5, 7, 2), F(3), 2))              # integer h
@example((CharMatrix(1, 5, 7, 2), F(3), 0))              # steps = 0 checks nothing
@example((CharMatrix(7, beta_killed_by_one_step(F(5), F(1, 4), True) / 3, 3, 2), F(1, 4), 4))
@example((CharMatrix(7, 3, beta_killed_by_one_step(F(5), F(1, 4), False) / 3, 2), F(1, 4), -4))
def test_iterate_is_the_schoolbook_composition(walk):
    m, h, steps = walk
    if steps == 0:
        assert iterate(m, h, 0) == (m, h)
    else:
        assert_iterate_follows_the_schoolbook(m, h, steps)


def test_tuned_beta_meets_a_zero_entry_at_the_second_step():
    h = F(1, 4)
    up = CharMatrix(7, beta_killed_by_one_step(F(5), h, True) / 3, 3, 2)
    down = CharMatrix(7, 3, beta_killed_by_one_step(F(5), h, False) / 3, 2)
    assert iterate(up, h, 1)[0].z == 0 and iterate(down, h, -1)[0].y == 0
    for m, steps in ((up, 2), (down, -2)):
        with pytest.raises(ValueError, match="entry is zero"):
            iterate(m, h, steps)


def test_iterate_matches_the_schoolbook_walk_from_every_seed():
    """All 24 seeds, every step within 70 of the seed, and 640 steps out."""
    for cat in CATALOG:
        for _, m, h in seed_rows(cat):
            for sign in (1, -1):
                for j, state in schoolbook_walk(m, h, 640 * sign):
                    if j <= 70:
                        assert iterate(m, h, j * sign) == state
                assert (j, iterate(m, h, 640 * sign)) == (640, state)
