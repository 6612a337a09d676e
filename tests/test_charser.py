from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extremal2 import charser
from extremal2.charser import (
    COSET_CHARACTER,
    EXTENSION_CHARACTER,
    _mismatches,
    _series_product,
    _series_sum,
    branching_diagnostic,
    character_vector,
    characters,
    coset_extension_sum_check,
    expand,
)
from extremal2.chimat import CharMatrix, chi_of, f_plus, seed, seed_rows
from extremal2.classify import candidates, classify_all
from extremal2.exactq import ode_series
from extremal2.genus import CATALOG, category, genus

F = Fraction
IDENTITY = ((F(1), F(0)), (F(0), F(1)))


def characters_fixture():
    return json.loads(
        resources.files("extremal2").joinpath("fixtures", "characters.json").read_text()
    )["rows"]


# ---------------------------------------------------------------------------
# coefficient series of the differential equation


def test_scalar_coefficient_series():
    a, b = ode_series(8)
    assert a[:3] == [1, 0, 338328]
    assert b[:3] == [0, 1, 240]


def _mul(p, q):
    return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _lin(s, p, t, q):
    return tuple(tuple(s * p[i][j] + t * q[i][j] for j in range(2)) for i in range(2))


def schoolbook_d(g, m, count):
    """D_0 .. D_{count-1}, D_k = a_k (Lambda - I) + b_k (chi + Lambda chi - chi Lambda),
    built from matrix products rather than the entry formula used by expand."""
    a, b = ode_series(count)
    big_lam = ((g.lambda0, F(0)), (F(0), g.lambda1))
    chi = ((m.x, m.y), (m.z, m.w))
    comm = _lin(1, chi, 1, _lin(1, _mul(big_lam, chi), -1, _mul(chi, big_lam)))
    return [_lin(a[k], _lin(1, big_lam, -1, IDENTITY), b[k], comm) for k in range(count)]


def schoolbook_coeffs(g, m, order):
    """X[-1] .. X[order] from the explicit matrices D_k of schoolbook_d
    and X[n] = [sum_{m=-1}^{n-1} X[m] D_{n-m}]_ij / (lam_i - lam_j + n + 1)."""
    lam = (g.lambda0, g.lambda1)
    d = schoolbook_d(g, m, order + 2)
    xs = [IDENTITY, ((m.x, m.y), (m.z, m.w))]
    for n in range(1, order + 1):
        acc = ((F(0), F(0)), (F(0), F(0)))
        for k in range(-1, n):
            acc = _lin(1, acc, 1, _mul(xs[k + 1], d[n - k]))
        xs.append(
            tuple(tuple(acc[i][j] / (lam[i] - lam[j] + n + 1) for j in range(2)) for i in range(2))
        )
    return tuple(xs)


def test_d0_is_lambda_minus_identity():
    g = genus(category("semion"), 1)
    d = schoolbook_d(g, chi_of("semion", 1), 3)
    assert d[0] == ((g.lambda0 - 1, F(0)), (F(0), g.lambda1 - 1))


def test_d1_entry_structure():
    # D_1 = chi + [Lambda, chi]: entry (i, j) is chi_ij (1 + lam_i - lam_j),
    # the B that expand applies, and X[0] = chi solves the order-0 equation with it
    g = genus(category("semion"), 1)
    m = chi_of("semion", 1)
    d = schoolbook_d(g, m, 2)
    h = g.h_ext
    assert d[1] == (
        (m.x, m.y * (2 - h)),
        (m.z * h, m.w),
    )
    lam = (g.lambda0, g.lambda1)
    x0 = expand(g, m, 1).matrix(0)
    assert all(
        (lam[i] - lam[j] + 1) * x0[i][j] == d[1][i][j] for i in range(2) for j in range(2)
    )


def test_expansion_matches_schoolbook_d_matrices_on_every_candidate():
    count = 0
    for cat in CATALOG:
        for c, m, _ in candidates(cat):
            g = genus(cat, c)
            assert expand(g, m, 12).coeffs == schoolbook_coeffs(g, m, 12), (cat.id, c)
            count += 1
    assert count == 74


# ---------------------------------------------------------------------------
# the expansion itself


def test_expansion_normalization():
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            e = expand(genus(cat, c), m, 2)
            assert e.matrix(-1) == IDENTITY
            assert e.matrix(0) == ((m.x, m.y), (m.z, m.w))


@pytest.mark.parametrize(
    "skew",
    [
        lambda a, b: ([a[0], a[1] + 1, *a[2:]], b),  # shifts a_1 away from zero
        lambda a, b: (a, [b[0], b[1] + 1, *b[2:]]),  # shifts b_1 away from one
    ],
    ids=["a1", "b1"],
)
def test_expansion_rejects_inconsistent_normalization(monkeypatch, skew):
    # a broken scalar series must make the n = 0 step miss chi
    import extremal2.charser as charser

    real = charser.ode_series

    def skewed(n):
        return skew(*real(n))

    monkeypatch.setattr(charser, "ode_series", skewed)
    with pytest.raises(ValueError, match="inconsistent"):
        charser.expand(genus(category("semion"), 1), chi_of("semion", 1), 2)


def closed_w1(g, m):
    h, c = g.h_ext, g.c
    return (m.w * (m.w + 240) - (h - 2) * m.y * m.z + 338328 * (h - 1 - c / 24)) / 2


def closed_z1(g, m):
    return (m.x + g.h_ext * (m.w + 240)) / (g.h_ext + 1) * m.z


def closed_z2(g, m, w1, z1):
    h, c = g.h_ext, g.c
    return (
        m.x * (z1 + 240 * m.z)
        + m.z * (h * w1 + 240 * h * m.w + 199044 * h - 338328 * c / 24)
    ) / (h + 2)


def test_first_order_entries_match_closed_forms_on_all_seeds():
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            g = genus(cat, c)
            e = expand(g, m, 2)
            w1 = e.matrix(1)[1][1]
            z1 = e.matrix(1)[1][0]
            z2 = e.matrix(2)[1][0]
            assert w1 == closed_w1(g, m)
            assert z1 == closed_z1(g, m)
            assert z2 == closed_z2(g, m, w1, z1)


def test_semion_c1_hand_values():
    g = genus(category("semion"), 1)
    e = expand(g, chi_of("semion", 1), 3)
    assert e.matrix(1)[1][0] == 2  # z1, the "2 + 2q" coefficient
    assert e.matrix(1)[1][1] == -86241  # w1 by direct substitution
    assert e.matrix(2)[1][0] == 6  # z2, the "+ 6q^2" coefficient
    assert e.matrix(1)[0][0] == 4  # x1, the "+ 4q^2" coefficient


def test_step_up_compatibility_on_surviving_genera():
    """f_plus constants agree with the expansion: y+ = 1/z0 and w+ = z1/z0."""
    for row in classify_all():
        g = genus(row.category, row.c)
        e = expand(g, row.chi, 2)
        z0, z1 = row.chi.z, e.matrix(1)[1][0]
        up, _ = f_plus(row.chi, g.h_ext)
        assert up.y == 1 / z0
        assert up.w == z1 / z0


def test_expansion_denominators_never_vanish_on_catalog():
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            expand(genus(cat, c), m, 8)  # raises on a vanishing denominator


def test_character_vector_examples():
    g = genus(category("semion"), 1)
    vec = character_vector(expand(g, chi_of("semion", 1), 4))
    assert vec.exponent0 == F(-1, 24) and vec.exponent1 == F(5, 24)
    assert vec.series0[:3] == (1, 3, 4)
    assert vec.series1[:3] == (2, 2, 6)

    vec = character_vector(expand(genus(category("semion"), 33), chi_of("semion", 33), 4))
    assert vec.series0[:3] == (1, 3, 86004)
    assert vec.series1[:2] == (565760, 192053760)

    yl = category("yang-lee")
    vec = character_vector(expand(genus(yl, F(-22, 5)), chi_of(yl, F(-22, 5)), 4))
    assert vec.series0[:3] == (1, 0, 1)
    assert vec.series1[:3] == (1, 1, 1)


def test_every_printed_character_coefficient():
    for row in characters_fixture():
        cat = category(row["category"])
        c = F(row["c"])
        vec = character_vector(expand(genus(cat, c), chi_of(cat, c), 8))
        assert str(vec.exponent0) == row["exponent0"]
        assert str(vec.exponent1) == row["exponent1"]
        assert [str(v) for v in vec.series0[: len(row["series0"])]] == row["series0"]
        assert [str(v) for v in vec.series1[: len(row["series1"])]] == row["series1"]


def test_surviving_characters_integral_through_order_eight():
    for row in classify_all():
        vec = character_vector(expand(genus(row.category, row.c), row.chi, 8))
        assert vec.is_nonneg_integral()


# ---------------------------------------------------------------------------
# characters: the scalar MLDE against expand


def test_characters_match_expand_on_every_window_candidate():
    ells = {}
    for cat in CATALOG:
        for c, m, _ in candidates(cat):
            g = genus(cat, c)
            assert characters(g, m, 20) == character_vector(expand(g, m, 20)), (cat.id, c)
            ells[g.ell] = ells.get(g.ell, 0) + 1
    assert ells == {0: 27, 2: 23, 4: 24}


@given(st.sampled_from(CATALOG), st.integers(0, 2), st.integers(-6, 6), st.integers(1, 12))
def test_characters_match_expand_on_walk_genera(cat, class_index, steps, order):
    c = seed(cat, class_index)[0] + 24 * steps
    g, m = genus(cat, c), chi_of(cat, c)
    assert characters(g, m, order) == character_vector(expand(g, m, order))


def test_characters_rescale_the_running_denominator():
    """The vacuum series starts at 1 over denominator 1, so a fractional
    coefficient there exists only because a quotient was not an integer."""
    g, m = genus(category("semion"), -23), chi_of("semion", -23)
    vec = characters(g, m, 4)
    assert [v.denominator for v in vec.series0] == [1, 11, 11, 209, 11, 11]
    assert vec.series0[1] == m.x == F(713, 11)
    assert vec == character_vector(expand(g, m, 4))


@pytest.mark.parametrize("cat, c", [("semion", 1), ("semion", 17), ("fib", F(94, 5))])
def test_characters_reject_a_tampered_chi00_where_it_is_an_output(cat, c):
    g, m = genus(category(cat), c), chi_of(cat, c)
    assert g.ell in (0, 2)
    characters(g, m, 3)
    with pytest.raises(ValueError, match="chi inconsistent with ODE at order 0"):
        characters(g, m._replace(x=m.x + 1), 3)


def test_characters_fit_nu_to_chi00_at_ell_four():
    g, m = genus(category("semion"), 33), chi_of("semion", 33)
    assert g.ell == 4
    tampered = characters(g, m._replace(x=m.x + 1), 3)
    assert tampered.series0[1] == m.x + 1 and tampered != characters(g, m, 3)


def test_characters_validate_order_and_ell():
    g, m = genus(category("semion"), 1), chi_of("semion", 1)
    with pytest.raises(ValueError, match="order must be at least 1"):
        characters(g, m, 0)
    with pytest.raises(ValueError, match="no scalar MLDE for ell = 3"):
        characters(g._replace(ell=3), m, 4)


# ---------------------------------------------------------------------------
# (offset, coeffs) components and the coset checks


def test_offset_series_alignment_rules():
    a = (F(-4, 3), (1, 2))
    b = (F(-4, 3) + 2, (5,))
    assert _series_sum(a, b) == (F(-4, 3), (1, 2))
    bad = (F(-1, 4), (1,))
    with pytest.raises(ValueError, match="incompatible exponents"):
        _series_sum(a, bad)
    with pytest.raises(ValueError, match="incompatible exponents"):
        _mismatches(bad, a)


def test_character_vector_component_pairs():
    semion = category("semion")
    vec = character_vector(expand(genus(semion, 1), chi_of(semion, 1), 3))
    assert vec.component(0) == (F(-1, 24), vec.series0)
    assert vec.component(1) == (F(5, 24), vec.series1)
    with pytest.raises(ValueError, match="0 or 1"):
        vec.component(2)


def _terms(component):
    """Oracle view: {exponent: coefficient} and the exponent where the window ends."""
    offset, coeffs = component
    return {offset + k: c for k, c in enumerate(coeffs)}, offset + len(coeffs)


def _lead(component):
    terms, end = _terms(component)
    return min((e for e, c in terms.items() if c), default=end)


_components = st.tuples(
    st.integers(-3, 3).map(lambda k: F(1, 3) + k),
    st.lists(st.integers(-4, 4) | st.just(0), max_size=6).map(tuple),
)


@given(_components, _components)
def test_component_sum_and_product_against_a_dict_oracle(a, b):
    (ta, end_a), (tb, end_b) = _terms(a), _terms(b)
    offset, coeffs = _series_sum(a, b)
    assert offset == min(a[0], b[0]) and offset + len(coeffs) == min(end_a, end_b)
    for k, c in enumerate(coeffs):
        assert c == ta.get(offset + k, 0) + tb.get(offset + k, 0)

    offset, coeffs = _series_product(a, b)
    end = min(end_a + _lead(b), end_b + _lead(a))
    assert offset == a[0] + b[0] and offset + len(coeffs) == end
    want = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            want[ea + eb] = want.get(ea + eb, 0) + ca * cb
    assert all(c == want.get(offset + k, 0) for k, c in enumerate(coeffs))


def test_holomorphic_sum_check_printed_values():
    coset0, coset2 = COSET_CHARACTER[0][1], COSET_CHARACTER[3][1]
    assert coset0[2] + coset2[0] == 139504
    assert 69616 + 69888 == 139504
    assert coset0[3] + coset2[1] == 69332992
    assert 34668544 + 34664448 == 69332992
    assert coset_extension_sum_check()
    # the weight-2 component ends where the vacuum component does, so the
    # sum covers the whole extension window
    assert _series_sum(COSET_CHARACTER[0], COSET_CHARACTER[3]) == EXTENSION_CHARACTER


def test_mismatches_and_a_failing_coset_sum(monkeypatch):
    wrong = (F(-4, 3), (2,))
    assert _mismatches(wrong, EXTENSION_CHARACTER) == [(0, 2, 1)]
    # powers count from the lower offset; the later window is padded with zeros
    assert _mismatches((F(-1, 3), (0, 7)), EXTENSION_CHARACTER) == [(0, 0, 1), (2, 7, 139504)]
    assert _mismatches(EXTENSION_CHARACTER, EXTENSION_CHARACTER) == []
    bumped = (COSET_CHARACTER[3][0], (69888, 34664449))
    monkeypatch.setattr(charser, "COSET_CHARACTER", COSET_CHARACTER[:3] + (bumped,))
    assert not coset_extension_sum_check()


def test_module_pairing_pins_the_stored_c94_component():
    """M_{9/4} = C_{9/4} * A_0 + C_2 * A_{1/4}, under the weight pairing
    (9/4, 2) <-> (0, 1/4), against the module component of the c = 33
    character: the stored C_{9/4} misses it at q^0 and q^1.  Pinned as it
    stands; the data are not corrected here."""
    semion = category("semion")
    a1 = character_vector(expand(genus(semion, 1), chi_of(semion, 1), order=6))
    target = character_vector(expand(genus(semion, 33), chi_of(semion, 33), order=6))
    computed = _series_sum(
        _series_product(COSET_CHARACTER[1], a1.component(0)),
        _series_product(COSET_CHARACTER[3], a1.component(1)),
    )
    assert computed[0] == target.exponent1 == F(7, 8)
    assert _mismatches(computed, target.component(1)) == [
        (0, 565968, 565760), (1, 192113616, 192053760)]


def test_branching_diagnostic_reports_documented_mismatch():
    diag = branching_diagnostic()
    assert not diag.matches
    first = diag.mismatches[0]
    assert first[0] == 2
    assert (first[1], first[2]) == (90110, 86004)
