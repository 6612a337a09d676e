"""Acceptance suite: one test per acceptance criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py`` (the status lines bypass
pytest's capture so they are always visible).  Criterion 10 is split into
its two clauses; the second clause is a faithful implementation of a
claim that the data refutes (three candidates survive the constant-term
filter and die only on series coefficients), so it is marked strict-xfail
and reported as an expected failure rather than silently weakened.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from extremal2.bounds import c_extremes, negative_rows, positive_rows
from extremal2.charser import (
    COSET_CHARACTER,
    EXTENSION_CHARACTER,
    _series_sum,
    branching_diagnostic,
    character_vector,
    coset_extension_sum_check,
    expand,
)
from extremal2.chimat import (
    alpha_beta,
    g_closed,
    iterate,
    k_closed,
    seed_rows,
)
from extremal2.classify import classify_all, first_column_admissible, survey
from extremal2.genus import CATALOG, category, genus
from extremal2.reedmuller import (
    construction_xi,
    lemma5_check,
    lemma6_scan,
    min_weight_rm46,
    rm46_member,
    rm46_member_dual,
    rm_codes,
    verify_theorem1_xi,
    weight_enumerator,
)

from conftest import ACCEPTANCE_REPORT, in_span, j_and_script_e, random_charmatrix, random_noninteger_h

F = Fraction


def fixture_rows(name: str):
    return json.loads(
        resources.files("extremal2").joinpath("fixtures", name).read_text()
    )["rows"]


def announce(num: str, title: str, passed: bool, note: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:>3}: {status} - {title}{note}"
    ACCEPTANCE_REPORT.append(line)
    print(line)


def test_criterion_01_golden_classification():
    rows = classify_all()
    got = [(r.category.id, r.c, r.h_ext, r.ell) for r in rows]
    want = [
        (row["category"], F(row["c"]), F(row["h_ext"]), row["ell"])
        for row in fixture_rows("classify.json")
    ]
    ok = len(rows) == 15 and got == want
    announce("1", "classification returns exactly the 15 golden genera", ok)
    assert ok


def test_criterion_02_golden_characters():
    ok = True
    for row in fixture_rows("characters.json"):
        cat = category(row["category"])
        c = F(row["c"])
        vec = character_vector(expand(genus(cat, c), _chi(cat, c), 8))
        ok = ok and [str(v) for v in vec.series0[: len(row["series0"])]] == row["series0"]
        ok = ok and [str(v) for v in vec.series1[: len(row["series1"])]] == row["series1"]
        ok = ok and str(vec.exponent0) == row["exponent0"]
        ok = ok and str(vec.exponent1) == row["exponent1"]
    announce("2", "every printed character coefficient of all 15 genera", ok)
    assert ok


def _chi(cat, c):
    from extremal2.chimat import chi_of

    return chi_of(cat, c)


def test_criterion_03_golden_bound_tables():
    pos = [
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
    # the negative side is re-derived from the seeds by reverse steps
    neg = [
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
        for cat in CATALOG
        for r in negative_rows(cat)
    ]
    ok = pos == fixture_rows("nmax_positive.json")
    ok = ok and neg == fixture_rows("nmax_negative.json")
    ok = ok and all(r["n_max"] == 0 for r in neg)
    announce("3", "both 24-row bound tables, negative side derived by reverse steps", ok)
    assert ok


def test_criterion_04_c_extremes():
    want = {r["category"]: (F(r["c_min"]), F(r["c_max"])) for r in fixture_rows("bounds_summary.json")}
    got = {cat.id: c_extremes(cat) for cat in CATALOG}
    ok = got == want
    announce("4", "all 8 c_max and all 8 c_min values", ok)
    assert ok


def test_criterion_05_recurrence_properties():
    ok = True
    for cat in CATALOG:
        for _, m, h in seed_rows(cat):
            ok = ok and iterate(*iterate(m, h, -1), 1) == (m, h)
            ok = ok and iterate(*iterate(m, h, 1), -1) == (m, h)
    rng = random.Random(20240)
    count = 0
    while count < 200:
        m = random_charmatrix(rng)
        h = random_noninteger_h(rng)
        down, hd = iterate(m, h, -1)
        up, hu = iterate(m, h, 1)
        if down.y == 0 or down.z == 0 or up.y == 0 or up.z == 0:
            continue
        count += 1
        ok = ok and iterate(down, hd, 1) == (m, h) and iterate(up, hu, -1) == (m, h)
        # the closed forms at n = 1 are the diagonal of f+ and alpha_beta of f-
        ok = ok and g_closed(m.x, m.w, h, 1) == (up.x, up.w, hu)
        ok = ok and k_closed(alpha_beta(m), h, 1) == (alpha_beta(down), hd)
    for _ in range(10):
        x, w = F(rng.randint(-50, 50), 7), F(rng.randint(-50, 50), 3)
        h = random_noninteger_h(rng)
        ab = alpha_beta(random_charmatrix(rng))
        ok = ok and g_closed(x, w, h, 0) == (x, w, h) and k_closed(ab, h, 0) == (ab, h)
        for n in range(50):  # so by induction each closed form is the n-fold step
            ok = ok and g_closed(x, w, h, n + 1) == g_closed(*g_closed(x, w, h, n), 1)
            ok = ok and k_closed(ab, h, n + 1) == k_closed(*k_closed(ab, h, n), 1)
    announce("5", "inverse recurrences and closed forms through n = 50", ok)
    assert ok


def test_criterion_06_ode_cross_validation():
    ok = True
    for cat in CATALOG:
        for c, m, h in seed_rows(cat):
            g = genus(cat, c)
            e = expand(g, m, 2)
            w1 = (m.w * (m.w + 240) - (h - 2) * m.y * m.z + 338328 * (h - 1 - c / 24)) / 2
            z1 = (m.x + h * (m.w + 240)) / (h + 1) * m.z
            z2 = (
                m.x * (z1 + 240 * m.z)
                + m.z * (h * w1 + 240 * h * m.w + 199044 * h - 338328 * c / 24)
            ) / (h + 2)
            ok = ok and e.matrix(1)[1][1] == w1
            ok = ok and e.matrix(1)[1][0] == z1
            ok = ok and e.matrix(2)[1][0] == z2
            ok = ok and e.matrix(0) == ((m.x, m.y), (m.z, m.w))
    semion = category("semion")
    e = expand(genus(semion, 1), _chi(semion, 1), 1)
    ok = ok and e.matrix(1)[1][0] == 2
    announce("6", "closed first-order formulas match the recursion on all seeds", ok)
    assert ok


def test_criterion_07_series_anchors():
    # read back off ode_series, the two series the recursion consumes
    j, script_e = j_and_script_e(3)  # coefficients of q^-1, q^0, q^1
    ok = j == [1, 0, 196884]
    ok = ok and script_e == [1, -240, -141444]
    announce("7", "J and the auxiliary series expand with the quoted coefficients", ok)
    assert ok


def test_criterion_08_code_suite():
    codes = rm_codes()
    ok = weight_enumerator(codes.rm16) == {0: 1, 32: 126, 64: 1}
    dual14 = codes.rm14.dual()
    ok = ok and codes.rm24.dim == 11 and dual14.dim == 11
    ok = ok and all(in_span(codes.rm24.basis, w) for w in dual14.basis)
    mw, witness = min_weight_rm46()  # includes the exhaustive weight <= 3 scan
    ok = ok and mw == 4 and witness.bit_count() == 4 and rm46_member(witness)
    for g in sorted(codes.rm16.words):
        ok = ok and rm46_member(g) == rm46_member_dual(g) == True  # noqa: E712
    rng = random.Random(1234)
    for _ in range(10_000):
        w = rng.getrandbits(64)
        ok = ok and rm46_member(w) == rm46_member_dual(w)
    sweep = lemma6_scan()
    ok = ok and sweep.weight6_count == 448
    ok = ok and sweep.all_conditions_pass and sweep.all_cosets_match
    cert = verify_theorem1_xi()
    rep = cert.conditions
    ok = ok and rep.cond_i and rep.cond_ii and rep.cond_iii and rep.cond_iv
    ok = ok and cert.min_coset_weight == 28 and cert.top_weight == F(7, 4)
    announce("8", "Reed-Muller enumerators, membership, sweeps and the certificate", ok)
    assert ok


def test_criterion_09_holomorphic_extension_sum():
    comp0, comp2 = COSET_CHARACTER[0], COSET_CHARACTER[3]
    ok = comp0[1][2] + comp2[1][0] == 139504
    ok = ok and comp0[1][3] + comp2[1][1] == 69332992
    ok = ok and _series_sum(comp0, comp2) == EXTENSION_CHARACTER
    ok = ok and coset_extension_sum_check()
    diag = branching_diagnostic()
    ok = ok and not diag.matches and diag.mismatches[0][:3] == (2, 90110, 86004)
    announce(
        "9",
        "coset components sum to the extension character",
        ok,
        " (branching product emitted as diagnostic only)",
    )
    assert ok


def test_criterion_10a_integrality_sweep():
    ok = True
    for row in classify_all():
        vec = character_vector(expand(genus(row.category, row.c), row.chi, 8))
        ok = ok and vec.is_nonneg_integral()
    announce("10a", "all 15 surviving expansions integral through order 8", ok)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated claim is false for three candidates: (semion-dagger, 27), "
        "(yang-lee, 138/5) and (yang-lee-bar, 142/5) pass the constant-term "
        "filter and are only rejected by a negative q^2 series coefficient; "
        "see the decisions ledger"
    ),
)
def test_criterion_10b_constant_term_filter_suffices():
    rejected = [o for o in survey() if not o.accepted]
    bad = [o for o in rejected if first_column_admissible(o.chi)]
    announce(
        "10b",
        "every rejected candidate already fails the constant-term filter",
        not bad,
        " (expected failure: three candidates need the series filter)",
    )
    assert not bad
