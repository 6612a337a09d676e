from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import pytest

import extremal2.classify as classify_mod
from extremal2.bounds import c_extremes
from extremal2.charser import character_vector, expand
from extremal2.chimat import CharMatrix, chi_of, iterate
from extremal2.classify import (
    GOLDEN_GENERA,
    candidates,
    classify_all,
    first_column_admissible,
    matches_golden,
    survey,
)
from extremal2.genus import CATALOG, category, genus

F = Fraction


def test_chi_of_matches_seeds_and_iterates():
    assert chi_of("semion", 1) == CharMatrix(3, 26752, 2, -247)
    assert chi_of("semion", 33) == CharMatrix(3, F(1, 2), 565760, 249)
    assert chi_of("semion", -23).x == F(713, 11)
    with pytest.raises(ValueError, match="class mod 8"):
        chi_of("semion", 2)


def test_chi_of_rejects_a_walk_that_misses_h_ext(monkeypatch):
    # a raised error, not an assert, so the check survives python -O
    import extremal2.chimat as chimat_mod

    monkeypatch.setattr(chimat_mod, "iterate", lambda m, h, n: (m, h + 1))
    with pytest.raises(RuntimeError, match="h_ext"):
        chi_of("semion", 25)


def test_candidate_charges_for_semion():
    cs = {c for c, _, _ in candidates("semion")}
    assert cs == {-23, 1, 25, 49, -15, 9, 33, 57, -7, 17, 41}


def test_candidates_take_one_recurrence_step_per_row_beyond_the_seeds(monkeypatch):
    """Each class walks out from its seed, which lies in its window, so the
    74 rows of the 8 categories cost 74 - 24 = 50 steps; every c of the
    window comes once, ascending, with the matrix ``chi_of`` reaches there."""
    steps = []
    monkeypatch.setattr(classify_mod, "iterate",
                        lambda m, h, n: steps.append(n) or iterate(m, h, n))
    rows = [(cat.id, c, m, h) for cat in CATALOG for c, m, h in candidates(cat)]
    assert len(steps) == 50
    expected = []
    for cat in CATALOG:
        c, c_max = c_extremes(cat)
        while c <= c_max:
            expected.append((cat.id, c, chi_of(cat, c), genus(cat, c).h_ext))
            c += 8
    assert len(expected) == 74
    assert rows == expected


def test_candidates_stay_in_window_and_cover_all_classes():
    for cat in CATALOG:
        c_min, c_max = c_extremes(cat)
        rows = candidates(cat)
        assert rows, f"no candidates for {cat.id}"
        assert all(c_min <= c <= c_max for c, _, _ in rows)
        residues = {(c - cat.c_mod8) % 24 for c, _, _ in rows}
        assert len(residues) == 3
        # consistency of the carried h with the window rule
        for c, _, h in rows:
            assert genus(cat, c).h_ext == h


def test_no_matrix_outside_the_window_passes_the_constant_term_filter():
    """Checks ``c_extremes`` by its consequence: 60 steps of 24 past both
    ends of each class's window, 2880 matrices in all, none admissible."""
    walked = 0
    for cat in CATALOG:
        c_min, c_max = c_extremes(cat)
        rows = candidates(cat)
        for residue in {(c - cat.c_mod8) % 24 for c, _, _ in rows}:
            in_class = [row for row in rows if (row[0] - cat.c_mod8) % 24 == residue]
            for (c, m, h), step in ((in_class[0], -1), (in_class[-1], 1)):
                for _ in range(60):
                    m, h = iterate(m, h, step)
                    c += 24 * step
                    assert not c_min <= c <= c_max
                    assert not first_column_admissible(m), (cat.id, c)
                    walked += 1
    assert walked == 2880


def test_first_column_admissible_examples():
    assert first_column_admissible(CharMatrix(3, 26752, 2, -247))
    assert first_column_admissible(CharMatrix(0, 310124, 1, -244))
    assert not first_column_admissible(
        CharMatrix(F(713, 11), F(57264144384, 11), F(1, 26752), F(-3397, 11))
    )
    assert not first_column_admissible(CharMatrix(-245, 1, 26999, 1))


def test_classification_matches_golden_table():
    rows = classify_all()
    assert len(rows) == 15
    assert matches_golden(rows)
    got = [(r.category.id, r.c, r.h_ext, r.ell, r.realization_note) for r in rows]
    want = [(cid, c, h, ell, note) for cid, c, h, ell, note in GOLDEN_GENERA]
    assert got == want


def test_classification_rows_satisfy_invariants():
    for r in classify_all():
        assert r.chi.x.denominator == 1 and r.chi.x >= 0
        assert r.chi.z.denominator == 1 and r.chi.z >= 0
        assert r.ell == 1 + r.c / 2 - 6 * r.h_ext
        assert 0 <= r.ell <= 5


def test_ell_zero_rows_have_lie_algebra_dimensions():
    dims = {
        (r.category.id): r.chi.x for r in classify_all() if r.ell == 0
    }
    assert dims == {
        "semion": 3,        # A1
        "semion-bar": 133,  # E7
        "fib": 14,          # G2
        "fib-bar": 52,      # F4
        "yang-lee": 0,
    }


def test_exactly_three_candidates_need_the_series_filter():
    """The constant-term filter alone is not sufficient.

    Three candidates have non-negative integer first columns but develop a
    negative q^2 coefficient in the vacuum character; they are exactly the
    difference between the 18 constant-term survivors and the 15 rows.
    """
    outcomes = survey()
    deep_rejects = [
        o for o in outcomes if o.constant_term_ok and o.series_ok is False
    ]
    assert {(o.category.id, o.c) for o in deep_rejects} == {
        ("semion-dagger", F(27)),
        ("yang-lee", F(138, 5)),
        ("yang-lee-bar", F(142, 5)),
    }
    expected_x1 = {
        ("semion-dagger", F(27)): -143373,
        ("yang-lee", F(138, 5)): -169875,
        ("yang-lee-bar", F(142, 5)): -164081,
    }
    for o in deep_rejects:
        vec = character_vector(expand(genus(o.category, o.c), o.chi, 2))
        assert vec.series0[2] == expected_x1[(o.category.id, o.c)]


def test_rejected_candidates_all_fail_some_filter():
    for o in survey():
        if not o.accepted:
            assert (not o.constant_term_ok) or o.series_ok is False


def test_survey_is_deterministic():
    a = [(o.category.id, o.c, o.accepted) for o in survey()]
    b = [(o.category.id, o.c, o.accepted) for o in survey()]
    assert a == b


def test_classification_agrees_with_fixture_file():
    fixture = json.loads(
        resources.files("extremal2").joinpath("fixtures", "classify.json").read_text()
    )["rows"]
    rows = classify_all()
    assert len(fixture) == len(rows)
    for row, fix in zip(rows, fixture):
        assert row.category.id == fix["category"]
        assert str(row.c) == fix["c"]
        assert str(row.h_ext) == fix["h_ext"]
        assert row.ell == fix["ell"]
        assert row.chi.to_json() == fix["chi"]
        assert row.realization_note == fix["realization"]
