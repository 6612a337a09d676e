"""The layers' records are immutable, hashable ``NamedTuple``s with their
field names, defaults and reprs intact."""

from __future__ import annotations

from fractions import Fraction

import pytest

from extremal2.charser import branching_diagnostic, character_vector, expand
from extremal2.chimat import CharMatrix, alpha_beta
from extremal2.classify import CandidateOutcome
from extremal2.genus import CATALOG, Surd, genus
from extremal2.reedmuller import (
    Lemma6Report,
    construction_xi,
    lemma5_check,
    rm_codes,
    verify_theorem1_xi,
)


def samples() -> dict[str, object]:
    """One record of each of the 13 classes, mostly straight from the pipeline."""
    cat = CATALOG[0]
    m = CharMatrix(3, 26752, 2, -247)
    g = genus(cat, 1)
    e = expand(g, m, order=2)
    return {
        "Surd": cat.s_norm,
        "CategoryInfo": cat,
        "Genus": g,
        "CharMatrix": m,
        "AlphaBeta": alpha_beta(m),
        "FundamentalExpansion": e,
        "CharacterVector": character_vector(e),
        "BranchingDiagnostic": branching_diagnostic(),
        "CandidateOutcome": CandidateOutcome(cat, g.c, g.h_ext, m, True, True),
        "RMCodes": rm_codes(),
        "Lemma5Report": lemma5_check(construction_xi()),
        "Lemma6Report": Lemma6Report(448, True, True, {28: 64, 36: 64}),
        "XiCertificate": verify_theorem1_xi(),
    }


SAMPLES = samples()
# these two carry a coset-enumerator dict, so, as before, they cannot be hashed
UNHASHABLE = {"Lemma6Report", "XiCertificate"}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_is_immutable(name):
    rec = SAMPLES[name]
    field = rec._fields[0]
    assert type(rec).__name__ == name
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - UNHASHABLE))
def test_equal_records_hash_equal(name):
    rec = SAMPLES[name]
    copy = type(rec)(*rec)
    assert copy is not rec and copy == rec and hash(copy) == hash(rec)


def test_defaults_and_repr_format():
    assert Surd(Fraction(2)) == Surd(Fraction(2), Fraction(0))
    assert repr(Surd(Fraction(2))) == "Surd(a=Fraction(2, 1), b=Fraction(0, 1))"
    assert repr(CharMatrix(1, 0, 0, 1)) == (
        "CharMatrix(x=Fraction(1, 1), y=Fraction(0, 1), z=Fraction(0, 1), w=Fraction(1, 1))"
    )
    assert str(CATALOG[0]) == "semion" and str(CharMatrix(1, 0, 0, 1)) == "[[1, 0], [0, 1]]"
