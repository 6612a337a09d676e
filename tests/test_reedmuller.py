from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import in_span
from extremal2 import reedmuller
from extremal2.reedmuller import (
    XI_ALPHA,
    LinearCode,
    _blocks,
    _join,
    construction_xi,
    lemma5_check,
    lemma6_scan,
    min_weight_rm46,
    rm46_member,
    rm46_member_dual,
    rm_codes,
    verify_theorem1_xi,
    weight_enumerator,
    word,
    word_str,
)


# ---------------------------------------------------------------------------
# bit conventions and basic algebra


def test_codeword_string_roundtrip_and_bit_order():
    alpha = word("0110 1100 1010 0000")
    assert word_str(alpha, 16) == "0110 1100 1010 0000"
    # coordinate 1 is the most significant bit
    assert [(alpha >> (16 - i)) & 1 for i in (1, 2, 3)] == [0, 1, 1]
    assert alpha.bit_count() == 6
    assert word_str(1, 8) == "0000 0001"
    with pytest.raises(ValueError, match="not a binary string"):
        word("0120")
    with pytest.raises(ValueError, match="does not fit"):
        word_str(1 << 16, 16)


def test_blocks_and_concat():
    w = word("1111 0000 0000 0000" "0000 1111 0000 0000"
             "0000 0000 1111 0000" "0000 0000 0000 1111")
    blocks = _blocks(w)
    assert [word_str(b, 16) for b in blocks] == [
        "1111 0000 0000 0000", "0000 1111 0000 0000",
        "0000 0000 1111 0000", "0000 0000 0000 1111",
    ]
    assert _join(*blocks) == w


def test_linear_code_rejects_dependent_basis():
    rows = [word("1100"), word("0011"), word("1111")]
    with pytest.raises(ValueError, match="dependent"):
        LinearCode(4, rows)
    with pytest.raises(ValueError, match="does not fit"):
        LinearCode(4, [word("10000")])


# ---------------------------------------------------------------------------
# the four codes


def test_code_dimensions():
    codes = rm_codes()
    assert codes.rm14.dim == 5
    assert codes.rm24.dim == 11
    assert codes.rm16.dim == 7
    assert codes.rm26.dim == 22
    assert codes.rm46.dim == 57


def test_duality_involution_and_dimension_sum():
    codes = rm_codes()
    for code in (codes.rm14, codes.rm24, codes.rm16, codes.rm26):
        d = code.dual()
        assert code.dim + d.dim == code.length
        dd = d.dual()
        assert dd.dim == code.dim
        assert all(in_span(code.basis, w) for w in dd.basis)


@st.composite
def independent_bases(draw, max_dim: int = 64):
    length = draw(st.integers(1, 64))
    rows = draw(st.lists(st.integers(0, (1 << length) - 1), max_size=min(length, max_dim)))
    basis: list[int] = []
    for row in rows:
        if not in_span(basis, row):
            basis.append(row)
    return length, basis


@given(independent_bases())
def test_duality_properties_on_random_bases(length_and_basis):
    length, basis = length_and_basis
    code = LinearCode(length, basis)
    dual = code.dual()
    assert code.dim + dual.dim == length
    assert all((row & d).bit_count() % 2 == 0 for row in basis for d in dual.basis)
    double = dual.dual()
    assert double.dim == code.dim
    assert all(in_span(double.basis, row) for row in basis)


@given(independent_bases(max_dim=12), st.data())
def test_words_is_the_span_of_random_bases(length_and_basis, data):
    length, basis = length_and_basis
    words = LinearCode(length, basis).words
    assert len(words) == 2 ** len(basis)
    assert {*basis} <= words
    ordered = sorted(words)
    a, b = (data.draw(st.sampled_from(ordered)) for _ in range(2))
    assert a ^ b in words
    assert all({w ^ row for w in words} == words for row in basis)
    # 2^dim words, each in the span: words is the span
    assert all(in_span(basis, w) for w in words)
    x = data.draw(st.integers(0, (1 << length) - 1))
    assert (x in words) == in_span(basis, x)


def test_rm46_basis_meets_both_independent_definitions():
    basis = rm_codes().rm46.basis
    assert len(basis) == 57
    assert all(rm46_member(row) and rm46_member_dual(row) for row in basis)


def test_dual_of_rm26_lies_in_rm46():
    """RM(2,6)^perp, the words that pass the subcode test, is RM(3,6): of
    dimension 42 and inside RM(4,6) by both membership definitions."""
    rm36 = rm_codes().rm26.dual()
    assert rm36.dim == 42
    assert all(rm46_member(row) and rm46_member_dual(row) for row in rm36.basis)


def test_rm24_is_dual_of_rm14():
    codes = rm_codes()
    dual = codes.rm14.dual()
    assert dual.dim == codes.rm24.dim == 11
    assert all(in_span(codes.rm24.basis, w) for w in dual.basis)
    assert all(in_span(dual.basis, w) for w in codes.rm24.basis)


def test_weight_enumerators():
    codes = rm_codes()
    assert weight_enumerator(codes.rm16) == {0: 1, 32: 126, 64: 1}
    assert weight_enumerator(codes.rm14) == {0: 1, 8: 30, 16: 1}
    zero_code = LinearCode(8, [])
    assert weight_enumerator(zero_code) == {0: 1}


def test_rm24_weight_distribution():
    enum = weight_enumerator(rm_codes().rm24)
    assert enum == {0: 1, 4: 140, 6: 448, 8: 870, 10: 448, 12: 140, 16: 1}
    assert sum(enum.values()) == 2**11


def test_rm16_is_triply_even():
    assert all(w % 8 == 0 for w in weight_enumerator(rm_codes().rm16))


def test_enumeration_guard_for_large_codes():
    with pytest.raises(ValueError, match="enumeration infeasible"):
        weight_enumerator(rm_codes().rm46)
    with pytest.raises(ValueError, match="enumeration infeasible"):
        rm_codes().rm46.words
    with pytest.raises(ValueError, match="enumeration infeasible"):
        rm_codes().rm26.words


def test_words_is_the_span_and_agrees_with_membership():
    codes = rm_codes()
    for code in (codes.rm14, codes.rm24, codes.rm16):
        assert len(code.words) == 2**code.dim
        assert all(in_span(code.basis, w) for w in code.words)
    # every 16-bit word is in RM(2,4).words iff row reduction clears it
    assert all((w in codes.rm24.words) == in_span(codes.rm24.basis, w) for w in range(1 << 16))


# ---------------------------------------------------------------------------
# RM(4,6) membership


def test_rm46_member_trivial_cases():
    assert rm46_member(0)
    for p in range(64):
        assert not rm46_member(1 << p)
    for check in (rm46_member, rm46_member_dual, lemma5_check):
        for bad in (1 << 64, -1):
            with pytest.raises(ValueError, match="length 64"):
                check(bad)


def test_membership_agrees_with_duality_on_rm16_and_randoms():
    for g in sorted(rm_codes().rm16.words):
        assert rm46_member(g) and rm46_member_dual(g)
    rng = random.Random(7)
    for _ in range(10_000):
        w = rng.getrandbits(64)
        assert rm46_member(w) == rm46_member_dual(w)


def test_min_weight_four_with_witness():
    mw, witness = min_weight_rm46()
    assert mw == 4
    assert witness.bit_count() == 4
    assert rm46_member(witness)


def test_rm16_columns_are_the_odd_seven_bit_values():
    """The 64 columns of RM(1,6)'s generator are distinct 7-bit values, each
    with bit 0 (the all-ones row) set: all of 1, 3, ..., 127, once each."""
    codes = rm_codes()
    assert codes.rm16.basis[0] == (1 << 64) - 1
    assert sorted(reedmuller._columns(codes.rm16)) == list(range(1, 128, 2))


def scan_columns(monkeypatch, columns):
    """Make ``min_weight_rm46`` read a generator matrix with these columns.

    ``rm_codes`` is patched, not ``_columns``: the cached codes, and the
    RM(4,6) that ``dual()`` built from the real columns, stay as they are.
    Rows no column reaches are left out; the dependencies are unchanged."""
    width = max(columns).bit_length()
    rows = [sum((c >> i & 1) << p for p, c in enumerate(columns)) for i in range(width)]
    codes = rm_codes()._replace(rm16=LinearCode(64, [r for r in rows if r]))
    monkeypatch.setattr(reedmuller, "rm_codes", lambda: codes)


UNITS = [1 << p for p in range(64)]


def test_min_weight_raises_on_a_broken_membership_test(monkeypatch):
    # with every column 0, every word is a member, so the first test raises
    scan_columns(monkeypatch, [0] * 64)
    with pytest.raises(RuntimeError, match="unexpected weight-1"):
        min_weight_rm46()


def test_min_weight_scan_reaches_the_last_weight3_word(monkeypatch):
    # with unit columns and column 63 = column 61 ^ column 62, the only word of
    # weight at most 3 whose columns XOR to 0 is positions 61, 62, 63, the
    # last of the 43744 words in combinations order
    scan_columns(monkeypatch, UNITS[:63] + [UNITS[61] ^ UNITS[62]])
    with pytest.raises(RuntimeError, match="unexpected weight-3"):
        min_weight_rm46()


@pytest.mark.parametrize("positions", [
    (0,), (63,), (0, 1), (5, 40), (62, 63), (0, 1, 2), (7, 23, 56), (61, 62, 63)])
def test_min_weight_scan_tests_each_word_at_its_weight(positions, monkeypatch):
    """Unit columns, except that the last position's column is the XOR of the
    others' (0 for one position, a copy for two, a sum for three): that word
    is the only dependency of at most 3 columns, and the scan raises at its
    weight."""
    columns = list(UNITS)
    *others, last = positions
    columns[last] = sum(UNITS[p] for p in others)
    scan_columns(monkeypatch, columns)
    with pytest.raises(RuntimeError, match=f"unexpected weight-{len(positions)}"):
        min_weight_rm46()


def test_weight_census_matches_macwilliams_transform():
    """Count RM(4,6) words of weight <= 4, by ``rm46_member`` and through the
    columns of RM(1,6)'s generator (a word belongs iff its columns XOR to 0),
    and compare with the transform of RM(1,6)'s enumerator (an independent
    binomial computation)."""

    def krawtchouk(w: int) -> int:
        # coefficient of y^w in (x^2 - y^2)^32, i.e. at mid-weight 32
        if w % 2:
            return 0
        return (-1) ** (w // 2) * math.comb(32, w // 2)

    def transform(w: int) -> Fraction:
        return Fraction(
            math.comb(64, w) + 126 * krawtchouk(w) + (-1) ** w * math.comb(64, w),
            128,
        )

    # the columns must agree with rm46_member on every word; column p is
    # the one of bit p
    columns = reedmuller._columns(rm_codes().rm16)
    census = {w: 0 for w in range(5)}
    census[0] = 1
    for wt in (1, 2, 3, 4):
        for positions in itertools.combinations(range(64), wt):
            bits = syndrome = 0
            for p in positions:
                bits |= 1 << p
                syndrome ^= columns[p]
            member = rm46_member(bits)
            assert (syndrome == 0) == member, positions
            census[wt] += member
    assert census == {0: 1, 1: 0, 2: 0, 3: 0, 4: 10416}
    for w in range(5):
        assert census[w] == transform(w)


# ---------------------------------------------------------------------------
# the certification lemmas


def test_lemma5_on_construction_word():
    report = lemma5_check(construction_xi())
    assert report.cond_i and report.cond_ii and report.cond_iii and report.cond_iv
    assert report.subcode_ok and report.doubly_even_ok
    assert report.consistent


def test_lemma5_odd_block_weight_fails_condition_iii():
    xi = 1 << 63  # single bit in block 1
    report = lemma5_check(xi)
    assert not report.cond_iii
    assert not report.subcode_ok
    assert report.consistent


def test_condition_iv_reads_the_block_indicators():
    """(0, nu, 0, nu) with nu a weight-6 word of RM(2,4) passes (i)-(iii) and
    the subcode test, and xi * (a,a,a,a) is doubly even for every RM(1,4)
    word a, but xi * (0,0,1,1) = (0,0,0,nu) has weight 6."""
    nu = 0x0356
    assert in_span(rm_codes().rm24.basis, nu) and nu.bit_count() == 6
    xi = _join(0, nu, 0, nu)
    assert (xi & _join(0, 0, 0xFFFF, 0xFFFF)).bit_count() == 6
    report = lemma5_check(xi)
    assert report.cond_i and report.cond_ii and report.cond_iii and report.subcode_ok
    assert not report.cond_iv and not report.doubly_even_ok
    assert report.consistent


def test_lemma5_equivalences_on_random_words():
    rng = random.Random(99)
    even_blocks = 0
    for _ in range(1000):
        report = lemma5_check(rng.getrandbits(64))
        assert report.consistent
        if report.cond_iii:
            even_blocks += 1
    # random words essentially never pass (i) and (ii), so the passing side
    # of the equivalence comes from the structured words below; the sample
    # must still reach words whose blocks all have even weight, where the
    # brute force runs on more than the block-parity check already rejects
    assert even_blocks == 82


def test_lemma5_equivalences_on_structured_words():
    """Words built from RM(2,4) blocks exercise the passing branch."""
    rng = random.Random(5)
    words = sorted(rm_codes().rm24.words)
    passing = 0
    for _ in range(300):
        nus = [words[rng.randrange(len(words))] for _ in range(4)]
        xi = _join(*nus)
        report = lemma5_check(xi)
        assert report.consistent
        if report.subcode_ok:
            passing += 1
    assert passing > 0


def lemma5_oracle(xi: int) -> tuple[bool, bool, list[tuple[int, int]]]:
    """subcode_ok, doubly_even_ok and the coset enumerator, computed one
    product and one coset word at a time from the RM(1,6) span."""
    words = sorted(rm_codes().rm16.words)
    products = [xi & g for g in words]
    subcode_ok = all(rm46_member_dual(p) for p in products)
    doubly_even_ok = subcode_ok and all(p.bit_count() % 4 == 0 for p in products)
    counts: dict[int, int] = {}
    for g in words:
        w = (xi ^ g).bit_count()
        counts[w] = counts.get(w, 0) + 1
    return subcode_ok, doubly_even_ok, sorted(counts.items())


def test_lemma5_and_cosets_match_the_product_by_product_oracle():
    rng = random.Random(2024)
    rm24 = sorted(rm_codes().rm24.words)
    lemma6 = [_join(a, a, a, a ^ 0xFFFF) for a in rm24 if a.bit_count() == 6]
    randoms = [rng.getrandbits(64) for _ in range(500)]
    structured = [_join(*rng.choices(rm24, k=4)) for _ in range(500)]
    flipped = [xi ^ (1 << rng.randrange(64)) for xi in structured]
    # (a, b, c, a + b + c + r), a, b, c in RM(2,4) and r in RM(1,4), pass
    # (i)-(iii); some of them fail (iv) on a block indicator only
    rm14 = sorted(rm_codes().rm14.words)
    shaped = []
    for _ in range(300):
        a, b, c = rng.choices(rm24, k=3)
        shaped.append(_join(a, b, c, a ^ b ^ c ^ rng.choice(rm14)))
    verdicts = set()
    for xi in lemma6 + randoms + structured + flipped + shaped:
        report = lemma5_check(xi)
        subcode_ok, doubly_even_ok, cosets = lemma5_oracle(xi)
        assert (report.subcode_ok, report.doubly_even_ok) == (subcode_ok, doubly_even_ok)
        assert report.consistent
        assert list(reedmuller._lane_weights(reedmuller._lemma5(xi)[1]).items()) == cosets
        verdicts.add((subcode_ok, doubly_even_ok))
    # the sample reaches every outcome: fails the subcode test, is a
    # subcode but not doubly even, and passes both
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_subcode_test_reads_every_rm26_row():
    """For each basis row m of RM(2,6), a word orthogonal to the other 21 rows
    but not to m fails the subcode test, and the oracle agrees."""
    basis = rm_codes().rm26.basis
    for k, m in enumerate(basis):
        others = LinearCode(64, [*basis[:k], *basis[k + 1 :]]).dual()
        xi = next(w for w in others.basis if (w & m).bit_count() & 1)
        assert not lemma5_check(xi).subcode_ok
        assert not lemma5_oracle(xi)[0]


def test_lemma6_reports_the_first_differing_coset_enumerator(monkeypatch):
    rm16 = rm_codes().rm16
    dropped = rm16.basis[2]  # weight 32: each coset loses a word of weight 28 or 36
    monkeypatch.setitem(vars(rm16), "words", rm16.words - {dropped})
    # the lane tables are built from the patched span, in a cache of their own
    monkeypatch.setattr(reedmuller, "_coset_lanes",
                        functools.lru_cache(maxsize=1)(reedmuller._coset_lanes.__wrapped__))
    # in the scan's order, so lost[0] is the first coset's missing weight
    alphas = [a for a in rm_codes().rm24.words if a.bit_count() == 6]
    lost = [(_join(a, a, a, a ^ 0xFFFF) ^ dropped).bit_count() for a in alphas]
    assert lost[0] == 28 and 36 in lost
    report = lemma6_scan()
    assert report.weight6_count == 448
    assert not report.all_cosets_match
    assert report.coset_enumerator == {28: 63, 36: 64}


def test_dual_byte_tables_match_the_bit_sliced_columns():
    """Rebuild every lane of the 128 words g of RM(1,6) one bit at a time:
    lane k of entry v of table j counts the bits b where v and byte j of g_k
    differ, read from bit-sliced column 8j + b."""
    words = list(rm_codes().rm16.words)
    tables, weights, ones = reedmuller._coset_lanes()
    lanes = len(words)
    rows = [[entry.to_bytes(lanes, "little") for entry in table] for table in tables]
    # byte j of g_k is the one entry v of table j whose lane k reads 0
    masks = [sum(next(v for v in range(256) if rows[j][v][k] == 0) << 8 * j for j in range(8))
             for k in range(lanes)]
    assert masks == words
    # column i holds bit i of each word, one 0/1 lane per word
    columns = [int.from_bytes(bytes(g >> i & 1 for g in words), "little") for i in range(64)]
    assert weights == sum(columns)
    for j, table in enumerate(tables):
        for v, entry in enumerate(table):
            expected = sum(ones - columns[8 * j + b] if v >> b & 1 else columns[8 * j + b]
                           for b in range(8))
            assert entry == expected, (j, v)


def test_weight_lanes_match_direct_popcounts():
    """Every lane of every table entry, and the wt(g) and ONES lanes, against
    bit_count(): lane k of entry v of table j is wt(v ^ byte j of g_k), one
    lane for each of the 128 words g_k of RM(1,6) and no more."""
    words = list(rm_codes().rm16.words)
    tables, weights, ones = reedmuller._coset_lanes()
    lanes = len(words)
    assert lanes == 128
    assert ones.to_bytes(lanes, "little") == bytes([1] * lanes)
    assert weights.to_bytes(lanes, "little") == bytes(g.bit_count() for g in words)
    assert [len(t) for t in tables] == [256] * 8
    for j, table in enumerate(tables):
        for v, entry in enumerate(table):
            direct = bytes((v ^ (g >> 8 * j & 0xFF)).bit_count() for g in words)
            assert entry.to_bytes(lanes, "little") == direct, (j, v)


def test_self_orthogonality_of_passing_products():
    """If (i)-(iii) hold, the products xi * g are pairwise orthogonal."""
    checked = 0
    for alpha in sorted(rm_codes().rm24.words):
        if alpha.bit_count() != 6 or checked >= 10:
            continue
        checked += 1
        xi = _join(alpha, alpha, alpha, alpha ^ 0xFFFF)
        products = [xi & g for g in sorted(rm_codes().rm16.words)]
        for i in range(0, len(products), 17):
            for j in range(0, len(products), 13):
                assert (products[i] & products[j]).bit_count() % 2 == 0


def test_lemma6_sweep():
    report = lemma6_scan()
    assert report.weight6_count == 448
    assert report.all_conditions_pass
    assert report.all_cosets_match
    assert report.coset_enumerator == {28: 64, 36: 64}


def test_construction_word_weight():
    xi = construction_xi()
    assert xi.bit_count() == 3 * 6 + (16 - 6) == 28


def test_theorem1_certificate():
    cert = verify_theorem1_xi()
    assert cert.alpha_in_rm24
    assert cert.alpha_weight == 6
    assert word_str(XI_ALPHA, 16) == "0110 1100 1010 0000"
    assert cert.coset_enumerator == {28: 64, 36: 64}
    assert cert.min_coset_weight == 28
    assert cert.top_weight == Fraction(7, 4)
