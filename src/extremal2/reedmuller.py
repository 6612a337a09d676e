"""GF(2) coding engine: Reed-Muller codes and the c = 33 certificates.

Words are plain ``int`` bitmasks whose length comes from context:
16 bits for RM(.,4) and 64 bits for RM(.,6).  Coordinate 1 is the leftmost
printed bit, stored at the most significant position, so
``word("0110 ...")`` reads exactly like the row notation it came from and
``word_str`` prints it back in groups of four.  Sum is XOR, pointwise
product is AND, weight is ``bit_count()``; a 64-bit word splits into four
16-bit blocks, leftmost first.

The codes in play are RM(1,4) (from its five generator rows), its dual
RM(2,4) (also the span of pairwise products of RM(1,4) words), RM(1,6)
(spanned by the four-fold repetitions of the RM(1,4) basis plus two block
indicators), RM(2,6) (pairwise products of RM(1,6) words, dimension 22)
and RM(4,6) = RM(1,6)^perp.  Neither of the last two is enumerated: RM(4,6)
membership goes through either dual orthogonality or the block
characterization

    (a, b, c, d) in RM(4,6)  iff  a+b+c+d in RM(2,4) and
                                  wt(a) = wt(b) = wt(c) = wt(d) (mod 2).

On top of these sit the certification scans: the minimum weight 4 of
RM(4,6), the least number of dependent columns of its parity-check matrix,
the generator of RM(1,6) (MacWilliams-Sloane, ch. 1 section 3); the
subcode/doubly-even conditions (i)-(iv) for words xi = (nu1, nu2, nu3, nu4);
the sweep over weight-6 words of RM(2,4) whose coset xi + RM(1,6) always has
weight enumerator 64 x^28 + 64 x^36; and the explicit word of the
construction whose minimum coset weight 28 certifies twisted-module top
weight 28/16 = 7/4.

The subcode test, xi * g in RM(4,6) for every g in RM(1,6), says xi is
orthogonal to every g * h, that is to RM(2,6), whose dual is RM(3,6)
(MacWilliams-Sloane, ch. 13): 22 parity checks decide it, as 7 decide
``rm46_member_dual``.  One lane family serves the rest: 8 lookups in per-byte
tables packing one 8-bit lane per word g of RM(1,6) give the 128 coset
weights wt(xi + g), and 2 wt(xi * g) = wt(xi) + wt(g) - wt(xi + g) turns
them into the doubly-even test.  Tables are built on first use, never at
import.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

__all__ = [
    "word",
    "word_str",
    "LinearCode",
    "RMCodes",
    "rm_codes",
    "weight_enumerator",
    "rm46_member",
    "rm46_member_dual",
    "min_weight_rm46",
    "Lemma5Report",
    "lemma5_check",
    "Lemma6Report",
    "lemma6_scan",
    "XiCertificate",
    "verify_theorem1_xi",
    "XI_ALPHA",
    "construction_xi",
]

ENUMERATION_LIMIT = 20
_MASK16 = 0xFFFF


def word(text: str) -> int:
    """Parse a 0/1 string (spaces ignored) into its bitmask."""
    clean = text.replace(" ", "")
    if clean.strip("01"):
        raise ValueError(f"not a binary string: {text!r}")
    return int(clean, 2)


def word_str(bits: int, length: int) -> str:
    """Print a word of the given length in groups of four bits."""
    if not 0 <= bits < (1 << length):
        raise ValueError("bit pattern does not fit the stated length")
    raw = format(bits, f"0{length}b")
    return " ".join(raw[i : i + 4] for i in range(0, length, 4))


def _blocks(bits: int) -> tuple[int, int, int, int]:
    """The four 16-bit blocks of a 64-bit word, leftmost first."""
    return bits >> 48, (bits >> 32) & _MASK16, (bits >> 16) & _MASK16, bits & _MASK16


def _join(a: int, b: int, c: int, d: int) -> int:
    """The 64-bit word with 16-bit blocks a, b, c, d, leftmost first."""
    return a << 48 | b << 32 | c << 16 | d


def _check64(bits: int) -> None:
    if not 0 <= bits < 1 << 64:
        raise ValueError("RM(4,6) words have length 64")


def _reduce_rows(rows: list[int]) -> list[int]:
    """Row-reduce bitmask rows over GF(2); returns echelon rows, MSB pivots."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return basis


def _columns(code: "LinearCode") -> list[int]:
    """Column p of the code's generator matrix: bit i is bit p of basis row i."""
    return [sum((g >> p & 1) << i for i, g in enumerate(code.basis)) for p in range(code.length)]


class LinearCode:
    """Binary linear code presented by independent basis rows.

    ``words``, the span as a frozenset, is the one membership test: built
    on first use by XOR-ing in one basis row at a time, and kept."""

    def __init__(self, length: int, basis: list[int]):
        for row in basis:
            if not 0 <= row < (1 << length):
                raise ValueError("basis row does not fit the code length")
        if len(_reduce_rows(basis)) != len(basis):
            raise ValueError("basis rows are linearly dependent")
        self.length = length
        self.basis = tuple(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def words(self) -> frozenset[int]:
        """Full span; guarded so RM(4,6) (dim 57) can never be expanded."""
        if self.dim > ENUMERATION_LIMIT:
            raise ValueError(
                f"enumeration infeasible: dimension {self.dim} > {ENUMERATION_LIMIT}"
            )
        words = [0]
        for row in self.basis:
            words += [w ^ row for w in words]
        return frozenset(words)

    def dual(self) -> "LinearCode":
        """The orthogonal code, from one row reduction of [G^T | I].

        Row p is column p of G above bit n, plus bit p.  Echelon rows below
        1 << n lost their G^T half, so their I halves are dual words; the
        other dim rows carry rank G^T, so these n - dim span the dual."""
        n = self.length
        rows = [column << n | 1 << p for p, column in enumerate(_columns(self))]
        return LinearCode(n, [r for r in _reduce_rows(rows) if r < 1 << n])

    def product(self, other: "LinearCode") -> "LinearCode":
        """Span of all pointwise products of words of the two codes."""
        if self.length != other.length:
            raise ValueError("length mismatch")
        products = [a & b for a in self.basis for b in other.basis]
        return LinearCode(self.length, _reduce_rows(products))


def weight_enumerator(code: LinearCode) -> dict[int, int]:
    """Exact weight distribution over the full span (dim <= 20)."""
    return dict(sorted(Counter(map(int.bit_count, code.words)).items()))


_ALPHA_ROWS = ("1111111111111111", "1111111100000000", "1111000011110000",
               "1100110011001100", "1010101010101010")


class RMCodes(NamedTuple):
    rm14: LinearCode
    rm24: LinearCode
    rm16: LinearCode
    rm26: LinearCode
    rm46: LinearCode


@lru_cache(maxsize=1)
def rm_codes() -> RMCodes:
    """Build RM(1,4), RM(2,4), RM(1,6), RM(2,6) and RM(4,6)."""
    alpha = [word(r) for r in _ALPHA_ROWS]
    rm14 = LinearCode(16, alpha)
    rm24 = rm14.product(rm14)
    gamma = [_join(a, a, a, a) for a in alpha]
    gamma.append(_join(0, _MASK16, 0, _MASK16))
    gamma.append(_join(0, 0, _MASK16, _MASK16))
    rm16 = LinearCode(64, gamma)
    return RMCodes(rm14, rm24, rm16, rm16.product(rm16), rm16.dual())


@lru_cache(maxsize=1)
def _coset_lanes() -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """Weights packed one 8-bit lane per word g_k of RM(1,6): lane k of entry
    v of table j is wt(v ^ byte j of g_k), so the 8 lookups of a word's bytes
    sum to the 128 lanes wt(xi ^ g_k).  Also the lanes wt(g_k) (the sum of
    the entries 0) and ONES (a 1 in every lane)."""
    words = rm_codes().rm16.words
    ones = int.from_bytes(bytes([1] * len(words)), "little")
    weight = bytes(x.bit_count() for x in range(256))
    bits = [bytes(x >> b & 1 for x in range(256)) for b in range(8)]
    tables = []
    for j in range(0, 64, 8):
        column = bytes(g >> j & 0xFF for g in words)  # byte j of each word
        table = [int.from_bytes(column.translate(weight), "little")]
        for bit in bits:
            has_bit = int.from_bytes(column.translate(bit), "little")
            table += [t + ones - 2 * has_bit for t in table]  # +1 where g_k has a 0
        tables.append(tuple(table))
    return tuple(tables), sum(table[0] for table in tables), ones


def rm46_member(bits: int) -> bool:
    """Block characterization of RM(4,6) membership (no enumeration)."""
    _check64(bits)
    a, b, c, d = _blocks(bits)
    parity = a.bit_count() & 1
    return (b.bit_count() & 1 == parity and c.bit_count() & 1 == parity
            and d.bit_count() & 1 == parity and (a ^ b ^ c ^ d) in rm_codes().rm24.words)


def rm46_member_dual(bits: int) -> bool:
    """Reference definition: orthogonality to the RM(1,6) basis."""
    _check64(bits)
    return all((bits & g).bit_count() & 1 == 0 for g in rm_codes().rm16.basis)


def min_weight_rm46() -> tuple[int, int]:
    """Minimum weight of RM(4,6) with a witness word.

    A word is in RM(4,6) = RM(1,6)^perp iff RM(1,6)'s generator columns at
    its positions XOR to 0.  So none of the 43744 words of weight at most 3
    belongs iff no column is 0, no two are equal and, given those, no pair
    XORs to a third (2016 pair lookups).  A weight-4 RM(2,4) word planted in
    the first block is the witness.
    """
    columns = _columns(rm_codes().rm16)
    distinct = set(columns)
    if 0 in distinct:
        raise RuntimeError("unexpected weight-1 word in RM(4,6)")
    if len(distinct) < len(columns):
        raise RuntimeError("unexpected weight-2 word in RM(4,6)")
    if any(a ^ b in distinct for a, b in itertools.combinations(columns, 2)):
        raise RuntimeError("unexpected weight-3 word in RM(4,6)")
    planted = [w for w in rm_codes().rm24.words if w.bit_count() == 4]
    if not planted:
        raise RuntimeError("no weight-4 word in RM(2,4)")
    witness = min(planted) << 48
    if not (rm46_member(witness) and rm46_member_dual(witness)):
        raise RuntimeError("witness rejected")
    return 4, witness


class Lemma5Report(NamedTuple):
    """Subcode/doubly-even conditions for xi = (nu1, nu2, nu3, nu4).

    (i)   nu1+nu2+nu3+nu4 in RM(1,4)
    (ii)  nui+nuj in RM(1,4)^perp for all i < j
    (iii) every block has even weight
    (iv)  xi * g is doubly even for each of the 7 RM(1,6) basis words g:
          (a,a,a,a) for the 5 RM(1,4) basis words a, and the block
          indicators (0,1,0,1) and (0,0,1,1)

    ``subcode_ok`` (xi orthogonal to RM(2,6): every xi * g in RM(4,6)) and
    ``doubly_even_ok`` (also every wt(xi * g) = 0 mod 4, brute-forced over
    all 128 words g) must satisfy (i & ii & iii) == subcode_ok and
    (i & ii & iii & iv) == doubly_even_ok.  Given subcode_ok, wt(xi * g)
    mod 4 is additive in g (xi * g1 * g2 has even weight), so (iv) needs the
    whole basis and no more.
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    subcode_ok: bool
    doubly_even_ok: bool

    @property
    def consistent(self) -> bool:
        first3 = self.cond_i and self.cond_ii and self.cond_iii
        return (first3 == self.subcode_ok) and (
            (first3 and self.cond_iv) == self.doubly_even_ok
        )


def _lemma5(xi: int) -> tuple[Lemma5Report, int]:
    """The report and the lanes wt(xi ^ g), g in RM(1,6), from one pass.

    The subcode test is 22 parity checks against the basis of RM(2,6).  The
    8 lookups in ``_coset_lanes`` sum to the 128 coset weights wt(xi ^ g),
    and 2 wt(xi & g) = wt(xi) + wt(g) - wt(xi ^ g) turns them into the
    doubly-even verdict."""
    _check64(xi)
    codes = rm_codes()
    nus = _blocks(xi)
    cond_i = (nus[0] ^ nus[1] ^ nus[2] ^ nus[3]) in codes.rm14.words
    cond_ii = all((a ^ b) in codes.rm24.words for a, b in itertools.combinations(nus, 2))
    cond_iii = all(nu.bit_count() % 2 == 0 for nu in nus)
    cond_iv = all((xi & g).bit_count() % 4 == 0 for g in codes.rm16.basis)
    subcode_ok = all((xi & m).bit_count() & 1 == 0 for m in codes.rm26.basis)
    tables, weights, ones = _coset_lanes()
    lanes = sum(table[xi >> 8 * j & 0xFF] for j, table in enumerate(tables))
    # lanes 2 wt(xi & g) of at most 128, so none borrows; a lane is 0 mod 8
    # iff xi & g is doubly even
    twice_and = xi.bit_count() * ones + weights - lanes
    doubly_even_ok = subcode_ok and twice_and & 7 * ones == 0
    report = Lemma5Report(cond_i, cond_ii, cond_iii, cond_iv, subcode_ok, doubly_even_ok)
    return report, lanes


def lemma5_check(xi: int) -> Lemma5Report:
    """Evaluate conditions (i)-(iv) and the two tests they must match."""
    return _lemma5(xi)[0]


def _lane_weights(lanes: int) -> dict[int, int]:
    """How many lanes hold each weight, ascending in weight."""
    data = lanes.to_bytes(len(rm_codes().rm16.words), "little")
    return {w: data.count(w) for w in sorted(set(data))}


def _xi(alpha: int) -> int:
    """The lemma 6 word (alpha, alpha, alpha, alpha^c) of a 16-bit alpha."""
    return _join(alpha, alpha, alpha, alpha ^ _MASK16)


class Lemma6Report(NamedTuple):
    """Sweep over every weight-6 word of RM(2,4)."""

    weight6_count: int
    all_conditions_pass: bool
    all_cosets_match: bool
    coset_enumerator: dict[int, int]


def lemma6_scan() -> Lemma6Report:
    """For every weight-6 alpha in RM(2,4), certify (alpha,alpha,alpha,alpha^c)."""
    differing = None  # the first coset enumerator other than 64 x^28 + 64 x^36
    count = 0
    conditions_ok = True
    for alpha in rm_codes().rm24.words:
        if alpha.bit_count() != 6:
            continue
        count += 1
        report, lanes = _lemma5(_xi(alpha))
        conditions_ok = conditions_ok and all(report)
        if differing is None:
            # 64 lanes of 28 and 64 of 36 fill all 128: the enumerator matches
            data = lanes.to_bytes(len(rm_codes().rm16.words), "little")
            if data.count(28) != 64 or data.count(36) != 64:
                differing = _lane_weights(lanes)
    matches = differing is None
    return Lemma6Report(count, conditions_ok, matches, {28: 64, 36: 64} if matches else differing)


# The explicit weight-6 word of the c = 33 construction.
XI_ALPHA = word("0110 1100 1010 0000")


def construction_xi() -> int:
    """The 64-bit word (alpha, alpha, alpha, alpha^c) built from XI_ALPHA."""
    return _xi(XI_ALPHA)


class XiCertificate(NamedTuple):
    xi: int
    alpha_in_rm24: bool
    alpha_weight: int
    conditions: Lemma5Report
    coset_enumerator: dict[int, int]
    min_coset_weight: int
    top_weight: Fraction


def verify_theorem1_xi() -> XiCertificate:
    """Certificate behind the c = 33 construction: min coset weight 28.

    The minimum of wt(xi + g) over the 128 words g of RM(1,6) divided by
    16 lower-bounds the top weight of the twisted module; equality at
    28/16 = 7/4 is what the construction needs.
    """
    xi = construction_xi()
    conditions, lanes = _lemma5(xi)
    enum = _lane_weights(lanes)
    min_w = min(enum)
    return XiCertificate(
        xi=xi,
        alpha_in_rm24=XI_ALPHA in rm_codes().rm24.words,
        alpha_weight=XI_ALPHA.bit_count(),
        conditions=conditions,
        coset_enumerator=enum,
        min_coset_weight=min_w,
        top_weight=Fraction(min_w, 16),
    )
