from __future__ import annotations

import random
from fractions import Fraction

import pytest

from extremal2.chimat import CharMatrix
from extremal2.exactq import _div, _mul, ode_series

# Filled by the acceptance tests; printed after the run so the one-line
# per-criterion report survives pytest's output capture.
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


def random_fraction(rng: random.Random, span: int = 300, den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_noninteger_h(rng: random.Random) -> Fraction:
    q = rng.randint(2, 7)
    p = rng.randint(1, q - 1)
    return rng.randint(-6, 6) + Fraction(p, q)


def random_charmatrix(rng: random.Random) -> CharMatrix:
    def nonzero() -> Fraction:
        while True:
            v = random_fraction(rng)
            if v != 0:
                return v

    return CharMatrix(random_fraction(rng), nonzero(), nonzero(), random_fraction(rng))


def in_span(rows, bits: int) -> bool:
    """Membership by row reduction, at any dimension (``LinearCode.words``
    stops at 20): keep one row per leading bit, then clear ``bits``'
    leading bits with them; ``bits`` is in the span iff nothing is left."""
    lead: dict[int, int] = {}
    for row in (*rows, bits):
        while row and row.bit_length() in lead:
            row ^= lead[row.bit_length()]
        if row:
            lead[row.bit_length()] = row
    return row == 0


def j_and_script_e(n_terms: int) -> tuple[list[int], list[int]]:
    """J and E, ``n_terms`` coefficients each from q^-1 on, read back off the
    series the recursion consumes: with a = (J - 240)/E and b = 1/E from
    ``ode_series``, qE = 1/(b/q) and qJ = a qE + 240q."""
    a, b = ode_series(n_terms + 1)
    q_e = _div([1] + [0] * (n_terms - 1), b[1:])
    q_j = _mul(a, q_e)
    q_j[1] += 240
    return q_j, q_e
