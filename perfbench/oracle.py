"""Response oracle: decides whether one CLI response is right.

``Oracle.check`` returns None for a verified response and otherwise the
kind of failure.  Two kinds are defects the seed commit already has.  The
timed requests avoid them, and a probe outside the timed loop sends the
requests that end in them (``workloads.probe``):

* ``empty-table-index-error``: ``classify --category X --format csv|md``
  for a category with no surviving genus crashes with an IndexError
  (exit 1) instead of printing an empty table.
* ``int-str-limit``: ``chi`` far from the window exits 2 because an entry
  has more than 4300 decimal digits (Python's int-to-str limit).

Any failure of a timed request, and a probe response that fails in
another way (a wrong output, an unexpected exit code, a timeout), makes
the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

EMPTY_TABLE = "empty-table-index-error"
INT_STR_LIMIT = "int-str-limit"
KNOWN_FAILURES = frozenset({EMPTY_TABLE, INT_STR_LIMIT})
WRONG_OUTPUT = "wrong-output"
TIMEOUT = "timeout"

# What a malformed response can raise while it is parsed (JSON and Unicode
# decoding errors are ValueErrors).
_PARSE_ERRORS = (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def _option(argv, name: str) -> str:
    """Value of ``--name value`` or ``--name=value`` in argv."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


def _is_empty_table(stdout: bytes, fmt: str) -> bool:
    header_lines = {"csv": 1, "md": 2}.get(fmt, 0)
    return len(stdout.decode().splitlines()) <= header_lines


_MD_COMPONENT = re.compile(r"^- (?:vacuum|module) component: q\^\((.*)\) \* \((.*)\)$")


def parse_character(stdout: bytes, fmt: str) -> dict:
    """Exponents and coefficient lists of a ``character`` response."""
    text = stdout.decode()
    if fmt == "json":
        data = json.loads(text)
        return {k: data[k] for k in ("exponent0", "exponent1", "series0", "series1")}
    comps = [m.groups() for m in map(_MD_COMPONENT.match, text.splitlines()) if m]
    if len(comps) != 2:
        raise ValueError("expected two character components")
    out = {}
    for i, (exponent, poly) in enumerate(comps):
        out[f"exponent{i}"] = exponent
        out[f"series{i}"] = [term.split("*")[0] for term in poly.split(" + ")]
    return out


def _md_cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def parse_chi(stdout: bytes, fmt: str) -> dict:
    """category, c, h_ext and chi entries x, y, z, w of a ``chi`` response."""
    text = stdout.decode()
    if fmt == "json":
        data = json.loads(text)
        return {"category": data["category"], "c": data["c"], "h_ext": data["h_ext"],
                **{k: data["chi"][k] for k in "xyzw"}}
    header, _sep, row = text.splitlines()
    data = dict(zip(_md_cells(header), _md_cells(row)))
    return {"category": data["category"], "c": data["c"], "h_ext": data["h_ext"],
            **{k: data[f"chi_{k}"] for k in "xyzw"}}


class Oracle:
    """Checks responses against ``expected.json`` and independent closed forms.

    ``expected`` is the parsed ``expected.json``; ``characters`` the rows of
    the package fixture ``characters.json``.  ``chi`` responses are checked
    against ``g_closed`` (c above the class seed) or ``k_closed`` (c below
    it), which are separate code from the ``iterate`` walk the CLI uses.
    """

    def __init__(self, expected: dict, characters: list[dict]) -> None:
        self.outputs = expected["outputs"]
        self.golden = {(cat, c) for cat, c, golden in expected["genera"] if golden}
        self.fixture_rows = {(r["category"], r["c"]): r for r in characters}

    def check(self, req, rc: int | None, stdout: bytes, stderr: bytes) -> str | None:
        if rc is None:
            return TIMEOUT
        if req.kind == "chi":
            if rc == 2 and b"integer string conversion" in stderr:
                return INT_STR_LIMIT
            if rc != 0:
                return f"exit-{rc}"
            return None if self._chi_ok(req, stdout) else WRONG_OUTPUT
        want = self.outputs.get(req.key)
        if want is None:
            return "no-expected-output"
        if "fails" in want:
            if rc == 1 and b"IndexError" in stderr:
                return EMPTY_TABLE
            if rc != 0:
                return f"exit-{rc}"
            return None if _is_empty_table(stdout, _option(req.argv, "--format")) else WRONG_OUTPUT
        if rc != 0:
            return f"exit-{rc}"
        if digest(stdout) != want["sha256"]:
            return WRONG_OUTPUT
        if req.kind == "character" and not self._character_ok(req, stdout):
            return WRONG_OUTPUT
        return None

    def _character_ok(self, req, stdout: bytes) -> bool:
        cat, c = _option(req.argv, "--category"), _option(req.argv, "--c")
        order = int(_option(req.argv, "--order"))
        try:
            got = parse_character(stdout, _option(req.argv, "--format"))
            exponent0 = Fraction(got["exponent0"])
            series = [Fraction(v) for v in (*got["series0"], *got["series1"])]
        except _PARSE_ERRORS:
            return False
        if exponent0 != -Fraction(c) / 24:
            return False
        if (len(got["series0"]), len(got["series1"])) != (order + 2, order + 1):
            return False
        row = self.fixture_rows.get((cat, c))
        if row is not None and any(
            row[k] != got[k][: len(row[k])] if k.startswith("series") else row[k] != got[k]
            for k in ("exponent0", "exponent1", "series0", "series1")
        ):
            return False
        if (cat, c) in self.golden:
            return all(v.denominator == 1 and v >= 0 for v in series)
        return True

    def _chi_ok(self, req, stdout: bytes) -> bool:
        from extremal2.chimat import alpha_beta, g_closed, k_closed, seed_rows

        cat, c = _option(req.argv, "--category"), Fraction(_option(req.argv, "--c"))
        try:
            got = parse_chi(stdout, _option(req.argv, "--format"))
            x, y, z, w, h, got_c = (Fraction(got[k]) for k in ("x", "y", "z", "w", "h_ext", "c"))
        except _PARSE_ERRORS:
            return False
        if got["category"] != cat or got_c != c:
            return False
        for c0, m0, h0 in seed_rows(cat):
            steps = (c - c0) / 24
            if steps.denominator != 1:
                continue
            if steps >= 0:
                return (x, w, h) == g_closed(m0.x, m0.w, h0, int(steps))
            ab, h_n = k_closed(alpha_beta(m0), h0, int(-steps))
            return (x - w, z * y, h) == (ab.alpha, ab.beta, h_n)
        return False
