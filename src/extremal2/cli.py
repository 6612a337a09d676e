"""Command-line surface: render the pipeline's tables as stable artifacts.

Subcommands: catalog, bounds, classify, character, chi, rm.  Output is
deterministic and byte-stable per (arguments, format); the version line
goes to stderr so stdout stays clean for diffing.  Exit codes: 0 success,
1 verification mismatch or internal inconsistency, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import NoReturn

from . import __version__, bounds, classify
from .charser import character_vector, expand
from .chimat import CharMatrix, alpha_beta, chi_of, class_seed, g_closed, k_closed
from .genus import CATALOG, Genus, Surd, category, genus, modular_rep_check
from .reedmuller import (
    lemma6_scan,
    min_weight_rm46,
    rm_codes,
    verify_theorem1_xi,
    weight_enumerator,
    word_str,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _encode(value):
    """JSON-ready form of ``value``: rationals as canonical ``p/q`` strings,
    elements of Q(sqrt 5) as ``a+b*sqrt(5)``, characteristic matrices as their
    four entries, through lists and dicts."""
    if isinstance(value, (Fraction, Surd)):  # before tuples: a Surd is a NamedTuple
        return str(value)
    if isinstance(value, CharMatrix):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# data builders (everything below renders these dicts)


def catalog_data() -> list[dict]:
    return _encode([
        {"id": cat.id, "c_mod8": cat.c_mod8, "h_mod1": cat.h_mod1,
         "s_matrix": {"num": cat.s_num, "sqrt_norm": cat.s_norm}}
        for cat in CATALOG
    ])


def bounds_data(table: str, only: str | None = None) -> list[dict]:
    """One of the three bound tables; ``only`` restricts its rows to a category."""
    if table == "summary":
        rows = [{"category": cat.id, "c_min": c_min, "c_max": c_max}
                for cat in CATALOG for c_min, c_max in [bounds.c_extremes(cat)]]
    else:
        rows = bounds.positive_table() if table == "nmax-positive" else bounds.negative_table()
    return _encode([row for row in rows if only in (None, row["category"])])


def classify_data(rows: list[classify.CandidateOutcome], only: str | None = None) -> list[dict]:
    return _encode([
        {"category": r.category.id, "c": r.c, "h_ext": r.h_ext, "ell": r.ell,
         "chi": r.chi, "realization": r.realization_note}
        for r in rows if only in (None, r.category.id)
    ])


def character_data(cat_id: str, c: Fraction, order: int, m: CharMatrix | None = None) -> dict:
    """The character vector through ``order``, expanded from ``m``, the
    walk's matrix at c (walked here when not given)."""
    cat = category(cat_id)
    g = genus(cat, c)
    # expand, not charser.characters: perfbench deep's peak_rss_mib counts its kept responses
    vec = character_vector(expand(g, chi_of(cat, c) if m is None else m, order))
    return _encode({
        "category": cat.id,
        "c": c,
        "exponent0": vec.exponent0,
        "exponent1": vec.exponent1,
        "series0": vec.series0,
        "series1": vec.series1,
    })


def chi_data(g: Genus, m: CharMatrix) -> dict:
    return _encode({"category": g.category.id, "c": g.c, "h_ext": g.h_ext, "chi": m})


def _walk_failure(g: Genus, m: CharMatrix) -> str | None:
    """What contradicts ``m``, the walk's matrix at g.c, in the closed forms
    from its class seed, or None: n steps above the seed its diagonal must
    be ``g_closed``'s, below it its ``alpha_beta`` ``k_closed``'s."""
    (_, m0, h0), n = class_seed(g.category, g.c)
    if n >= 0 and g_closed(m0.x, m0.w, h0, n) != (m.x, m.w, g.h_ext):
        return f"chi's diagonal differs from g_closed {n} steps above the class seed"
    if n < 0 and k_closed(alpha_beta(m0), h0, -n) != (alpha_beta(m), g.h_ext):
        return f"chi's (alpha, beta) differs from k_closed {-n} steps below the class seed"
    return None


def rm_data() -> dict:
    codes = rm_codes()
    min_w, witness = min_weight_rm46()
    sweep = lemma6_scan()
    cert = verify_theorem1_xi()
    dual = codes.rm14.dual()
    return _encode({
        "dims": {"rm14": codes.rm14.dim, "rm24": codes.rm24.dim,
                 "rm16": codes.rm16.dim, "rm46": codes.rm46.dim},
        "rm16_weight_enumerator": weight_enumerator(codes.rm16),
        "rm24_equals_rm14_dual": dual.dim == codes.rm24.dim and {*dual.basis} <= codes.rm24.words,
        "rm46_min_weight": min_w,
        "rm46_min_weight_witness": word_str(witness, 64),
        "weight6_count": sweep.weight6_count,
        "lemma_sweep_conditions_pass": sweep.all_conditions_pass,
        "lemma_sweep_cosets_match": sweep.all_cosets_match,
        "coset_enumerator": sweep.coset_enumerator,
        "xi": word_str(cert.xi, 64),
        "xi_alpha": word_str(cert.xi >> 48, 16),
        "xi_conditions": {
            "i": cert.conditions.cond_i,
            "ii": cert.conditions.cond_ii,
            "iii": cert.conditions.cond_iii,
            "iv": cert.conditions.cond_iv,
            "subcode": cert.conditions.subcode_ok,
            "doubly_even": cert.conditions.doubly_even_ok,
        },
        "min_coset_weight": cert.min_coset_weight,
        "top_weight": cert.top_weight,
    })


# ---------------------------------------------------------------------------
# renderers


def _render_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _flatten(rows: list[dict]) -> list[dict]:
    """Table rows with each nested dict spread into ``key_sub`` columns."""
    flat_rows = []
    for row in rows:
        flat = {}
        for key, val in row.items():
            if isinstance(val, dict):
                flat.update({f"{key}_{sub}": sval for sub, sval in val.items()})
            else:
                flat[key] = val
        flat_rows.append(flat)
    return flat_rows


def _render(data, fmt: str, md=None) -> str:
    """``data`` as ``fmt`` text.  Markdown uses ``md`` when given; otherwise,
    like csv, it draws ``data`` (a list of rows, or one row) as a table.
    A table without rows renders as nothing."""
    if fmt == "json":
        return _render_json(data)
    if md is not None:
        return md(data)
    rows = _flatten(data if isinstance(data, list) else [data])
    if not rows:
        return ""
    headers = list(rows[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(row[h]) for h in headers) + " |")
    return "\n".join(lines) + "\n"


def _render_character_md(data: dict) -> str:
    lines = [
        f"# character ({data['category']}, c = {data['c']})",
        "",
        f"- vacuum component: q^({data['exponent0']}) * "
        f"({_poly(data['series0'])})",
        f"- module component: q^({data['exponent1']}) * "
        f"({_poly(data['series1'])})",
    ]
    return "\n".join(lines) + "\n"


def _poly(coeffs: list[str]) -> str:
    terms = []
    for n, c in enumerate(coeffs):
        if n == 0:
            terms.append(c)
        elif n == 1:
            terms.append(f"{c}*q")
        else:
            terms.append(f"{c}*q^{n}")
    return " + ".join(terms)


def _render_rm_md(data: dict) -> str:
    cond = data["xi_conditions"]
    lines = [
        "# binary-code certificate",
        "",
        f"- dims: RM(1,4)={data['dims']['rm14']}, RM(2,4)={data['dims']['rm24']}, "
        f"RM(1,6)={data['dims']['rm16']}, RM(4,6)={data['dims']['rm46']}",
        f"- RM(1,6) weight enumerator: {data['rm16_weight_enumerator']}",
        f"- RM(2,4) = RM(1,4)^perp: {data['rm24_equals_rm14_dual']}",
        f"- RM(4,6) minimum weight: {data['rm46_min_weight']} "
        f"(witness {data['rm46_min_weight_witness']})",
        f"- weight-6 words of RM(2,4): {data['weight6_count']}; "
        f"all pass conditions: {data['lemma_sweep_conditions_pass']}; "
        f"all cosets 64x^28+64x^36: {data['lemma_sweep_cosets_match']}",
        f"- construction word xi = {data['xi']}",
        f"- conditions (i)-(iv): {cond['i']}, {cond['ii']}, {cond['iii']}, {cond['iv']}"
        f" (subcode {cond['subcode']}, doubly even {cond['doubly_even']})",
        f"- min coset weight {data['min_coset_weight']} -> top weight {data['top_weight']}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fixtures


def _load_fixture(name: str):
    path = resources.files("extremal2").joinpath("fixtures", name)
    return json.loads(path.read_text())


_BOUNDS_FIXTURES = {"summary": "bounds_summary.json", "nmax-positive": "nmax_positive.json",
                    "nmax-negative": "nmax_negative.json"}


def _note(line: str) -> None:
    """Write ``line`` to stderr; a closed stderr (None, or on a dead fd) loses it."""
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.write(line + "\n")


def _verdict(ok: bool, fixture_name: str) -> int:
    _note("check passed" if ok else f"check FAILED against fixtures/{fixture_name}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _certified(doc: dict) -> bool:
    """The ``rm verify`` document certifies the c = 33 construction: every
    boolean in it holds, RM(4,6) has minimum weight 4 and the top weight is 7/4."""
    flags = [v for v in (*doc.values(), *doc["xi_conditions"].values()) if isinstance(v, bool)]
    return all(flags) and doc["rm46_min_weight"] == 4 and doc["top_weight"] == "7/4"


def _check_against(data, fixture_name: str, only: str | None = None) -> int:
    """Compare ``data`` with a fixture: a table with its ``rows`` (those of
    category ``only`` when given), a document whole."""
    fixture = _load_fixture(fixture_name)
    if isinstance(data, list):
        fixture = [row for row in fixture["rows"] if only is None or row["category"] == only]
    return _verdict(data == fixture, fixture_name)


def _check_character(data: dict) -> int:
    """Compare ``data`` with its characters.json row, which holds a prefix of
    each series; a series compares on the terms both sides have."""
    def cut(a: dict, b: dict) -> dict:
        return {k: v[: len(b[k])] if k.startswith("series") else v for k, v in a.items()}

    for row in _load_fixture("characters.json")["rows"]:
        if (row["category"], row["c"]) == (data["category"], data["c"]):
            return _verdict(cut(data, row) == cut(row, data), "characters.json")
    _note("no fixture row for this genus")
    return EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument handling


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


class _NegativeRational:
    """argparse reads a token that starts with "-" as an option unless its
    private ``_negative_number_matcher`` matches it.  This one matches every
    negative rational ``_parse_fraction`` reads: "--c -4.4e0" is "--c=-4.4e0"."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            return text.startswith("-") and _parse_fraction(text) is not None
        except argparse.ArgumentTypeError:
            return False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal2",
        description="Exact classification of extremal two-module VOA characters.",
    )
    parser.add_argument("--version", action="version", version=f"extremal2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "csv", "md"), check=True):
        # main reports argument errors found after parsing through the
        # subcommand's own parser, as argparse reports its own
        p.set_defaults(subparser=p)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to a file")
        if check:
            p.add_argument("--check", action="store_true",
                           help="compare regenerated output against the bundled fixture")

    p_catalog = sub.add_parser("catalog", help="the 8 rank-two categories")
    add_common(p_catalog)

    p_bounds = sub.add_parser("bounds", help="central-charge bounds")
    p_bounds.add_argument("category", nargs="?", default=None,
                          help="restrict the table to one category id")
    p_bounds.add_argument("--table", choices=("summary", "nmax-positive", "nmax-negative"),
                          default="summary")
    add_common(p_bounds)

    p_classify = sub.add_parser("classify", help="the 15 surviving genera")
    p_classify.add_argument("--category", default=None)
    add_common(p_classify)

    def add_genus(p):
        p.add_argument("--category", required=True)
        p.add_argument("--c", required=True, type=_parse_fraction)
        p._negative_number_matcher = _NegativeRational

    p_char = sub.add_parser("character", help="character vector of a genus")
    add_genus(p_char)
    p_char.add_argument("--order", type=int, default=8)
    add_common(p_char, formats=("json", "md"))

    p_chi = sub.add_parser("chi", help="characteristic matrix of a genus")
    add_genus(p_chi)
    add_common(p_chi, formats=("json", "md"), check=False)

    p_rm = sub.add_parser("rm", help="binary-code certificates")
    p_rm.add_argument("action", choices=("verify",))
    add_common(p_rm, formats=("json", "md"))

    return parser


def _emit(text: str, out: str | None, parser: argparse.ArgumentParser) -> None:
    """Write ``text`` to ``out`` or, flushed, to stdout; a destination that
    cannot take it is a bad argument."""
    if out:
        try:  # a full device fails only at the write or the close
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {out}: {exc.strerror}")
        return
    try:
        if sys.stdout is None:  # fd 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:  # so the exit's own flush of the rest stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        parser.error(f"cannot write stdout: {exc.strerror}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported by the subcommand's parser, like every later usage error
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    _note(f"extremal2 {__version__}")
    # chi entries grow by about 6 digits per 24-step in c, so output has no
    # digit limit (interpreters without the limit lack the function)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    # bad arguments are the only way to exit 2
    only = getattr(args, "category", None)
    try:
        cat = None if only is None else category(only)
        g = genus(cat, args.c) if args.command in ("character", "chi") else None
        if getattr(args, "order", 1) < 1:
            raise ValueError("--order must be at least 1")
        if getattr(args, "order", 1) + 2 > sys.maxsize:  # order + 2 terms must size a list
            raise ValueError(f"--order must be at most {sys.maxsize - 2}")
    except ValueError as exc:
        args.subparser.error(str(exc))

    # every request but bounds checks its own result, in every format and
    # with or without --check; ``failure`` says what is wrong with it
    md = fixture = failure = None
    if args.command == "catalog":
        data, fixture = catalog_data(), "catalog.json"
        bad = [cat.id for cat in CATALOG if not modular_rep_check(cat, cat.c_mod8)]
        if bad:
            failure = f"modular S/T check fails for {', '.join(bad)}"
    elif args.command == "bounds":
        data, fixture = bounds_data(args.table, only), _BOUNDS_FIXTURES[args.table]
    elif args.command == "classify":
        rows = classify.classify_all()
        data, fixture = classify_data(rows, only), "classify.json"
        if not classify.matches_golden(rows):
            failure = "classification differs from the embedded golden table"
    elif args.command in ("character", "chi"):
        m = chi_of(cat, args.c)
        failure = _walk_failure(g, m)
        if args.command == "chi":
            data = chi_data(g, m)
        else:
            try:
                data, md = character_data(only, args.c, args.order, m), _render_character_md
            except MemoryError:  # at once, when order + 2 terms cannot be allocated
                args.subparser.error(f"--order {args.order} needs more memory than is available")
    else:
        data, md, fixture = rm_data(), _render_rm_md, "rm_verify.json"
        if not _certified(data):
            failure = "the binary-code certificate does not hold"
    _emit(_render(data, args.format, md), args.out, args.subparser)

    if failure:
        _note(failure)
        return EXIT_MISMATCH
    if not getattr(args, "check", False):
        return EXIT_OK
    if args.command == "character":
        return _check_character(data)
    return _check_against(data, fixture, only)


def run() -> NoReturn:
    """Entry point of ``extremal2`` and ``python -m extremal2``: ``main``, then
    flush and end the process at once (as ``mypy.util.hard_exit`` does), so no
    time goes to freeing every loaded module and atexit hooks do not run.  An
    exception, or argparse's ``SystemExit``, takes the normal way out."""
    rc = main()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, OSError):  # None, or on a closed fd
            stream.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
