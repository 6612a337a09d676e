"""A catalog of source mutants that the test suite must kill.

Each entry names a module of ``src/extremal2``, an exact source snippet that
occurs once under ``src/``, its replacement, and the test ids that must fail
once the replacement is made.  ``tests/test_mutants.py`` checks on every
test run that each snippet still occurs exactly once, so a refactor that
moves one updates this table with it.

The mutants themselves run on demand, not in the test suite:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is applied alone to a temporary copy of ``src/``, ``tests/``,
``demos/``, ``perfbench/`` and ``README.md``, and its tests run there.  It is killed when
every listed test fails; the exit status is 1 if any mutant survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    kills: tuple[str, ...]


MUTANTS = (
    Mutant(
        "rm26-basis-row-dropped", "reedmuller",
        "for m in codes.rm26.basis)",
        "for m in codes.rm26.basis[1:])",
        ("tests/test_reedmuller.py::test_lemma5_odd_block_weight_fails_condition_iii",
         "tests/test_reedmuller.py::test_subcode_test_reads_every_rm26_row"),
    ),
    Mutant(
        "doubly-even-mod-4", "reedmuller",
        "twice_and & 7 * ones == 0",
        "twice_and & 3 * ones == 0",
        ("tests/test_reedmuller.py::test_condition_iv_reads_the_block_indicators",
         "tests/test_reedmuller.py::test_lemma5_equivalences_on_structured_words",
         "tests/test_reedmuller.py::test_lemma5_and_cosets_match_the_product_by_product_oracle"),
    ),
    Mutant(
        "iv-on-repetition-words-only", "reedmuller",
        "for g in codes.rm16.basis)",
        "for g in codes.rm16.basis[:5])",
        ("tests/test_reedmuller.py::test_condition_iv_reads_the_block_indicators",
         "tests/test_reedmuller.py::test_lemma5_and_cosets_match_the_product_by_product_oracle"),
    ),
    Mutant(
        "repeated-columns-unchecked", "reedmuller",
        "if len(distinct) < len(columns):",
        "if len(distinct) < len(distinct):",
        ("tests/test_reedmuller.py::test_min_weight_scan_tests_each_word_at_its_weight[positions2]",
         "tests/test_reedmuller.py::test_min_weight_scan_tests_each_word_at_its_weight[positions3]",
         "tests/test_reedmuller.py::test_min_weight_scan_tests_each_word_at_its_weight[positions4]"),
    ),
    Mutant(
        "columns-from-six-rows", "reedmuller",
        "for i, g in enumerate(code.basis))",
        "for i, g in enumerate(code.basis[:6]))",
        ("tests/test_reedmuller.py::test_rm16_columns_are_the_odd_seven_bit_values",
         "tests/test_reedmuller.py::test_min_weight_four_with_witness",
         "tests/test_reedmuller.py::test_weight_census_matches_macwilliams_transform",
         "tests/test_reedmuller.py::test_code_dimensions"),
    ),
    Mutant(
        "wrong-coset-count", "reedmuller",
        "data.count(36) != 64",
        "data.count(36) != 63",
        ("tests/test_reedmuller.py::test_lemma6_sweep",
         "tests/test_cli.py::test_rm_verify_check_and_md",
         "tests/test_acceptance.py::test_criterion_08_code_suite"),
    ),
    Mutant(
        "sweep-verdict-from-four-conditions", "reedmuller",
        "all(report)",
        "all(report[:4])",
        ("tests/test_cli.py::test_one_sweep_word_failing_only_the_subcode_test_fails_rm_verify",),
    ),
    Mutant(
        "lemma6-word-without-complement", "reedmuller",
        "alpha ^ _MASK16)",
        "alpha)",
        ("tests/test_reedmuller.py::test_lemma6_sweep",
         "tests/test_cli.py::test_rm_verify_check_and_md"),
    ),
    Mutant(
        "c94-coset-coefficient-bumped", "charser",
        "121366368",
        "121366369",
        ("tests/test_charser.py::test_module_pairing_pins_the_stored_c94_component",),
    ),
    Mutant(
        "bumped-a2-in-expand", "charser",
        "    a, b = ode_series(order + 2)\n",
        "    a, b = ode_series(order + 2)\n    a[2] += 1\n",
        ("tests/test_charser.py::test_expansion_matches_schoolbook_d_matrices_on_every_candidate",
         "tests/test_charser.py::test_every_printed_character_coefficient",
         "tests/test_cli.py::test_character_check_compares_the_terms_both_sides_have",
         "tests/test_mlde.py::test_mlde_matches_expand_on_every_window_candidate"),
    ),
    Mutant(
        "chi10-off-by-one-in-expand", "charser",
        "chi = ((m.x, m.y), (m.z, m.w))",
        "chi = ((m.x, m.y), (m.z + 1, m.w))",
        ("tests/test_mlde.py::test_mlde_matches_expand_on_every_window_candidate",
         "tests/test_mlde.py::test_mlde_matches_expand_on_walk_genera",
         "tests/test_charser.py::test_expansion_matches_schoolbook_d_matrices_on_every_candidate"),
    ),
    Mutant(
        "g-closed-denominator-shifted", "chimat",
        "den = h + 2 * n - 1",
        "den = h + 2 * n + 1",
        ("tests/test_chimat.py::test_g_step_example",
         "tests/test_chimat.py::test_g_matches_diagonal_of_f_plus",
         "tests/test_chimat.py::test_g_closed_identity_and_composition",
         "tests/test_chimat.py::test_g_closed_is_the_iterated_step",
         "tests/test_acceptance.py::test_criterion_05_recurrence_properties"),
    ),
    Mutant(
        "k-closed-alpha-term-shifted", "chimat",
        "480 * n * (h - n - 1)",
        "480 * n * (h - n)",
        ("tests/test_chimat.py::test_k_step_example",
         "tests/test_chimat.py::test_k_step_matches_alpha_beta_of_f_minus",
         "tests/test_chimat.py::test_k_closed_identity_and_composition",
         "tests/test_chimat.py::test_k_closed_is_the_iterated_step",
         "tests/test_acceptance.py::test_criterion_05_recurrence_properties"),
    ),
    Mutant(
        "kernel-plus-step-uses-h-plus-one", "chimat",
        "p + q, p, p - 2 * q, p + 2 * q, 1",
        "p + q, p + q, p - 2 * q, p + 2 * q, 1",
        ("tests/test_chimat.py::test_iterate_is_the_schoolbook_composition",
         "tests/test_chimat.py::test_iterate_matches_the_schoolbook_walk_from_every_seed",
         "tests/test_chimat.py::test_f_plus_maps_negative_row_back_to_seed",
         "tests/test_chimat.py::test_g_matches_diagonal_of_f_plus",
         "tests/test_cli.py::test_chi_checks_its_walk_against_the_closed_forms"),
    ),
    Mutant(
        "kernel-minus-step-beta-sign", "chimat",
        "-p, 4 * q - p, -1",
        "-p, p - 4 * q, -1",
        ("tests/test_chimat.py::test_iterate_is_the_schoolbook_composition",
         "tests/test_chimat.py::test_iterate_matches_the_schoolbook_walk_from_every_seed",
         "tests/test_chimat.py::test_f_minus_from_chi_one",
         "tests/test_chimat.py::test_k_step_matches_alpha_beta_of_f_minus",
         "tests/test_cli.py::test_chi_checks_its_walk_against_the_closed_forms"),
    ),
    Mutant(
        "g-closed-x-shift-off-by-one", "chimat",
        "(x - 240 * n)",
        "(x - 240 * n - 1)",
        ("tests/test_chimat.py::test_g_step_example",
         "tests/test_chimat.py::test_g_matches_diagonal_of_f_plus",
         "tests/test_cli.py::test_chi_checks_its_walk_against_the_closed_forms",
         "tests/test_cli.py::test_chi_far_from_the_window_has_no_digit_limit[24001-1000]"),
    ),
    Mutant(
        "nu-fit-with-one-plus-h", "chimat",
        "nu_1728 = -(1 - g.h_ext) * x",
        "nu_1728 = -(1 + g.h_ext) * x",
        ("tests/test_charser.py::test_characters_match_expand_on_every_window_candidate",
         "tests/test_charser.py::test_characters_fit_nu_to_chi00_at_ell_four",
         "tests/test_classify.py::test_classification_matches_golden_table",
         "tests/test_acceptance.py::test_criterion_01_golden_classification"),
    ),
    Mutant(
        "c-max-one-step-low", "bounds",
        "c_max = max(c + 24 * nmax_positive(m, h) for c, m, h in seed_rows(cat))",
        "c_max = max(c + 24 * nmax_positive(m, h) for c, m, h in seed_rows(cat)) - 24",
        ("tests/test_classify.py::test_no_matrix_outside_the_window_passes_the_constant_term_filter",
         "tests/test_bounds.py::test_c_extremes_golden_values",
         "tests/test_acceptance.py::test_criterion_04_c_extremes"),
    ),
    Mutant(
        "negative-base-point-steps-up", "bounds",
        "m, h = iterate(m, h, -1)",
        "m, h = iterate(m, h, 1)",
        ("tests/test_bounds.py::test_negative_base_points_are_one_step_down",
         "tests/test_bounds.py::test_negative_table_matches_fixture_and_all_zero",
         "tests/test_bounds.py::test_c_extremes_golden_values",
         "tests/test_acceptance.py::test_criterion_03_golden_bound_tables"),
    ),
    Mutant(
        "seed-rows-swap-top-and-bottom", "chimat",
        "return c, CharMatrix(x, y, z, w), h",
        "return c, CharMatrix(z, w, x, y), h",
        ("tests/test_chimat.py::test_seed_examples",
         "tests/test_chimat.py::test_negative_table_rows_derived_from_seeds",
         "tests/test_bounds.py::test_positive_table_matches_fixture",
         "tests/test_classify.py::test_classification_matches_golden_table",
         "tests/test_acceptance.py::test_criterion_01_golden_classification"),
    ),
    Mutant(
        "seed-h-one-class-up", "chimat",
        "[(c0, m0, h0),",
        "[(c0, m0, h0 + 2),",
        ("tests/test_chimat.py::test_seed_examples",
         "tests/test_chimat.py::test_seed_rows_equal_the_transcribed_table",
         "tests/test_classify.py::test_chi_of_matches_seeds_and_iterates",
         "tests/test_bounds.py::test_positive_table_matches_fixture"),
    ),
    Mutant(
        "stored-seed-z-bumped", "chimat",
        '"semion": (Fraction(1), 2)',
        '"semion": (Fraction(1), 3)',
        ("tests/test_chimat.py::test_seed_examples",
         "tests/test_chimat.py::test_seed_rows_equal_the_transcribed_table",
         "tests/test_closed_forms.py::test_character_matches_its_closed_form_through_order_120[semion-1]",
         "tests/test_closed_forms.py::test_dual_pair_sums_to_the_e8_character_through_q40[semion@1-semion-bar@7]"),
    ),
    Mutant(
        "e8-shift-247", "chimat",
        "x=m0.x + 248, w=m0.w + 248",
        "x=m0.x + 247, w=m0.w + 247",
        ("tests/test_chimat.py::test_seed_rows_equal_the_transcribed_table",
         "tests/test_closed_forms.py::test_character_matches_its_closed_form_through_order_120[semion-9]",
         "tests/test_closed_forms.py::test_ell4_seed_character_is_the_ell0_one_times_e8_through_q40[fib-14/5]",
         "tests/test_closed_forms.py::test_ell4_seed_character_is_the_ell0_one_times_e8_through_q40[yang-lee-98/5]"),
    ),
    Mutant(
        "j-pairing-196885", "chimat",
        "(196884 - (",
        "(196885 - (",
        ("tests/test_chimat.py::test_seed_rows_equal_the_transcribed_table",
         "tests/test_chimat.py::test_seed_examples",
         "tests/test_closed_forms.py::test_dual_pair_sums_to_j_plus_a_constant_through_q40[semion@17-semion-bar@7-456]",
         "tests/test_closed_forms.py::test_dual_pair_sums_to_j_plus_a_constant_through_q40[yang-lee@58/5-yang-lee-bar@62/5--840]"),
    ),
    Mutant(
        "class-seed-only-at-or-above-the-seed", "chimat",
        "        if steps.denominator == 1:\n",
        "        if steps.denominator == 1 and steps >= 0:\n",
        ("tests/test_chimat.py::test_class_seed_finds_the_seed_and_the_signed_steps[semion--23-1--1]",
         "tests/test_classify.py::test_chi_of_matches_seeds_and_iterates",
         "tests/test_cli.py::test_chi_checks_its_walk_against_the_closed_forms",
         "tests/test_cli.py::test_character_exits_1_on_a_tampered_walk[below]"),
    ),
    Mutant(
        "g-closed-x-weight-on-w-doubled", "chimat",
        "x_n = (n * w + ",
        "x_n = (2 * n * w + ",
        ("tests/test_bounds.py::test_positive_window_is_complete_for_every_n",
         "tests/test_chimat.py::test_g_matches_diagonal_of_f_plus"),
    ),
    Mutant(
        "nmax-positive-one-step-low", "bounds",
        "    return n - 1\n",
        "    return max(n - 2, 0)\n",
        ("tests/test_bounds.py::test_positive_window_is_complete_for_every_n",
         "tests/test_bounds.py::test_positive_table_matches_fixture"),
    ),
    Mutant(
        "k-closed-beta-descent-term-shifted", "chimat",
        "- 746496 * n * (h - n - 1))",
        "- 746496 * n * (h - n))",
        ("tests/test_bounds.py::test_negative_window_is_complete_for_every_n",
         "tests/test_chimat.py::test_k_closed_is_the_iterated_step"),
    ),
    Mutant(
        "ell-with-five-h", "genus",
        "ell = 1 + c / 2 - 6 * h",
        "ell = 1 + c / 2 - 5 * h",
        ("tests/test_genus.py::test_ell_examples",
         "tests/test_genus.py::test_ell_is_small_integer_everywhere",
         "tests/test_genus.py::test_exponent_matrix_examples"),
    ),
    Mutant(
        "stale-all-entry", "reedmuller",
        '    "construction_xi",\n]',
        '    "construction_xi",\n    "_dual_byte_tables",\n]',
        ("tests/test_package.py::test_every_exported_name_exists[reedmuller]",),
    ),
    Mutant(
        "table-built-at-import", "reedmuller",
        'XI_ALPHA = word("0110 1100 1010 0000")\n',
        'XI_ALPHA = word("0110 1100 1010 0000")\n_coset_lanes()\n',
        ("tests/test_package.py::test_cli_import_builds_no_reedmuller_table",),
    ),
    Mutant(
        "st-phase-without-quarter", "genus",
        " - Fraction(1, 4) + 3 * h / 2",
        " + 3 * h / 2",
        ("tests/test_genus.py::test_modular_rep_check_on_catalog",
         "tests/test_genus.py::test_modular_rep_check_agrees_with_the_float_reference_on_catalog"),
    ),
    Mutant(
        "st-phase-3h-not-halved", "genus",
        "+ 3 * h / 2 +",
        "+ 3 * h +",
        ("tests/test_genus.py::test_modular_rep_check_on_catalog",
         "tests/test_genus.py::test_modular_rep_check_agrees_with_the_float_reference_on_catalog"),
    ),
    Mutant(
        "sin2-phi-constants-swapped", "genus",
        "Fraction(1, 5): _THREE_MINUS_PHI,\n              Fraction(2, 5): _TWO_PLUS_PHI}",
        "Fraction(1, 5): _TWO_PLUS_PHI,\n              Fraction(2, 5): _THREE_MINUS_PHI}",
        ("tests/test_genus.py::test_modular_rep_check_on_catalog",
         "tests/test_genus.py::test_modular_rep_check_agrees_with_the_float_reference_on_catalog"),
    ),
    Mutant(
        "outward-walk-strict-lower-bound", "classify",
        "while c_min <= c + 24 * step <= c_max:",
        "while c_min < c + 24 * step <= c_max:",
        ("tests/test_classify.py::test_candidate_charges_for_semion",
         "tests/test_classify.py::test_candidates_take_one_recurrence_step_per_row_beyond_the_seeds"),
    ),
    Mutant(
        "words-from-basis", "reedmuller",
        "return frozenset(words)",
        "return frozenset(self.basis)",
        ("tests/test_reedmuller.py::test_words_is_the_span_and_agrees_with_membership",
         "tests/test_reedmuller.py::test_words_is_the_span_of_random_bases",
         "tests/test_reedmuller.py::test_weight_enumerators",
         "tests/test_reedmuller.py::test_lemma5_on_construction_word",
         "tests/test_cli.py::test_rm_verify_check_and_md"),
    ),
    Mutant(
        "words-skip-first-basis-row", "reedmuller",
        "for row in self.basis:",
        "for row in self.basis[1:]:",
        ("tests/test_reedmuller.py::test_words_is_the_span_of_random_bases",
         "tests/test_reedmuller.py::test_rm24_weight_distribution"),
    ),
    Mutant(
        "catalog-self-check-dropped", "cli",
        'failure = f"modular S/T check fails',
        '_ = f"modular S/T check fails',
        ("tests/test_cli.py::test_catalog_exits_1_on_a_row_that_fails_the_st_check",),
    ),
    Mutant(
        "negative-rational-matcher-narrowed", "cli",
        'return text.startswith("-") and _parse_fraction(text) is not None',
        'return text.startswith("-") and "e" not in text and _parse_fraction(text) is not None',
        ("tests/test_cli.py::test_negative_c_forms_that_parse_and_one_that_does_not",),
    ),
    Mutant(
        "walk-self-check-dropped", "cli",
        "failure = _walk_failure(g, m)",
        "_ = _walk_failure(g, m)",
        ("tests/test_cli.py::test_character_exits_1_on_a_tampered_walk[above]",
         "tests/test_cli.py::test_character_exits_1_on_a_tampered_walk[below]"),
    ),
    Mutant(
        "ode-series-984-to-985", "exactq",
        "x - 984 * d",
        "x - 985 * d",
        ("tests/test_acceptance.py::test_criterion_07_series_anchors",
         "tests/test_exactq.py::test_ode_series_against_oracles"),
    ),
    Mutant(
        "rm-self-check-dropped", "cli",
        'failure = "the binary-code certificate does not hold"',
        '_ = "the binary-code certificate does not hold"',
        ("tests/test_cli.py::test_rm_verify_exits_1_on_a_failing_certificate[min-weight-3]",
         "tests/test_cli.py::test_rm_verify_exits_1_on_a_failing_certificate[top-weight-27-16]"),
    ),
)


def still_passing(mutant: Mutant) -> list[str]:
    """The listed tests that pass with ``mutant`` applied to a fresh copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "demos", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        path = copy / "src" / "extremal2" / f"{mutant.module}.py"
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant.kills],
            cwd=copy, env=env, capture_output=True, text=True, timeout=600,
        )
    if result.returncode not in (0, 1):  # an unknown test id or a collection error
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}")
    failed = {line.split()[1] for line in result.stdout.splitlines()
              if line.startswith("FAILED ")}
    return [test for test in mutant.kills if test not in failed]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        passing = still_passing(mutant)
        survived += bool(passing)
        verdict = "survived" if passing else "killed"
        print(f"{verdict:8} {mutant.name}" + "".join(f"\n  still passes: {t}" for t in passing))
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
