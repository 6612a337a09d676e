"""The mutant catalog stays applicable: each snippet occurs once under src/."""

from __future__ import annotations

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_snippet_occurs_once_under_src():
    sources = {path.stem: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    for mutant in MUTANTS:
        found = {name: text.count(mutant.snippet) for name, text in sources.items()
                 if mutant.snippet in text}
        assert found == {mutant.module: 1}, mutant.name


def test_each_mutant_names_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.kills, mutant.name
        for test in mutant.kills:
            path, function = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
            assert f"\ndef {function}(" in (ROOT / path).read_text(), test
