"""The mutant battery as tests: every mutant still applies, the tests it
names pass on the unmutated copy, and each mutant makes every one of
them fail.

Run from the root of a checkout: python -m pytest -q mutants
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from battery import MUTANTS, ROOT, run  # noqa: E402


def test_every_mutant_applies_once_and_names_real_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / "src" / "permfiber" / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", source, re.M), (m.name, test)


def test_the_named_tests_pass_without_a_mutant():
    code, failed, output = run(None)
    assert code == 0 and not failed, output


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_is_caught_by_the_tests_it_names(mutant):
    code, failed, output = run(mutant)
    assert code == 1, output
    assert set(mutant.tests) <= failed, output
