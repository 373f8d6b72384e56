"""The mutation gate's data stays applicable to the current source.

``tests/mutants.py`` runs each mutant of ``tests/mutants.json`` on a temporary
copy of the tree, outside this suite.  Here only the file is checked: it
parses, and every snippet occurs exactly once in its source file, so a
refactor that moves a snippet must update its mutant rather than lose it.
"""

from __future__ import annotations

from mutants import load, problems


def test_mutant_file_applies_to_the_current_source():
    mutants = load()
    assert problems(mutants) == []
    assert sum("equivalent" not in m for m in mutants) >= 10


def test_problems_name_a_moved_snippet():
    mutant = dict(load()[0], snippet="no such line in the source")
    assert problems([mutant, mutant]) == [
        f"repeated id {mutant['id']!r}",
        f"{mutant['id']}: snippet occurs 0 times in {mutant['file']}",
        f"{mutant['id']}: snippet occurs 0 times in {mutant['file']}",
    ]
