"""Every mutant of tests/mutants.py still applies to the source it names.

The mutant runner takes minutes; this check takes well under a second. A
change that moves or rewrites a rule's text without updating its mutant
rows fails here, because `mutants.apply` refuses an edit whose old text does
not occur exactly once. Each mutated file must also still compile, so that
tier-1 kills a mutant by its semantics, not by a syntax error.
"""

import shutil

import pytest

import mutants

MUTANTS = mutants.mutants()


@pytest.mark.parametrize("name", MUTANTS)
def test_edits_apply(name, tmp_path):
    edits = MUTANTS[name]
    for path in {path for path, _, _ in edits}:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(mutants.ROOT / path, tmp_path / path)
    originals = mutants.apply(tmp_path, edits)
    assert not isinstance(originals, str), originals
    for file, original in originals.items():
        mutated = file.read_text(encoding="utf-8")
        assert mutated != original
        compile(mutated, str(file), "exec")
