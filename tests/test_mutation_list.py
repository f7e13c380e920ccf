"""The mutant list of mutation/run.py stays applicable to the tree.

Each mutant's old text must occur exactly once in its file, so that the
harness mutates the line it names and no other; running the mutants
themselves is the harness's job, not tier-1's.  The ``--only`` argument
is checked here too, on numbers that are refused before any mutant runs.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_harness():
    spec = importlib.util.spec_from_file_location("mutation_run",
                                                  ROOT / "mutation" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_mutants():
    return load_harness().MUTANTS


def test_each_mutant_names_exactly_one_place():
    mutants = load_mutants()
    assert mutants
    for file, old, new, proof in mutants:
        text = (ROOT / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, (file, old)
        assert old != new, (file, old)
        assert proof is None or proof.strip(), (file, old)


def test_only_selects_mutants_by_their_printed_number():
    harness = load_harness()
    last = len(harness.MUTANTS)
    assert harness.mutant_numbers(f"{last},1,{last}") == [1, last]


@pytest.mark.parametrize("text", ["0", "x", "1,,2"])
def test_only_refuses_a_number_that_names_no_mutant(text, capsys):
    harness = load_harness()
    with pytest.raises(SystemExit) as exc:
        harness.main(["--only", text])
    assert exc.value.code == 2
    assert "--only" in capsys.readouterr().err


def test_only_refuses_one_past_the_last_mutant(capsys):
    harness = load_harness()
    with pytest.raises(SystemExit) as exc:
        harness.main(["--only", f"1,{len(harness.MUTANTS) + 1}"])
    assert exc.value.code == 2
    assert f"no mutant numbered {len(harness.MUTANTS) + 1}" in capsys.readouterr().err
