"""The mutant list of mutation/run.py stays applicable to the tree.

Each mutant's old text must occur exactly once in its file, so that the
harness mutates the line it names and no other; running the mutants
themselves is the harness's job, not tier-1's.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutation_run",
                                                  ROOT / "mutation" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_names_exactly_one_place():
    mutants = load_mutants()
    assert mutants
    for file, old, new, proof in mutants:
        text = (ROOT / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, (file, old)
        assert old != new, (file, old)
        assert proof is None or proof.strip(), (file, old)
