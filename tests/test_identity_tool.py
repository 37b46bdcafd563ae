"""Smoke test of tools/identity.py, the byte-identity check."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"


def test_two_copies_agree_and_a_changed_constant_is_named(tmp_path):
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)

    trees = [tmp_path / name for name in ("one", "two", "mutated")]
    for tree in trees:
        shutil.copytree(ROOT / "src" / "pitchlab", tree / "src" / "pitchlab",
                        ignore=shutil.ignore_patterns("__pycache__"))
    source = trees[2] / "src" / "pitchlab" / "estimators.py"
    text = source.read_text()
    assert text.count("\nREFINE_WINDOW = 0.03\n") == 1
    source.write_text(text.replace("\nREFINE_WINDOW = 0.03\n", "\nREFINE_WINDOW = 0.001\n"))

    one, two, mutated = identity.battery(trees, quick=True)
    assert identity.compare(one, two) == ["quick: identical"]
    [line] = identity.compare(one, mutated)
    # the refinement window moves only the ensemble's f0s, the last column
    assert line.startswith("quick: differs at line 1: ") and "lines moved" in line
    first_base, first_mutated = one["quick"].splitlines()[0], mutated["quick"].splitlines()[0]
    assert first_base.split()[:-1] == first_mutated.split()[:-1]
    assert first_base.split()[-1] != first_mutated.split()[-1]
