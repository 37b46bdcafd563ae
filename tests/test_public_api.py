"""The top-level package exports exactly what README.md documents, and
tests name no private name of the package off one kept list."""

import ast
import re
from pathlib import Path

import pitchlab

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_public_name_imports_and_is_documented():
    names = pitchlab.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from pitchlab import *", namespace)
    assert set(names) <= set(namespace)
    section = README.split("## Public API", 1)[1].split("\n## ", 1)[0]
    undocumented = [n for n in names if not re.search(rf"`{re.escape(n)}\b", section)]
    assert not undocumented, f"exported but not in README's Public API section: {undocumented}"


# The private names of src/pitchlab that tests may name, each with the
# reason no public path reaches what its test checks.
KEPT_PRIVATE_NAMES = {
    "_bench_config": "fuzzing it through main would run a benchmark on every accepted config",
    "_comb": "its own contract, a cache of read-only index arrays, is invisible to callers",
    "_yin_lag": "no public path hands yin the hand-built CMND rows its tie rules need",
}


def test_tests_name_only_the_kept_private_names():
    # src/pitchlab's module-level private names, as whole words, strings
    # included, in every test file but this one
    private = set()
    for module in Path(pitchlab.__file__).parent.glob("*.py"):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:  # defs and assignments
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            private.update(getattr(t, "id", getattr(t, "name", "")) for t in targets)
    tests = [p.read_text(encoding="utf-8") for p in Path(__file__).parent.glob("*.py")
             if p.name != Path(__file__).name]
    named = {n for n in private if n.startswith("_") and not n.startswith("__")
             and any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", text) for text in tests)}
    unlisted, stale = sorted(named - KEPT_PRIVATE_NAMES.keys()), sorted(KEPT_PRIVATE_NAMES.keys() - named)
    assert not unlisted, f"tests name private names off KEPT_PRIVATE_NAMES: {unlisted}"
    assert not stale, f"KEPT_PRIVATE_NAMES lists names no test names: {stale}"
