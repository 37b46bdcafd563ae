"""The top-level package exports exactly what README.md documents."""

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
