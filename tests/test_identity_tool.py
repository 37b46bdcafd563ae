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

    names = ("one", "two", "mutated", "scores_silence", "five_harmonics")
    trees = [tmp_path / name for name in names]
    for tree in trees:
        shutil.copytree(ROOT / "src" / "pitchlab", tree / "src" / "pitchlab",
                        ignore=shutil.ignore_patterns("__pycache__"))
    # scores_silence sums every frame's spectrum into live_spectrum, silent
    # ones included; five_harmonics drops every comb term past the fifth
    # harmonic, which no default config reaches
    for tree, old, new in [(trees[2], "\nREFINE_WINDOW = 0.03\n", "\nREFINE_WINDOW = 0.001\n"),
                           (trees[3], "self.spectrogram[self.live].sum(axis=0)",
                            "self.spectrogram.sum(axis=0)"),
                           (trees[4], "range(2, cfg.n_harmonics + 1)",
                            "range(2, min(cfg.n_harmonics, 5) + 1)")]:
        source = tree / "src" / "pitchlab" / "estimators.py"
        text = source.read_text()
        assert text.count(old) == 1
        source.write_text(text.replace(old, new))

    one, two, mutated, scores_silence, five_harmonics = identity.battery(trees, quick=True)

    def compared(other):
        return dict(line.split(": ", 1) for line in identity.compare(one, other))

    assert compared(two) == dict.fromkeys(["overrides", "quick", "silence"], "identical")
    line = compared(mutated)["quick"]
    # the refinement window moves only the ensemble's f0s, the last column
    assert line.startswith("differs at line 1: ") and "lines moved" in line
    first_base, first_mutated = one["quick"].splitlines()[0], mutated["quick"].splitlines()[0]
    assert first_base.split()[:-1] == first_mutated.split()[:-1]
    assert first_base.split()[-1] != first_mutated.split()[-1]
    # the silence artefact's padding is quiet noise, not zeros, so this shows
    assert compared(scores_silence)["silence"].startswith("differs at line ")
    # only the overrides artefact runs combs of more than five harmonics
    differs = compared(five_harmonics)
    assert differs.pop("overrides").startswith("differs at line ")
    assert differs == dict.fromkeys(["quick", "silence"], "identical")
