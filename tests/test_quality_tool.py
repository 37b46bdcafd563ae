"""Smoke test of tools/quality.py, the held-out quality check."""

import importlib.util
import math
from pathlib import Path

import pytest

from pitchlab.estimators import REGISTRY
from pitchlab.evaluation import QUARTER_TONE, estimate_song, pitch_error, synth_song
from pitchlab.noise import synthetic_noise_refs

TOOL = Path(__file__).resolve().parents[1] / "tools" / "quality.py"


@pytest.fixture(scope="module")
def quality():
    spec = importlib.util.spec_from_file_location("quality", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_song_under_one_noise(quality):
    refs = synthetic_noise_refs(77)
    methods = quality.evaluate(1000, 1, {"white": refs["white"]})
    assert list(methods) == [*REGISTRY, "ensemble"]
    for pools in methods.values():
        assert list(pools) == ["clean", "noisy", "white"]
        # one noise kind: its pool is the noisy pool
        assert pools["white"] == pools["noisy"]
        for pool in pools.values():
            assert pool["error"] >= 0.0 and 0.0 <= pool["gross"] <= 1.0

    # with one song the pooled clean error is that song's pitch_error
    buffer, notes = synth_song(1000)
    truths = [n.f0_truth for n in notes]
    f0s = estimate_song(buffer, notes, ["ensemble", "hps"], {})
    for method in ("ensemble", "hps"):
        assert methods[method]["clean"]["error"] == round(pitch_error(f0s[method], truths), 6)
    assert methods["ensemble"]["clean"]["gross"] == 0.0
    assert methods["ensemble"]["clean"]["error"] < 0.1


def test_gross_counts_unvoiced_and_off_by_more_than_a_quarter_tone(quality):
    f0 = 200.0
    sharp = f0 * (1.0 + QUARTER_TONE)
    pairs = list(zip([None, f0, sharp * 0.999, sharp * 1.001], [f0] * 4))
    assert quality.summary(pairs) == {
        "error": round((math.sqrt(f0) + math.sqrt(sharp * 0.999 - f0)
                        + math.sqrt(sharp * 1.001 - f0)) / 4, 6),
        "gross": 0.5,
    }


def test_unknown_set_is_exit_2(quality, capsys):
    with pytest.raises(SystemExit) as exc:
        quality.main(["--set", "B"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
