"""Fuzzing the JSON config readers, each of which returns or raises
ValueError, and the estimators under every config they accept."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pitchlab.cli import _bench_config
from pitchlab.ensemble import load_ensemble_spec
from pitchlab.errors import ConfigOutOfRange
from pitchlab.estimators import (
    CONFIG_OVERRIDES,
    DEFAULT_CONFIGS,
    FRAME_LEN,
    NoteAnalysis,
    estimate_note_many,
    parse_config_overrides,
)
from pitchlab.sigproc import AudioBuffer

from conftest import sawtooth

# Keys the readers know, mixed with arbitrary ones, so that generated
# documents reach the field checks rather than stopping at "unknown key".
KEYS = st.sampled_from(
    sorted(DEFAULT_CONFIGS)
    + ["f_min", "f_max", "n_harmonics", "members", "external", "command",
       "timeout_s", "songs", "methods", "noises", "snrs_db", "seed", "out",
       "annotations", "count", "sample_rate", "dir"]
) | st.text(max_size=3)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)  # JSON integers are unbounded
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5)
)

JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)

# Mostly objects at the top, as every reader expects.
DOCUMENTS = st.dictionaries(KEYS, JSON, max_size=4) | JSON


@settings(max_examples=100, deadline=None)
@given(DOCUMENTS)
def test_config_readers_return_or_raise_value_error(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for read in (
        lambda: parse_config_overrides(document, "fuzz"),
        lambda: load_ensemble_spec(path),
        lambda: _bench_config(str(path)),
    ):
        try:
            read()
        except ValueError:
            pass


# Every value an accepted override can hold: f_min and f_max are JSON
# numbers, subnormals and infinities included, and n_harmonics a JSON
# integer, which is unbounded.
OVERRIDE_FIELDS = {
    "f_min": st.floats(min_value=0.0) | st.integers(min_value=0),
    "f_max": st.floats(min_value=0.0) | st.integers(min_value=0),
    "n_harmonics": st.integers(min_value=1),
}
OVERRIDES = st.sampled_from(sorted(CONFIG_OVERRIDES)).flatmap(
    lambda method: st.tuples(st.just(method), st.fixed_dictionaries(
        {}, optional={key: OVERRIDE_FIELDS[key] for key in CONFIG_OVERRIDES[method]}))
)

# One frame of a 220 Hz sawtooth at a rate with no band decimation and at
# one with q = 4.
ONE_FRAME_NOTES = [AudioBuffer(sawtooth(220.0, FRAME_LEN, rate), rate) for rate in (8000, 44100)]


@settings(max_examples=200, deadline=None)
@given(OVERRIDES)
@example(("yin", {"f_min": 5e-324}))
@example(("acf", {"f_min": 0, "f_max": 5e-324}))
@example(("cepstrum", {"f_min": 0, "f_max": 1e-320}))
@example(("srh", {"n_harmonics": 2**63}))
def test_estimators_return_or_raise_config_out_of_range(override):
    method, fields = override
    try:
        configs = parse_config_overrides({method: fields}, "fuzz")
    except ValueError:
        return
    for note in ONE_FRAME_NOTES:
        try:
            estimate_note_many(NoteAnalysis(note), configs)
        except ConfigOutOfRange:
            pass
