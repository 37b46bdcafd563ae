"""Fuzzing the JSON config readers: each returns or raises ValueError."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pitchlab.cli import _bench_config
from pitchlab.ensemble import load_ensemble_spec
from pitchlab.estimators import DEFAULT_CONFIGS, parse_config_overrides

# Keys the readers know, mixed with arbitrary ones, so that generated
# documents reach the field checks rather than stopping at "unknown key".
KEYS = st.sampled_from(
    sorted(DEFAULT_CONFIGS)
    + ["f_min", "f_max", "n_harmonics", "members", "configs", "external", "command",
       "timeout_s", "songs", "methods", "noises", "snrs_db", "jobs", "seed", "out",
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
