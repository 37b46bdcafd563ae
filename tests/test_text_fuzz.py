"""Fuzzing the text readers: annotation files and results CSVs.

read_annotation returns or raises InvalidAnnotation, and a results CSV
returns a rendered report or raises ValueError, whatever the bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pitchlab.errors import InvalidAnnotation
from pitchlab.evaluation import parse_long_csv, read_annotation, render_report

CSV_HEADER = "method,noise_id,snr_db,error"

# Fields the readers know, mixed with arbitrary text, so that generated
# documents reach the field checks rather than stopping at the first line.
FIELDS = st.sampled_from(
    ["0", "0.5", "1", "220", "-1", "1e400", "nan", "inf", "#", "clean", "white",
     "3", "hps", "ensemble", ""]
) | st.text(max_size=4)


@st.composite
def documents(draw):
    separator = draw(st.sampled_from([" ", ",", "\t"]))
    lines = draw(st.lists(st.lists(FIELDS, max_size=5), max_size=6))
    text = "\n".join(separator.join(fields) for fields in lines)
    return f"{CSV_HEADER}\n{text}" if draw(st.booleans()) else text


# Raw bytes cover other encodings and truncated multi-byte characters.
BYTES = (
    documents().map(lambda text: text.encode("utf-8"))
    | documents().map(lambda text: text.encode("utf-16"))
    | st.binary(max_size=64)
)


@settings(max_examples=200, deadline=None)
@given(BYTES)
def test_text_readers_return_or_raise_their_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.notes"
    path.write_bytes(data)
    try:
        read_annotation(path)
    except InvalidAnnotation:
        pass

    text = data.decode("utf-8", errors="replace")
    try:
        report = parse_long_csv(text)
        for fmt in ("csv", "text-table"):
            render_report(report, fmt)
    except ValueError:
        pass
