"""Fuzzed text inputs: every reader parses a file or rejects it cleanly.

Each test writes generated text to a file and hands it to one reader;
the only acceptable outcomes are a parsed value or the reader's own
``DataError`` / ``ConfigError``, never another exception.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from searn.cli import _read_labels, read_config_file
from searn.errors import ConfigError, DataError
from searn.task_cluster import read_documents
from searn.task_depparse import load_conll
from searn.task_sequence import read_sequences

# Pieces of well-formed lines of every format, plus arbitrary text, glued
# with the formats' separators; small integers keep vocabularies small.
_ATOMS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["V=3", "V=abc", "V=", "V=-1", "_", "#", "x", "1:2",
                     "0:-1", "3:1:2", "1\t2\t0", "seeds=1,2", "exact=yes",
                     "k=x", "task=sequence", "beta=0.5", "=",
                     "99999999999999999999"]),
    st.text(max_size=5),
)
_LINES = st.lists(st.tuples(_ATOMS, st.sampled_from([" ", "\t", ":", "=",
                                                     ",", ""])),
                  max_size=5).map(lambda parts: "".join(a + s
                                                        for a, s in parts))
_TEXTS = st.lists(_LINES, max_size=8).map("\n".join)

_FUZZ = settings(max_examples=100, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("reader, errors", [
    (read_sequences, DataError),
    (read_documents, DataError),
    (load_conll, DataError),
    (_read_labels, DataError),
    (read_config_file, ConfigError),
], ids=["read_sequences", "read_documents", "load_conll", "read_labels",
        "read_config_file"])
@_FUZZ
@given(text=_TEXTS)
def test_reader_parses_or_rejects(tmp_path, reader, errors, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    try:
        reader(path)
    except errors:
        pass
