"""The report writer against json.dumps(sort_keys=True, indent=2), the
encoder it replaces: byte-equal on every report shape it accepts."""

import json

import pytest
from hypothesis import example, given, strategies as st

from ffdioph.config import ExperimentConfig
from ffdioph.runner import report_json, report_json_bytes, run_config
from test_golden import GOLDEN


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_writer_matches_json_dumps_on_golden_reports(name):
    report, _ = run_config(ExperimentConfig.from_dict(GOLDEN[name][0]))
    assert report_json_bytes(report) == dumps(report).encode("ascii")


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    # non-ASCII, quotes, backslashes and control characters
    st.text(),
    st.text(alphabet=st.sampled_from('"\\\n\t\x00\x1f\x7f/é€𝄞 ')),
)
_reports = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=40,
)


@given(_reports)
@example({})
@example([])
@example(())
@example({"": [], "a": {}, "b": ()})
@example({"é\"\\\n": [None, True, False, 0, -1, 10**40]})
def test_writer_matches_json_dumps_on_nested_reports(obj):
    assert report_json(obj) == dumps(obj)


@pytest.mark.parametrize("obj", [1.5, [0.0], {"a": float("-inf")}, {"a": {1, 2}}, b"x"])
def test_writer_refuses_what_a_report_does_not_hold(obj):
    with pytest.raises(TypeError):
        report_json(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": 1, None: 2}, {"a": {(1,): 0}}])
def test_writer_refuses_a_key_that_is_not_a_string(obj):
    with pytest.raises(TypeError):
        report_json(obj)
