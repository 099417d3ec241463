"""Tests for the cc_prof / ld_prof directive formats."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bbsections import (
    format_cc_prof,
    format_ld_prof,
    parse_cc_prof,
    parse_ld_prof,
)


class TestCCProf:
    def test_roundtrip(self):
        specs = {"foo": [[0, 3, 5], [2, 4]], "bar": [[0]]}
        assert parse_cc_prof(format_cc_prof(specs)) == {
            "bar": [[0]], "foo": [[0, 3, 5], [2, 4]]
        }

    def test_format_shape(self):
        text = format_cc_prof({"foo": [[0, 1]]})
        assert text == "!foo\n!!0 1\n"

    def test_empty(self):
        assert format_cc_prof({}) == ""
        assert parse_cc_prof("") == {}

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n!f\n!!0 1\n"
        assert parse_cc_prof(text) == {"f": [[0, 1]]}

    def test_cluster_before_function_rejected(self):
        with pytest.raises(ValueError, match="before any function"):
            parse_cc_prof("!!0 1\n")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty cluster"):
            parse_cc_prof("!f\n!!\n")

    def test_duplicate_function_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_cc_prof("!f\n!!0\n!f\n!!1\n")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_cc_prof("hello\n")

    def test_empty_function_name_rejected(self):
        with pytest.raises(ValueError, match="empty function"):
            parse_cc_prof("!\n!!0\n")

    @given(
        st.dictionaries(
            st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                    min_size=1, max_size=12),
            st.lists(
                st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8),
                min_size=0, max_size=4,
            ),
            max_size=8,
        )
    )
    def test_roundtrip_property(self, specs):
        assert parse_cc_prof(format_cc_prof(specs)) == {
            k: [list(c) for c in v] for k, v in sorted(specs.items())
        }


class TestLdProf:
    def test_roundtrip(self):
        order = ["f", "g.cold", "h.1"]
        assert parse_ld_prof(format_ld_prof(order)) == order

    def test_empty(self):
        assert format_ld_prof([]) == ""
        assert parse_ld_prof("") == []

    def test_comments_skipped(self):
        assert parse_ld_prof("# cold parts\nf\n\ng\n") == ["f", "g"]

