"""Unit and property tests for the BB address map codec."""

import pytest
from hypothesis import given, strategies as st

from repro.elf import bbaddrmap
from repro.elf.bbaddrmap import (
    BBEntry,
    FunctionMap,
    decode_function_map,
    decode_section,
    decode_uleb128,
    encode_uleb128,
)
from tests.conftest import encode_bb_addr_maps


class TestULEB128:
    def test_small_values_single_byte(self):
        for v in (0, 1, 127):
            assert len(encode_uleb128(v)) == 1

    def test_boundary(self):
        assert encode_uleb128(128) == b"\x80\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uleb128(-1)

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            decode_uleb128(b"\x80", 0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            decode_uleb128(b"", 0)

    @given(st.integers(min_value=0, max_value=2**60))
    def test_roundtrip(self, value):
        data = encode_uleb128(value)
        decoded, offset = decode_uleb128(data, 0)
        assert decoded == value
        assert offset == len(data)

    @given(st.lists(st.integers(min_value=0, max_value=2**32), max_size=20))
    def test_concatenated_stream(self, values):
        data = b"".join(encode_uleb128(v) for v in values)
        offset = 0
        out = []
        for _ in values:
            v, offset = decode_uleb128(data, offset)
            out.append(v)
        assert out == values
        assert offset == len(data)


def _encode(fmap):
    return encode_bb_addr_maps([fmap])


def _contiguous_map(name, sizes, base=0, ids=None, flags=None):
    entries = []
    offset = base
    for i, size in enumerate(sizes):
        entries.append(
            BBEntry(
                bb_id=ids[i] if ids else i,
                offset=offset,
                size=size,
                flags=flags[i] if flags else 0,
            )
        )
        offset += size
    return FunctionMap(func=name, entries=tuple(entries))


class TestFunctionMap:
    def test_roundtrip_simple(self):
        fmap = _contiguous_map("foo", [10, 20, 5])
        decoded, end = decode_function_map(_encode(fmap))
        assert decoded == fmap

    def test_roundtrip_with_base_offset(self):
        # A landing-pad nop shifts the first block to offset 1 (§4.5).
        fmap = _contiguous_map("f", [4, 8], base=1)
        decoded, _ = decode_function_map(_encode(fmap))
        assert decoded.entries[0].offset == 1
        assert decoded.entries[1].offset == 5

    def test_flags_roundtrip(self):
        fmap = _contiguous_map(
            "g", [4, 4, 4],
            flags=[bbaddrmap.FLAG_HAS_RETURN, bbaddrmap.FLAG_LANDING_PAD,
                   bbaddrmap.FLAG_HAS_INDIRECT_JUMP],
        )
        decoded, _ = decode_function_map(_encode(fmap))
        assert decoded.entries[0].flags == bbaddrmap.FLAG_HAS_RETURN
        assert decoded.entries[1].is_landing_pad

    def test_non_contiguous_rejected(self):
        entries = (BBEntry(0, 0, 10), BBEntry(1, 15, 5))
        with pytest.raises(ValueError, match="non-contiguous"):
            _encode(FunctionMap(func="bad", entries=entries))

    def test_empty_function(self):
        fmap = FunctionMap(func="empty", entries=())
        decoded, _ = decode_function_map(_encode(fmap))
        assert decoded.entries == ()

    def test_unicode_names(self):
        fmap = _contiguous_map("fünc", [3])
        decoded, _ = decode_function_map(_encode(fmap))
        assert decoded.func == "fünc"

    def test_truncated_name_raises(self):
        data = _encode(_contiguous_map("longname", [4]))
        with pytest.raises(ValueError):
            decode_function_map(data[:3])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 16),  # bb_id
                st.integers(min_value=1, max_value=4096),     # size
                st.integers(min_value=0, max_value=7),        # flags
            ),
            max_size=50,
        )
    )
    def test_roundtrip_property(self, raw):
        sizes = [r[1] for r in raw]
        ids = [r[0] for r in raw]
        flags = [r[2] for r in raw]
        fmap = _contiguous_map("p", sizes, ids=ids, flags=flags)
        decoded, consumed = decode_function_map(_encode(fmap))
        assert decoded == fmap
        assert consumed == len(_encode(fmap))


class TestSection:
    def test_multi_function_section(self):
        maps = [
            _contiguous_map("a", [4, 4]),
            _contiguous_map("b", [16]),
            FunctionMap(func="c", entries=()),
        ]
        decoded = decode_section(encode_bb_addr_maps(maps))
        assert decoded == maps

    def test_empty_section(self):
        assert decode_section(b"") == []

    def test_num_blocks(self):
        assert _contiguous_map("x", [1, 2, 3]).num_blocks == 3
