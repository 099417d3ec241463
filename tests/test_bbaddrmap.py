"""Unit and property tests for the BB address map codec.

``decode_section`` decodes a section into columns in one NumPy pass;
the byte-at-a-time decoder it replaced is kept here as the reference
(:func:`_reference_decode_section`), and :class:`TestAgainstReference`
fuzzes the two against each other, malformed input included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf import bbaddrmap
from repro.elf.bbaddrmap import (
    ULEB128_MAX_BYTES,
    decode_section,
    decode_uleb128,
    encode_uleb128,
)
from tests.conftest import encode_bb_addr_maps


def _reference_decode_section(data):
    """Every function's ``(name, [(bb_id, offset, size, flags), ...])``,
    decoding one varint at a time."""
    maps = []
    offset = 0
    while offset < len(data):
        name_len, offset = decode_uleb128(data, offset)
        if offset + name_len > len(data):
            raise ValueError("truncated function name in bb address map")
        name = data[offset : offset + name_len].decode()
        offset += name_len
        count, offset = decode_uleb128(data, offset)
        entries = []
        if count:
            cursor, offset = decode_uleb128(data, offset)
            for _ in range(count):
                bb_id, offset = decode_uleb128(data, offset)
                size, offset = decode_uleb128(data, offset)
                flags, offset = decode_uleb128(data, offset)
                entries.append((bb_id, cursor, size, flags))
                cursor += size
        maps.append((name, entries))
    return maps


def _as_maps(amap):
    """``decode_section``'s columns in the reference's shape."""
    rows = list(zip(*(column.tolist() for column in amap[2:])))
    bounds = amap.bounds.tolist()
    return [(func, rows[lo:hi]) for func, lo, hi in zip(amap.funcs, bounds, bounds[1:])]


def _decoded(decode, data):
    try:
        return decode(data)
    except ValueError as exc:
        return type(exc), str(exc)


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

    def test_longest_value_fits_an_int64(self):
        top = 2**63 - 1
        assert len(encode_uleb128(top)) == ULEB128_MAX_BYTES
        assert decode_uleb128(encode_uleb128(top), 0) == (top, ULEB128_MAX_BYTES)
        with pytest.raises(ValueError, match="too long"):
            decode_uleb128(encode_uleb128(2**63), 0)

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


def _contiguous_map(name, sizes, base=0, ids=None, flags=None):
    entries = []
    offset = base
    for i, size in enumerate(sizes):
        entries.append((ids[i] if ids else i, offset, size, flags[i] if flags else 0))
        offset += size
    return name, entries


def _roundtrip(*maps):
    return _as_maps(decode_section(encode_bb_addr_maps(maps)))


class TestFunctionMap:
    def test_roundtrip_simple(self):
        fmap = _contiguous_map("foo", [10, 20, 5])
        assert _roundtrip(fmap) == [fmap]

    def test_roundtrip_with_base_offset(self):
        # A landing-pad nop shifts the first block to offset 1 (§4.5).
        amap = decode_section(encode_bb_addr_maps([_contiguous_map("f", [4, 8], base=1)]))
        assert amap.offset.tolist() == [1, 5]

    def test_flags_roundtrip(self):
        fmap = _contiguous_map(
            "g", [4, 4, 4],
            flags=[bbaddrmap.FLAG_HAS_RETURN, bbaddrmap.FLAG_LANDING_PAD,
                   bbaddrmap.FLAG_HAS_INDIRECT_JUMP],
        )
        amap = decode_section(encode_bb_addr_maps([fmap]))
        assert amap.flags.tolist() == [bbaddrmap.FLAG_HAS_RETURN, bbaddrmap.FLAG_LANDING_PAD,
                                       bbaddrmap.FLAG_HAS_INDIRECT_JUMP]

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValueError, match="non-contiguous"):
            encode_bb_addr_maps([("bad", [(0, 0, 10, 0), (1, 15, 5, 0)])])

    def test_empty_function(self):
        assert _roundtrip(("empty", [])) == [("empty", [])]

    def test_unicode_names(self):
        assert decode_section(encode_bb_addr_maps([_contiguous_map("fünc", [3])])).funcs == [
            "fünc"]

    def test_truncated_name_raises(self):
        data = encode_bb_addr_maps([_contiguous_map("longname", [4])])
        with pytest.raises(ValueError, match="truncated function name"):
            decode_section(data[:3])

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
        assert _roundtrip(fmap) == [fmap]


class TestSection:
    def test_multi_function_section(self):
        maps = [
            _contiguous_map("a", [4, 4]),
            _contiguous_map("b", [16]),
            ("c", []),
        ]
        amap = decode_section(encode_bb_addr_maps(maps))
        assert _as_maps(amap) == maps
        assert amap.bounds.tolist() == [0, 2, 3, 3]

    def test_empty_section(self):
        amap = decode_section(b"")
        assert amap.funcs == [] and amap.bounds.tolist() == [0] and len(amap.bb_id) == 0

    def test_columns_are_int64(self):
        amap = decode_section(encode_bb_addr_maps([_contiguous_map("a", [4, 300])]))
        assert all(column.dtype.name == "int64" for column in amap[1:])


def _uleb(value, pad):
    """``value`` as a ULEB128 of its own length plus ``pad`` redundant
    continuation bytes: the same value, or too long to decode."""
    data = bytearray(encode_uleb128(value))
    if pad:
        data[-1] |= 0x80
        data += b"\x80" * (pad - 1) + b"\x00"
    return bytes(data)


#: Mostly canonical varints; now and then one padded, up to or past the limit.
_PAD = st.integers(0, 99).map(lambda n: max(0, n - 99 + ULEB128_MAX_BYTES + 2))
#: One- to six-byte values (multi-byte varints), mostly small.
_VALUE = st.one_of(st.integers(0, 130), st.integers(0, 2**40))


@st.composite
def _encoded_section(draw):
    """The bytes of a map section, built varint by varint: any names
    (multi-byte UTF-8 too), functions with no entries, any first
    offset, and the odd over-long varint; then maybe truncated."""
    data = bytearray()
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.text(max_size=4)).encode()
        count = draw(st.integers(0, 4))
        data += _uleb(len(name), draw(_PAD)) + name + _uleb(count, draw(_PAD))
        if count:
            data += _uleb(draw(_VALUE), draw(_PAD))  # the first block's offset
            for _ in range(3 * count):
                data += _uleb(draw(_VALUE), draw(_PAD))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data)


class TestAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(_encoded_section())
    def test_columns_equal_the_reference_decode(self, data):
        expected = _decoded(_reference_decode_section, data)
        assert _decoded(lambda raw: _as_maps(decode_section(raw)), data) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=6), _VALUE,
                              st.lists(st.tuples(_VALUE, _VALUE, _VALUE), max_size=6)),
                    max_size=6))
    def test_encoded_maps_decode_to_their_columns(self, functions):
        maps = []
        for name, first, triples in functions:
            entries, offset = [], first
            for bb_id, size, flags in triples:
                entries.append((bb_id, offset, size, flags))
                offset += size
            maps.append((name, entries))
        data = encode_bb_addr_maps(maps)
        assert _as_maps(decode_section(data)) == _reference_decode_section(data) == maps

    @pytest.mark.parametrize("field", ["name length", "count", "first offset", "bb_id",
                                       "size", "flags"])
    def test_an_over_long_varint_is_the_same_error(self, field):
        fields = {"name length": 1, "count": 1, "first offset": 0, "bb_id": 7, "size": 4,
                  "flags": 0}
        name_len, *rest = (_uleb(value, ULEB128_MAX_BYTES if key == field else 0)
                           for key, value in fields.items())
        data = name_len + b"a" + b"".join(rest)
        assert _decoded(_reference_decode_section, data) == (ValueError, "uleb128 too long")
        assert _decoded(decode_section, data) == (ValueError, "uleb128 too long")
        # One byte shorter, the same varint decodes.
        fine = data.replace(b"\x80\x00", b"\x00", 1)
        assert _as_maps(decode_section(fine)) == _reference_decode_section(fine) == [
            ("a", [(7, 0, 4, 0)])]

    def test_truncated_entries_are_the_same_error(self):
        data = encode_bb_addr_maps([_contiguous_map("a", [300, 4])])
        for cut in range(1, len(data)):
            assert _decoded(decode_section, data[:cut]) == _decoded(
                _reference_decode_section, data[:cut])
        assert _decoded(decode_section, data[:-1]) == (ValueError, "truncated uleb128")
