"""Serializer round-trip tests, including property-based ones."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import PAGE_SIZE
from repro.errors import GeometryError, SerializationError
from repro.geometry.aabb import AABB
from repro.storage import serializer as ser


def box(lo, hi):
    return AABB(np.asarray(lo, float), np.asarray(hi, float))


def test_node_roundtrip():
    entries = [(box((0, 0, 0), (1, 1, 1)), 7, 99),
               (box((2, 2, 2), (3, 3, 3)), 8, ser.NIL)]
    data = ser.encode_node(1, 2, 42, entries, PAGE_SIZE)
    kind, level, offset, decoded = ser.decode_node(data)
    assert (kind, level, offset) == (1, 2, 42)
    assert len(decoded) == 2
    assert decoded[0][1] == 7
    assert decoded[0][2] == 99
    assert decoded[1][2] == ser.NIL
    assert np.allclose(decoded[1][0].lo, (2, 2, 2), atol=1e-6)


def test_node_overflow_rejected():
    entries = [(box((0, 0, 0), (1, 1, 1)), 0, 0)] * 200
    with pytest.raises(SerializationError):
        ser.encode_node(0, 0, 0, entries, 256)


def test_node_truncated_rejected():
    with pytest.raises(SerializationError):
        ser.decode_node(b"\x00")


def test_vpage_roundtrip():
    ventries = [(0.25, 3), (0.0, 0), (1.0, 17)]
    data = ser.encode_vpage(5, ventries, PAGE_SIZE)
    offset, decoded = ser.decode_vpage(data)
    assert offset == 5
    assert decoded[1] == (0.0, 0)
    assert decoded[2][1] == 17
    assert decoded[0][0] == pytest.approx(0.25)


def test_vpage_rejects_bad_dov():
    with pytest.raises(SerializationError):
        ser.encode_vpage(0, [(1.5, 1)], PAGE_SIZE)
    with pytest.raises(SerializationError):
        ser.encode_vpage(0, [(-0.1, 1)], PAGE_SIZE)


def test_index_pairs_roundtrip():
    pairs = [(0, 10), (5, 20), (9, ser.NIL)]
    data = ser.encode_index_pairs(pairs)
    assert ser.decode_index_pairs(data, 3) == pairs
    with pytest.raises(SerializationError):
        ser.decode_index_pairs(data, 10)


def test_pointer_array_roundtrip():
    pointers = [1, ser.NIL, 3, 0]
    data = ser.encode_pointer_array(pointers)
    assert ser.decode_pointer_array(data, 4) == pointers
    with pytest.raises(SerializationError):
        ser.decode_pointer_array(data, 8)


finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@given(st.lists(st.tuples(
    st.tuples(finite, finite, finite),
    st.tuples(finite, finite, finite),
    st.integers(0, 2 ** 32 - 1),
    st.integers(0, 2 ** 32 - 1)), min_size=0, max_size=20))
def test_node_roundtrip_property(raw_entries):
    entries = []
    for a, b, child, ptr in raw_entries:
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        entries.append((AABB(lo, hi), child, ptr))
    data = ser.encode_node(0, 3, 11, entries, PAGE_SIZE)
    _kind, _level, _offset, decoded = ser.decode_node(data)
    assert len(decoded) == len(entries)
    for (mbr, child, ptr), (dmbr, dchild, dptr) in zip(entries, decoded):
        assert dchild == child
        assert dptr == ptr
        assert np.allclose(dmbr.lo, mbr.lo, rtol=1e-5, atol=1e-2)


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 10 ** 6)),
                min_size=0, max_size=50))
def test_vpage_roundtrip_property(ventries):
    data = ser.encode_vpage(1, ventries, PAGE_SIZE)
    _offset, decoded = ser.decode_vpage(data)
    assert len(decoded) == len(ventries)
    for (dov, nvo), (ddov, dnvo) in zip(ventries, decoded):
        assert dnvo == nvo
        assert ddov == pytest.approx(dov, abs=1e-6)


# -- columnar node decode against the per-entry reference -------------------


def reference_decode_node(data):
    """The per-entry decoder :func:`ser.decode_node` replaced: one
    struct unpack and one validated :class:`AABB` per entry."""
    if len(data) < ser.NODE_HEADER_SIZE:
        raise SerializationError("page too small for a node header")
    header = struct.Struct("<BHBI")
    entry = struct.Struct("<6fII")
    kind, count, level, vindex_offset = header.unpack_from(data, 0)
    entries = []
    offset = ser.NODE_HEADER_SIZE
    for _ in range(count):
        if offset + ser.NODE_ENTRY_SIZE > len(data):
            raise SerializationError("truncated node entry")
        values = entry.unpack_from(data, offset)
        mbr = AABB(np.array(values[0:3], dtype=np.float64),
                   np.array(values[3:6], dtype=np.float64))
        entries.append((mbr, values[6], values[7]))
        offset += ser.NODE_ENTRY_SIZE
    return kind, level, vindex_offset, entries


def assert_same_decode(data):
    kind, level, offset, entries = ser.decode_node(data)
    rkind, rlevel, roffset, reference = reference_decode_node(data)
    assert (kind, level, offset) == (rkind, rlevel, roffset)
    assert len(entries) == len(reference)
    assert entries.targets == [target for _m, target, _p in reference]
    assert entries.lod_ptrs == [ptr for _m, _t, ptr in reference]
    assert entries.mbrs.dtype == np.float64
    assert entries.mbrs.shape == (len(reference), 6)
    for index, (mbr, target, ptr) in enumerate(reference):
        decoded = entries.mbr(index)
        assert decoded.lo.dtype == np.float64
        assert decoded.lo.tobytes() == mbr.lo.tobytes()
        assert decoded.hi.tobytes() == mbr.hi.tobytes()
        assert entries[index][1:] == (target, ptr)
    assert [e[1:] for e in entries] == [e[1:] for e in reference]


float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)
corner = st.tuples(float32s, float32s, float32s)


@given(st.lists(st.tuples(corner, corner, st.integers(0, 2 ** 32 - 1),
                          st.integers(0, 2 ** 32 - 1)),
                min_size=0, max_size=(PAGE_SIZE - ser.NODE_HEADER_SIZE)
                // ser.NODE_ENTRY_SIZE),
       st.integers(0, 255), st.integers(0, 255),
       st.integers(0, 2 ** 32 - 1), st.binary(max_size=16))
def test_columnar_decode_matches_reference(raw_entries, kind, level,
                                           vindex, slack):
    entries = [(AABB(np.minimum(a, b), np.maximum(a, b)), child, ptr)
               for a, b, child, ptr in raw_entries]
    data = ser.encode_node(kind, level, vindex, entries, PAGE_SIZE)
    assert_same_decode(data + slack)


#: Arbitrary bytes, and plausible headers (a few entries claimed) over
#: arbitrary entry bytes, so random MBR floats reach the validation.
node_bytes = st.one_of(
    st.binary(max_size=4 * ser.NODE_ENTRY_SIZE),
    st.builds(lambda count, body: struct.pack("<BHBI", 1, count, 0, 0)
              + body,
              st.integers(0, 4), st.binary(max_size=4 * ser.NODE_ENTRY_SIZE)))


@given(node_bytes)
def test_columnar_decode_fuzz(data):
    """Arbitrary bytes: the decoder raises only its typed errors, and it
    accepts exactly the pages the reference decoder accepts."""
    try:
        reference_decode_node(data)
    except (SerializationError, GeometryError):
        with pytest.raises((SerializationError, GeometryError)):
            ser.decode_node(data)
    else:
        assert_same_decode(data)


def node_page(count, *mbrs):
    """A header claiming ``count`` entries followed by ``mbrs`` entries."""
    parts = [struct.pack("<BHBI", 1, count, 0, 0)]
    parts.extend(struct.pack("<6fII", *mbr, 3, ser.NIL) for mbr in mbrs)
    return b"".join(parts)


UNIT = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def test_header_only_page_rejected():
    with pytest.raises(SerializationError):
        ser.decode_node(node_page(1))


def test_entry_count_overrunning_page_rejected():
    data = node_page(200, UNIT, UNIT)
    with pytest.raises(SerializationError):
        ser.decode_node(data)
    with pytest.raises(SerializationError):
        ser.decode_node(data + bytes(PAGE_SIZE - len(data)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("component", range(6))
def test_non_finite_mbr_rejected(bad, component):
    mbr = list(UNIT)
    mbr[component] = bad
    with pytest.raises(GeometryError):
        ser.decode_node(node_page(2, UNIT, mbr))


@pytest.mark.parametrize("axis", range(3))
def test_inverted_mbr_rejected(axis):
    mbr = list(UNIT)
    mbr[axis] = 2.0
    with pytest.raises(GeometryError):
        ser.decode_node(node_page(2, UNIT, mbr))


def test_decoded_mbrs_are_read_only():
    _k, _l, _o, entries = ser.decode_node(node_page(1, UNIT))
    with pytest.raises(ValueError):
        entries.mbrs[0, 0] = 5.0
