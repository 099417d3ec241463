"""The linker shares its input sections instead of copying them, so:
inputs must come out of ``link()`` bit-for-bit as they went in, two links
of the same objects must not see each other, and nothing the linker
returns may alias a buffer an input owns."""

import pickle

import pytest

from repro.linker import LinkOptions, link
from tests.test_relaxation_oracle import section_leaders as _leaders


@pytest.fixture(scope="module")
def objects(small_objects):
    return [c.obj for c in small_objects]


def test_objects_pickle_identically_after_linking(objects):
    before = [pickle.dumps(obj) for obj in objects]
    digests = [obj.content_digest() for obj in objects]
    for options in (
        LinkOptions(),
        LinkOptions(emit_relocs=True, keep_bb_addr_map=False),
        LinkOptions(relax=False),
        LinkOptions(symbol_order=_leaders(objects)[::-1]),
    ):
        result = link(objects, options)
        assert result.stats.relax_passes == 0 or result.stats.shrunk_branches > 0
        assert [pickle.dumps(obj) for obj in objects] == before
    assert [obj.content_digest() for obj in objects] == digests


def test_links_of_the_same_objects_are_independent(objects):
    forward, backward = _leaders(objects), _leaders(objects)[::-1]
    first = link(objects, LinkOptions(symbol_order=forward)).executable.content_digest()
    other = link(objects, LinkOptions(symbol_order=backward)).executable.content_digest()
    again = link(objects, LinkOptions(symbol_order=forward)).executable.content_digest()
    assert first == again  # the link in between left nothing behind
    assert first != other
    # ... and each equals what freshly unpickled copies of the objects give.
    fresh = pickle.loads(pickle.dumps(objects))
    assert link(fresh, LinkOptions(symbol_order=backward)).executable.content_digest() == other


def test_output_does_not_alias_input_buffers(objects):
    objects = pickle.loads(pickle.dumps(objects))  # private copies to scribble on
    exe = link(objects, LinkOptions(relax=False)).executable  # no byte needs rewriting
    digest = exe.content_digest()
    inputs = {id(s.data) for obj in objects for s in obj.sections}
    for placed in exe.sections:
        assert type(placed.data) is bytes and id(placed.data) not in inputs
    for obj in objects:
        for section in obj.sections:
            section.data[:] = b"\xcc" * len(section.data)
    assert exe.content_digest() == digest
