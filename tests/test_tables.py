"""The generic record table (``repro.elf.table``): for each of the
thirteen record types it is a list of those records that happens to be
stored in columns -- round trip, pickle and slices agree with a plain
list, and records store the columns ``from_columns`` stores -- plus the
properties only a table has (named overflow, layout stamp, bulk
columns)."""

import dataclasses
import itertools
import pickle
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf import (
    BlockMeta,
    BranchFixup,
    CallSite,
    ExecBlock,
    Executable,
    ObjectFile,
    PlacedSection,
    PrefetchSite,
    Relocation,
    RelocType,
    RetainedRelocation,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolInfo,
    SymbolType,
    TerminatorKind,
    TerminatorMeta,
)
from repro.elf.executable import ResolvedCall, ResolvedTerminator
from repro.elf.table import NONE, Strings, Table, layout_of, merged
from repro.isa import Opcode

# ----------------------------------------------------------------------
# Strategies: one per record type, ragged and optional fields included.

i32 = st.integers(-(2 ** 31) + 1, 2 ** 31 - 1)
addr = st.integers(-(2 ** 63) + 1, 2 ** 63 - 1)  # the minimum is an Optional column's None
names = st.sampled_from(["f", "g", ".Lf.__bb1", "main", "", "näme"])
prob = st.floats(0.0, 1.0)
flags = st.booleans()


def weighted(key):
    return st.lists(st.tuples(key, prob), max_size=3).map(tuple)


relocations = st.builds(Relocation, i32, st.sampled_from(RelocType), names, i32)
symbols = st.builds(Symbol, names, names, i32, i32, st.sampled_from(SymbolBinding),
                    st.sampled_from(SymbolType))
fixups = st.builds(BranchFixup, i32, st.sampled_from(Opcode), names, flags)
call_sites = st.builds(CallSite, i32, i32, st.none() | names, weighted(names))
prefetch_sites = st.builds(PrefetchSite, i32, names)
terminators = st.builds(
    TerminatorMeta, st.sampled_from(TerminatorKind), st.none() | names, prob, i32, i32,
    st.none() | names, i32, i32, i32, i32, weighted(names))
blocks = st.builds(BlockMeta, i32, names, i32, i32, terminators,
                   st.lists(call_sites, max_size=3), st.lists(prefetch_sites, max_size=2),
                   flags, prob)
resolved_calls = st.builds(ResolvedCall, addr, i32, st.none() | addr, weighted(addr))
resolved_terminators = st.builds(
    ResolvedTerminator, st.sampled_from([k.value for k in TerminatorKind]), addr, prob, addr,
    i32, st.none() | addr, addr, i32, addr, i32, weighted(addr))
exec_blocks = st.builds(ExecBlock, addr, i32, names, i32, resolved_terminators,
                        st.lists(resolved_calls, max_size=3).map(tuple),
                        st.lists(addr, max_size=3).map(tuple), flags)
placed_sections = st.builds(PlacedSection, names, st.sampled_from(SectionKind), addr, i32, names)
symbol_infos = st.builds(SymbolInfo, names, addr, i32, st.sampled_from(SymbolType),
                         st.sampled_from(SymbolBinding))
retained_relocations = st.builds(RetainedRelocation, addr, i32, st.sampled_from(RelocType),
                                 names, i32)

RECORDS = {
    Relocation: relocations, Symbol: symbols, BranchFixup: fixups, CallSite: call_sites,
    PrefetchSite: prefetch_sites, TerminatorMeta: terminators, BlockMeta: blocks,
    ResolvedCall: resolved_calls, ResolvedTerminator: resolved_terminators,
    ExecBlock: exec_blocks, PlacedSection: placed_sections, SymbolInfo: symbol_infos,
    RetainedRelocation: retained_relocations,
}


def tables():
    """``(record type, records)`` for any of the thirteen types."""
    return st.sampled_from(list(RECORDS)).flatmap(
        lambda record: st.tuples(st.just(record), st.lists(RECORDS[record], max_size=6)))


@st.composite
def column_dicts(draw, record):
    """``(strings, {path: column})`` for ``record``: a well-formed table
    (offsets, ids and enum positions in range) with, now and then, one
    column missing, of the wrong length, type or shape, or holding
    values that are wide, negative or not finite."""
    np = pytest.importorskip("numpy")
    layout = layout_of(record)
    lengths = {0: draw(st.integers(0, 3))}
    columns = {}
    for leaf in layout.leaves:
        n = lengths[leaf.level]
        if leaf.delimits:
            values = np.cumsum([0] + draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
            lengths[leaf.delimits] = int(values[-1])
        elif leaf.kind == "float":
            values = draw(st.lists(st.floats(), min_size=n, max_size=n))
        else:
            top = {"enum": len(leaf.members) - 1, "str": 1, "bool": 1}.get(leaf.kind, 9)
            values = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        column = np.array(values, dtype="float64" if leaf.kind == "float" else "int64")
        defect = draw(st.sampled_from([None] * 60 + [
            "missing", "short", "long", "wide", "negative", "nan", "inf", "2d", "list",
            "array", "uint64"]))
        if defect == "missing":
            continue
        if defect in ("short", "long"):
            column = column[:-1] if defect == "short" else np.append(column, column[-1:])
        elif defect in ("wide", "negative", "nan", "inf") and len(column):
            bad = {"wide": 2 ** 62, "negative": -1, "nan": float("nan"),
                   "inf": float("inf")}[defect]
            if isinstance(bad, float):
                column = column.astype("float64")
            column[draw(st.integers(0, len(column) - 1))] = bad
        elif defect == "2d":
            column = np.stack([column, column], axis=-1)
        elif defect == "list":
            column = column.tolist()
        elif defect == "array":
            code = "d" if leaf.kind == "float" else draw(st.sampled_from("bihqd"))
            column = array(code, column.astype(code).tobytes())
        elif defect == "uint64":
            column = column.astype("uint64")
        columns[leaf.path] = column
    return Strings(["f", "g"]), columns


# ----------------------------------------------------------------------
# A table is a list of records.


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_every_record_type_round_trips(record):
    @settings(max_examples=25, deadline=None)
    @given(st.lists(RECORDS[record], max_size=6))
    def check(records):
        table = Table(record, records)
        assert list(table) == records and len(table) == len(records)
        assert table == records and not table != records
        copy = pickle.loads(pickle.dumps(table))
        assert isinstance(copy, Table) and copy == table and list(copy) == records

    check()


@settings(max_examples=60, deadline=None)
@given(tables(), st.data())
def test_edits_and_slices_agree_with_a_list(drawn, data):
    record, records = drawn
    table, model = Table(record, records), list(records)
    if model:
        at = data.draw(st.integers(-len(model), len(model) - 1))
        assert table[at] == model[at]
    lo, hi, step = (data.draw(st.none() | st.integers(-8, 8)) for _ in range(3))
    if step != 0:
        assert table[lo:hi:step] == model[lo:hi:step]
        assert isinstance(table[lo:hi:step], Table)
    assert list(table) == model
    with pytest.raises(IndexError):
        table[len(table)]
    with pytest.raises(TypeError):
        table[0] = model[0] if model else None


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_records_and_from_columns_store_the_same_columns(record):
    @settings(max_examples=25, deadline=None)
    @given(st.lists(RECORDS[record], max_size=6))
    def check(records):
        by_records = Table(record, records)
        strings = by_records.strings
        by_columns = Table.from_columns(record, strings, _columns_of(record, records, strings))
        assert by_columns == by_records == records
        for path in layout_of(record).index:
            assert by_columns.col(path) == by_records.col(path)

    check()


def _columns_of(record, records, strings):
    """The ``{path: column}`` of ``records``, a column at a time, by each
    column's dotted path (names as their ids in ``strings``): the oracle
    for the one walk a table makes over its records."""
    ids, levels, columns = strings.ids(), {0: (list(records), "")}, {}
    for leaf in layout_of(record).leaves:
        items, prefix = levels[leaf.level]
        values = [_field(item, leaf.path[len(prefix):]) for item in items]
        if leaf.delimits:
            columns[leaf.path] = [0, *itertools.accumulate(map(len, values))]
            levels[leaf.delimits] = ([x for value in values for x in value], leaf.path)
        else:
            columns[leaf.path] = [
                NONE[leaf.code] if value is None else leaf.members.index(value)
                if leaf.members else ids[value] if leaf.kind == "str" else value
                for value in values]
    return columns


def _field(item, path):
    """The field of ``item`` at dotted ``path`` (a scalar is its own ``.0``)."""
    for part in filter(None, path.split(".")):
        if part.isdigit():
            item = item[int(part)] if isinstance(item, tuple) else item
        else:
            item = getattr(item, part)
    return item


@settings(max_examples=40, deadline=None)
@given(st.lists(exec_blocks, max_size=8, unique_by=lambda b: b.addr))
def test_block_at_agrees_with_a_dict(blocks_):
    exe = Executable(name="x", entry=0, exec_blocks=blocks_)
    by_addr = {b.addr: b for b in blocks_}
    assert [b.addr for b in exe.exec_blocks] == sorted(by_addr)
    for probe in list(by_addr) + [a + 1 for a in by_addr] + [0]:
        assert exe.has_block_at(probe) == (probe in by_addr)
        if probe in by_addr:
            assert exe.block_at(probe) == by_addr[probe]
        else:
            with pytest.raises(KeyError):
                exe.block_at(probe)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(blocks, max_size=4), max_size=4))
def test_concat_is_the_concatenation(groups):
    tables = [Table(BlockMeta, group) for group in groups]
    joined = Table.concat(BlockMeta, tables, *merged([t.strings for t in tables]))
    assert joined == [block for group in groups for block in group]


# ----------------------------------------------------------------------
# What only a table has.


class TestColumns:
    def test_typecodes_are_chosen_per_field(self):
        codes = {leaf.path: leaf.code for leaf in layout_of(ExecBlock).leaves}
        assert codes["addr"] == codes["term.cond_target"] == codes["calls.target"] == "q"
        assert codes["prefetch_targets.0"] == codes["term.ijmp_targets.0"] == "q"
        assert codes["size"] == codes["bb_id"] == codes["func"] == codes["calls"] == "i"
        assert codes["term.cond_prob"] == codes["term.ijmp_targets.1"] == "d"
        assert codes["is_landing_pad"] == "b"
        meta = {leaf.path: leaf.code for leaf in layout_of(BlockMeta).leaves}
        assert set(meta.values()) == {"i", "d", "b"}  # nothing 64-bit in an object file

    def test_probabilities_are_bit_exact(self):
        p = 0.1 + 0.2  # not representable in 32 bits
        table = Table(TerminatorMeta, [TerminatorMeta(TerminatorKind.CONDBR, cond_prob=p)])
        assert pickle.loads(pickle.dumps(table))[0].cond_prob.hex() == p.hex()

    @pytest.mark.parametrize("good, change, field", [
        (Relocation(4, RelocType.PC32, "f"), {"offset": 2 ** 31}, "Relocation.offset"),
        (Symbol("f", ".text", 0), {"size": 2 ** 40}, "Symbol.size"),
        (BlockMeta(0, "f", 0, 1, TerminatorMeta(TerminatorKind.RET)),
         {"term": TerminatorMeta(TerminatorKind.RET, end_instr_size=2 ** 31)},
         "BlockMeta.term.end_instr_size"),
        (BlockMeta(0, "f", 0, 1, TerminatorMeta(TerminatorKind.RET)),
         {"calls": [CallSite(0, 5, "g"), CallSite(-(2 ** 31) - 1, 5, "g")]},
         "BlockMeta.calls.offset"),
        (ExecBlock(0, 1, "f", 0, ResolvedTerminator("ret")), {"addr": 2 ** 63}, "ExecBlock.addr"),
        (BranchFixup(0, Opcode.JMP_LONG, "f"), {"opcode": "jmp"}, "BranchFixup.opcode"),
        (BranchFixup(0, Opcode.JMP_LONG, "f"), {"offset": None}, "BranchFixup.offset"),
    ])
    def test_a_value_that_does_not_fit_names_its_field(self, good, change, field):
        """Building a table from records checks each value: one ``ValueError``
        that names the field, whether the walk over the record or the
        column's range check finds it."""
        with pytest.raises(ValueError, match=field.replace(".", r"\.") + ":"):
            Table(type(good), [good, dataclasses.replace(good, **change)])
        assert list(Table(type(good), [good, good])) == [good, good]

    def test_from_columns_checks_ranges_and_lengths(self):
        np = pytest.importorskip("numpy")
        columns = {"offset": np.array([1, 2]), "rtype": np.array([0, 1]),
                   "symbol": np.array([0, 0]), "addend": np.array([0, -4])}
        table = Table.from_columns(Relocation, Strings(["f"]), columns)
        assert table == [Relocation(1, RelocType.PC8, "f"), Relocation(2, RelocType.PC32, "f", -4)]
        with pytest.raises(ValueError, match=r"Relocation\.addend: value does not fit"):
            Table.from_columns(Relocation, Strings(["f"]),
                               {**columns, "addend": np.array([0, 2 ** 31])})
        for addend in (np.array([0, 1, 2]), np.array([0])):
            with pytest.raises(ValueError, match="Relocation.*(lengths|expected)"):
                Table.from_columns(Relocation, Strings(["f"]), {**columns, "addend": addend})
        with pytest.raises(ValueError, match="addend"):
            Table.from_columns(Relocation, Strings(["f"]),
                               {k: v for k, v in columns.items() if k != "addend"})

    @pytest.mark.parametrize("record", [Relocation, BlockMeta], ids=lambda r: r.__name__)
    def test_from_columns_accepts_only_readable_tables(self, record):
        """Any column dict is a table every row of which reads back, or
        one ``ValueError`` -- never another exception, never a table
        that fails later."""
        @settings(max_examples=150, deadline=None)
        @given(column_dicts(record))
        def check(drawn):
            strings, columns = drawn
            try:
                table = Table.from_columns(record, strings, columns)
            except ValueError:
                return
            # Every row reads back and stores again (NaN != NaN: no ==).
            assert len(Table(record, list(table))) == len(table)

        check()

    @pytest.mark.parametrize("record", [Relocation, BlockMeta, ExecBlock],
                             ids=lambda r: r.__name__)
    def test_a_pickle_with_a_column_missing_extra_or_resized_does_not_load(self, record):
        """Loading checks a table's column count and lengths: a column
        dropped, added, cut short or grown is one ``ValueError`` when it
        is unpickled -- never another exception, never a table that
        fails on first read."""
        @settings(max_examples=60, deadline=None)
        @given(st.lists(RECORDS[record], min_size=1, max_size=4), st.data())
        def check(records, data):
            restore, (rec, strings, stamp, packed) = Table(record, records).__reduce__()
            packed = list(packed)
            k = data.draw(st.integers(0, len(packed) - 1))
            change = data.draw(st.sampled_from(["drop", "add", "cut", "grow"]))
            if change == "drop":
                del packed[k]
            elif change == "add":
                packed.insert(k, packed[k])
            else:
                n = data.draw(st.integers(1, 9))
                cut = change == "cut" and len(packed[k]) > 0
                packed[k] = packed[k][:-n] if cut else packed[k] + bytes(n)
            with pytest.raises(ValueError):
                restore(rec, strings, stamp, tuple(packed))

        check()

    def test_a_table_written_under_another_layout_does_not_load(self, monkeypatch):
        payload = pickle.dumps(Table(PrefetchSite, [PrefetchSite(4, "g")]))
        monkeypatch.setattr(layout_of(PrefetchSite), "stamp", 12345)
        with pytest.raises(ValueError, match="another column layout"):
            pickle.loads(payload)

    def test_reading_does_not_touch_an_empty_table(self):
        table = Table(BlockMeta)
        assert table.col("term.kind") == array("b") and table.values("func") == []
        # No table with no rows owns a column: each shares its layout's.
        assert list(table) == [] and table.data is layout_of(BlockMeta).empties
        assert pickle.loads(pickle.dumps(table)).data is table.data

    def test_tables_of_one_object_share_their_strings(self):
        from repro import ir
        from repro.codegen import CodeGenOptions, compile_module

        module = ir.Module(name="m", functions=[ir.Function(name="f", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Call(callee="f")], term=ir.Ret())])])
        obj = compile_module(module, CodeGenOptions()).obj
        tables = (obj.symbols, obj.relocations, obj.blocks, obj.fixups)
        assert {id(t.strings) for t in tables} == {id(obj.strings)}
        assert all(len(t) for t in tables[:3])


class TestContainers:
    """Object files and executables hold tables, whatever they were
    given -- a list, a table, a pickle of either."""

    def _fields(self, container):
        names = {ObjectFile: ("symbols", "relocations", "blocks", "fixups"),
                 Executable: ("sections", "symbols", "exec_blocks",
                              "retained_relocations")}[type(container)]
        return [getattr(container, name) for name in names]

    def test_constructed_from_lists(self):
        section = Section(".text.f", SectionKind.TEXT, relocations=range(1))
        obj = ObjectFile("a.o", [section], symbols=[Symbol("f", ".text.f", 0)],
                         relocations=[Relocation(1, RelocType.PC32, "g")])
        exe = Executable("a.out", 0, exec_blocks=[
            ExecBlock(16, 1, "f", 1, ResolvedTerminator("ret")),
            ExecBlock(0, 16, "f", 0, ResolvedTerminator("fallthrough"))])
        for container in (obj, exe, *pickle.loads(pickle.dumps((obj, exe)))):
            assert all(type(field) is Table for field in self._fields(container))
        assert [b.addr for b in exe.exec_blocks] == [0, 16]  # kept in address order
        copy = pickle.loads(pickle.dumps(obj))
        assert copy.sections == [section]
        assert copy.relocations.strings is copy.symbols.strings  # one pool, pickled once

    def test_a_table_is_kept_not_copied(self):
        table = Table(Relocation, [Relocation(1, RelocType.PC32, "g")])
        symbols = Table(Symbol, strings=table.strings)
        section = Section(".text.f", SectionKind.TEXT, relocations=range(1))
        assert ObjectFile("a.o", [section], symbols, relocations=table).relocations is table
        with pytest.raises(ValueError, match="expected a table of BlockMeta"):
            ObjectFile("a.o", [section], symbols, relocations=table, blocks=table)
        with pytest.raises(ValueError, match="over another string pool"):
            ObjectFile("a.o", [section], relocations=table)

    def test_derived_indexes_are_not_pickled(self):
        exe = Executable("a.out", 0, symbols=[SymbolInfo("f", 16, 1)])
        assert exe.symbol("f").addr == 16  # builds the name index
        assert b"_symbol_rows" not in pickle.dumps(exe)
        assert pickle.loads(pickle.dumps(exe)).symbol("f") == exe.symbol("f")
