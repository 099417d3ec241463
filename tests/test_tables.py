"""The generic record table (``repro.elf.table``): for each of the ten
record types it is a list of those records that happens to be stored in
columns -- round trip, pickle, edits and slices all agree with a plain
list -- plus the properties only a table has (named overflow, layout
stamp, bulk columns)."""

import dataclasses
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
    PrefetchSite,
    Relocation,
    RelocType,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolType,
    TerminatorKind,
    TerminatorMeta,
)
from repro.elf.executable import ResolvedCall, ResolvedTerminator
from repro.elf.table import Strings, Table, layout_of
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

RECORDS = {
    Relocation: relocations, Symbol: symbols, BranchFixup: fixups, CallSite: call_sites,
    PrefetchSite: prefetch_sites, TerminatorMeta: terminators, BlockMeta: blocks,
    ResolvedCall: resolved_calls, ResolvedTerminator: resolved_terminators,
    ExecBlock: exec_blocks,
}


def tables():
    """``(record type, records)`` for any of the ten types."""
    return st.sampled_from(list(RECORDS)).flatmap(
        lambda record: st.tuples(st.just(record), st.lists(RECORDS[record], max_size=6)))


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
    extra = data.draw(st.lists(RECORDS[record], max_size=3))
    for item in extra:
        table.append(item)
        model.append(item)
    table += extra
    model += extra
    if model:
        at = data.draw(st.integers(-len(model), len(model) - 1))
        new = data.draw(RECORDS[record])
        table[at] = new
        model[at] = new
        assert table[at] == model[at] == new
    lo, hi, step = (data.draw(st.none() | st.integers(-8, 8)) for _ in range(3))
    if step != 0:
        assert table[lo:hi:step] == model[lo:hi:step]
        assert isinstance(table[lo:hi:step], Table)
    assert list(table) == model
    if model:
        del table[0]
        assert list(table) == model[1:]
    with pytest.raises(IndexError):
        table[len(table)]


@settings(max_examples=40, deadline=None)
@given(tables())
def test_rows_and_records_store_the_same_columns(drawn):
    record, records = drawn
    by_row, by_record = Table(record), Table(record)
    layout = layout_of(record)
    for item in records:
        by_record.append(item)
        by_row.append_row(_row_of(item))
    assert by_row == by_record == records
    for path in layout.index:
        if by_row.strings.names == by_record.strings.names:
            assert by_row.col(path) == by_record.col(path)


def _row_of(item):
    """A record as the nested tuple ``append_row`` takes."""
    if dataclasses.is_dataclass(item):
        return tuple(_row_of(getattr(item, f.name)) for f in dataclasses.fields(item))
    if isinstance(item, (list, tuple)):
        return [_row_of(x) if dataclasses.is_dataclass(x) else x for x in item]
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
    merged = Table.concat(BlockMeta, [Table(BlockMeta, group) for group in groups])
    assert merged == [block for group in groups for block in group]


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
    def test_a_value_that_does_not_fit_names_its_field_and_stores_nothing(
            self, good, change, field):
        table = Table(type(good), [good])
        before = [column.tobytes() for column in table.data]
        with pytest.raises(ValueError, match=field.replace(".", r"\.")):
            table.append(dataclasses.replace(good, **change))
        # No column kept a part of the row.
        assert [column.tobytes() for column in table.data] == before
        table.append(good)
        assert list(table) == [good, good]

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

    def test_a_table_written_under_another_layout_does_not_load(self, monkeypatch):
        payload = pickle.dumps(Table(PrefetchSite, [PrefetchSite(4, "g")]))
        monkeypatch.setattr(layout_of(PrefetchSite), "stamp", 12345)
        with pytest.raises(ValueError, match="another column layout"):
            pickle.loads(payload)

    def test_reading_does_not_touch_an_empty_table(self):
        table = Table(BlockMeta)
        assert table.col("term.kind") == array("b") and table.values("func") == []
        assert list(table) == [] and table.data is None

    def test_tables_of_one_object_share_their_strings(self):
        from repro import ir
        from repro.codegen import CodeGenOptions, compile_module

        module = ir.Module(name="m", functions=[ir.Function(name="f", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Call(callee="f")], term=ir.Ret())])])
        obj = compile_module(module, CodeGenOptions()).obj
        pools = {id(t.strings) for s in obj.sections
                 for t in (s.blocks, s.relocations, s.branch_fixups) if len(t)}
        assert pools == {id(obj.symbols.strings)}


class TestContainers:
    """Sections, object files and executables hold tables, whatever they
    were given -- a list, a table, a pickle of either."""

    def _fields(self, container):
        names = {Section: ("relocations", "blocks", "branch_fixups"), ObjectFile: ("symbols",),
                 Executable: ("exec_blocks",)}[type(container)]
        return [getattr(container, name) for name in names]

    def test_constructed_from_lists(self):
        section = Section(".text.f", SectionKind.TEXT, relocations=[
            Relocation(1, RelocType.PC32, "g")])
        obj = ObjectFile("a.o", [section], symbols=[Symbol("f", ".text.f", 0)])
        exe = Executable("a.out", 0, exec_blocks=[
            ExecBlock(16, 1, "f", 1, ResolvedTerminator("ret")),
            ExecBlock(0, 16, "f", 0, ResolvedTerminator("fallthrough"))])
        for container in (section, obj, exe, *pickle.loads(pickle.dumps((section, obj, exe)))):
            assert all(type(field) is Table for field in self._fields(container))
        assert [b.addr for b in exe.exec_blocks] == [0, 16]  # kept in address order
        assert pickle.loads(pickle.dumps(obj)).section(".text.f") == section

    def test_a_table_is_kept_not_copied(self):
        table = Table(Relocation, [Relocation(1, RelocType.PC32, "g")])
        assert Section(".text.f", SectionKind.TEXT, relocations=table).relocations is table
        with pytest.raises(ValueError, match="expected a table of BlockMeta"):
            Section(".text.f", SectionKind.TEXT, blocks=table)

    def test_derived_indexes_are_not_pickled(self):
        obj = ObjectFile("a.o", [Section(".text.f", SectionKind.TEXT)])
        assert b"_by_name" not in pickle.dumps(obj)
        assert pickle.loads(pickle.dumps(obj)).find_section(".text.f") is not None
