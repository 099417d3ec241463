"""Columnar tables of records.

The toolchain passes five families of small records around -- a
section's blocks, branch fixups and relocations, an object file's
symbols, an executable's resolved blocks -- by the tens of thousands.
A :class:`Table` holds one family as columns: one flat ``array`` per
field, laid out from the record dataclass's own type hints and named
by the field's dotted path.

==============================  ======================================
field type                      stored as
==============================  ======================================
``int``                         32-bit column (``Annotated[int, "q"]``: 64)
``float`` / ``bool``            ``float64`` / byte column
an ``Enum``                     byte column of positions in definition order
``str``                         32-bit ids into the table's :class:`Strings`
``Optional[...]``               the same column, ``None`` as its minimum value
a dataclass ``term``            its fields' columns, ``term.kind`` ...
``List[X]`` / ``Tuple[X, ...]``   an offsets column ``calls`` (row ``i`` owns
                                items ``calls[i]:calls[i + 1]``) over the
                                item's columns, ``calls.size`` ...
``Tuple[X, Y]``                 columns ``.0`` and ``.1`` (a scalar item
                                of a ragged field is its ``.0``)
==============================  ======================================

The record types stay what callers see: a table is a mutable sequence
of them that builds a record only when asked for one (and keeps none).
Code on a measured path reads :meth:`Table.col` and appends *rows* --
a record's field values as a tuple, nested the way the record nests --
and never builds a record at all.  Appending and reading rows run as
functions generated once per record type (the way ``dataclasses``
generates ``__init__``), so neither walks the layout per row.  A table
pickles as its columns' bytes: loading one costs its size, not its
row count.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sys
import typing
import zlib
from array import array
from collections.abc import MutableSequence
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: What an ``Optional`` column of each integer typecode stores for ``None``.
NONE = {code: -(1 << (8 * array(code).itemsize - 1)) for code in "bihq"}


class Strings:
    """The strings of one object file or executable, interned: id <-> str."""

    __slots__ = ("names", "_ids")

    def __init__(self, names: Iterable[str] = ()):
        self.names = list(names)
        self._ids: Optional[Dict[str, int]] = None

    def ids(self) -> Dict[str, int]:
        """``str -> id``, built on first use (a table only read never needs it)."""
        if self._ids is None:
            self._ids = {name: i for i, name in enumerate(self.names)}
        return self._ids

    def intern(self, name: str) -> int:
        ids = self.ids()
        i = ids.get(name)
        if i is None:
            i = ids[name] = len(self.names)
            self.names.append(name)
        return i

    def __reduce__(self):
        return Strings, (self.names,)


@dataclasses.dataclass
class _Leaf:
    """One column: ``kind`` is int / float / bool / enum / str / offsets;
    ``level`` 0 has a value per row, a deeper level one per item of the
    ragged field whose offsets column ``delimits`` it."""

    path: str
    code: str
    level: int
    kind: str
    optional: bool = False
    members: tuple = ()
    delimits: int = 0


class _Layout:
    """The columns of one record type, and the functions that append
    and read its rows, generated from the same walk of its fields."""

    def __init__(self, record: type):
        self.record = record
        self.leaves: List[_Leaf] = []
        self._consts: Dict[str, Any] = {}
        self._vars = self._levels = 0
        tree = self._node(record, "", 0)
        self.index = {leaf.path: k for k, leaf in enumerate(self.leaves)}
        #: The level-0 column a row reaches last: its length (less the leading
        #: 0 of an offsets column) is the row count even after an append
        #: failed part-way.
        self.tail = max(k for k, leaf in enumerate(self.leaves) if leaf.level == 0)
        self.tail_extra = bool(self.leaves[self.tail].delimits)
        signature = ",".join(
            f"{leaf.path}:{leaf.code}{leaf.level}{leaf.kind}{'?' * leaf.optional}"
            f"{'|'.join(m.name for m in leaf.members)}" for leaf in self.leaves)
        #: What a pickled table carries to name the layout it was written
        #: with (columns pickle as native-order bytes: the order is part of it).
        self.stamp = zlib.crc32(f"{sys.byteorder}:{signature}".encode())
        self._compile(tree)

    # -- the walk over the record's type hints --------------------------

    def _leaf(self, path: str, code: str, level: int, kind: str, **more) -> int:
        self.leaves.append(_Leaf(path, code, level, kind, **more))
        return len(self.leaves) - 1

    def _node(self, hint, path: str, level: int):
        """``hint`` as a tree of ``("leaf", column)``, ``("struct", make,
        [(name, node)], path)`` and ``("ragged", offsets column, item node, wrap)``."""
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        optional = origin is typing.Union and len(args) == 2 and type(None) in args
        if optional:
            hint = args[0] if args[1] is type(None) else args[1]
            origin, args = typing.get_origin(hint), typing.get_args(hint)
        code = "i"
        if origin is typing.Annotated:
            (hint, code), origin = args, None
        if origin in (list, tuple) and (origin is list or args[1:] == (Ellipsis,)):
            self._levels += 1  # numbered in column order, like their offsets columns
            k = self._leaf(path, "i", level, "offsets", delimits=self._levels)
            item = self._node(args[0], path, self._levels)
            if item[0] == "leaf":  # a scalar item is its own first component
                self.leaves[item[1]].path = f"{path}.0"
            return "ragged", k, item, origin
        dotted = f"{path}." if path else ""
        if origin is tuple:
            return "struct", None, [(str(j), self._node(arg, f"{dotted}{j}", level))
                                    for j, arg in enumerate(args)], path
        if dataclasses.is_dataclass(hint):
            hints = typing.get_type_hints(hint, include_extras=True)
            return "struct", hint, [(f.name, self._node(hints[f.name], f"{dotted}{f.name}", level))
                                    for f in dataclasses.fields(hint)], path
        if isinstance(hint, type) and issubclass(hint, enum.Enum):
            return "leaf", self._leaf(path, "b", level, "enum", optional=optional,
                                      members=tuple(hint))
        kinds = {int: ("int", code), float: ("float", "d"), bool: ("bool", "b"), str: ("str", "i")}
        if hint not in kinds:
            raise TypeError(f"{self.record.__name__}.{path}: no column for type {hint!r}")
        kind, code = kinds[hint]
        return "leaf", self._leaf(path, code, level, kind, optional=optional)

    # -- generated row functions ----------------------------------------

    def _var(self) -> str:
        self._vars += 1
        return f"v{self._vars}"

    def _put(self, node, src: str, lines: List[Tuple[str, str]], pad: str, attrs: bool) -> None:
        """Statements storing ``src`` (a row, or with ``attrs`` a record),
        each paired with the path to blame should it raise."""
        if node[0] == "leaf":
            k = node[1]
            leaf = self.leaves[k]
            value = src
            if leaf.kind == "enum":
                # Keyed by value: hashing an Enum member runs Python code.
                self._consts[f"E{k}"] = {member._value_: i for i, member in enumerate(leaf.members)}
                value = f"E{k}[{src}._value_]"
            elif leaf.kind == "str":
                value = f"(ids[{src}] if {src} in ids else intern({src}))"
            if leaf.optional:
                value = f"({NONE[leaf.code]} if {src} is None else {value})"
            lines.append((f"{pad}a{k}({value})", leaf.path))
        elif node[0] == "struct":
            _, make, fields, path = node
            names = [self._var() for _ in fields]
            if attrs and make is not None:
                lines += [(f"{pad}{var} = {src}.{name}", path)
                          for var, (name, _) in zip(names, fields)]
            else:
                lines.append((f"{pad}({', '.join(names)},) = {src}", path))
            for var, (_, child) in zip(names, fields):
                self._put(child, var, lines, pad, attrs)
        else:
            _, k, item, _ = node
            var = self._var()
            lines.append((f"{pad}for {var} in {src}:", self.leaves[k].path))
            self._put(item, var, lines, pad + "    ", attrs)
            lines.append((f"{pad}a{k}(c{k}[-1] + len({src}))", self.leaves[k].path))

    def _get(self, node, i: str) -> str:
        """The expression that rebuilds what ``node`` stored at index ``i``."""
        if node[0] == "leaf":
            k = node[1]
            leaf = self.leaves[k]
            value = f"c{k}[{i}]"
            if leaf.kind == "enum":
                self._consts[f"M{k}"] = leaf.members
                value = f"M{k}[{value}]"
            elif leaf.kind == "str":
                value = f"names[{value}]"
            elif leaf.kind == "bool":
                value = f"({value} != 0)"
            if leaf.optional:
                value = f"(None if c{k}[{i}] == {NONE[leaf.code]} else {value})"
            return value
        if node[0] == "struct":
            _, make, fields, _ = node
            inner = ", ".join(self._get(child, i) for _, child in fields)
            if make is None:
                return f"({inner},)"
            self._consts[f"R_{make.__name__}"] = make
            return f"R_{make.__name__}({inner})"
        _, k, item, wrap = node
        j = self._var()
        items = f"[{self._get(item, j)} for {j} in range(c{k}[{i}], c{k}[{i} + 1])]"
        return items if wrap is list else f"(tuple({items}) if c{k}[{i}] != c{k}[{i} + 1] else ())"

    def _compile(self, tree) -> None:
        columns = [f"    c{k} = data[{k}]" for k in range(len(self.leaves))]
        source = ["def writers(data, strings):",
                  "    ids, intern = strings.ids(), strings.intern", *columns,
                  *[f"    a{k} = c{k}.append" for k in range(len(self.leaves))]]
        #: Line of the generated source -> the column path stored there.
        self.blame: Dict[int, str] = {}
        for name, attrs in (("put_row", False), ("put_record", True)):
            lines: List[Tuple[str, str]] = []
            self._put(tree, "row", lines, "        ", attrs)
            source.append(f"    def {name}(row):")
            for text, path in lines:
                source.append(text)
                self.blame[len(source)] = path
        source += ["    return put_row, put_record",
                   "def reader(data, strings):", "    names = strings.names", *columns,
                   f"    return lambda i: {self._get(tree, 'i')}"]
        namespace = dict(self._consts)
        exec(compile("\n".join(source), f"<table of {self.record.__name__}>", "exec"), namespace)
        #: ``writers(data, strings) -> (put_row, put_record)`` and ``reader(data,
        #: strings) -> get``, each bound to one table's columns.
        self.writers, self.reader = namespace["writers"], namespace["reader"]

    # -- whole-column operations ----------------------------------------

    def empty_column(self, k: int) -> array:
        return array(self.leaves[k].code, [0] if self.leaves[k].delimits else [])

    def empty(self) -> list:
        return [self.empty_column(k) for k in range(len(self.leaves))]

    def cut(self, data: list, rows: int) -> None:
        """Truncate every column to what ``rows`` rows own."""
        lengths = [rows]  # values per level
        for leaf, column in zip(self.leaves, data):
            n = lengths[leaf.level] + bool(leaf.delimits)
            if len(column) < n:
                raise ValueError(f"{self.record.__name__}.{leaf.path}: {len(column)} "
                                 f"values, expected {n}")
            if leaf.delimits:
                lengths.append(column[n - 1])
            del column[n:]

    def adopt(self, leaf: _Leaf, values) -> array:
        """``values`` (an ``array`` or an ndarray) as ``leaf``'s column, range-checked."""
        if isinstance(values, array) and values.typecode == leaf.code:
            return values
        if leaf.code != "d" and len(values):
            bits = 8 * array(leaf.code).itemsize - 1
            if int(values.min()) < -(1 << bits) or int(values.max()) >= 1 << bits:
                raise ValueError(f"{self.record.__name__}.{leaf.path}: "
                                 f"value does not fit its {bits + 1}-bit column")
        return array(leaf.code, values.astype(leaf.code).tobytes())

    def concat(self, datas: Sequence[list], remaps: Sequence[List[int]]) -> list:
        out = self.empty()
        for k, leaf in enumerate(self.leaves):
            column = out[k]
            for data, remap in zip(datas, remaps):
                if leaf.delimits:
                    base = column[-1]
                    column.extend([base + o for o in data[k][1:]])
                elif leaf.kind == "str":  # ids of the merged pool; None stays None
                    column.extend([remap[i] if i >= 0 else i for i in data[k]])
                else:
                    column.extend(data[k])
        return out


layout_of = functools.lru_cache(maxsize=None)(_Layout)

#: What a bad value raises inside a generated row function.
_ROW_ERRORS = (OverflowError, TypeError, KeyError, ValueError, AttributeError)


class Table(MutableSequence):
    """A sequence of ``record`` instances, stored as columns.

    ``strings`` is the pool its ``str`` fields are interned in; tables
    given the same pool (all of one object file's) share ids.  ``data``
    is ``None`` while the table is empty, else one ``array`` per column.
    """

    __slots__ = ("record", "strings", "data", "_put", "_get")

    def __init__(self, record: type, records: Iterable[Any] = (),
                 strings: Optional[Strings] = None, data: Optional[list] = None):
        self.record = record
        self.strings = strings if strings is not None else Strings()
        self.data = data
        self._put = self._get = None
        for item in records:
            self.append(item)

    @classmethod
    def of(cls, record: type, value: Any) -> "Table":
        """``value`` itself when it is already a table of ``record``,
        else a new table of its records."""
        if not isinstance(value, Table):
            return cls(record, value)
        if value.record is not record:
            raise ValueError(f"expected a table of {record.__name__}, "
                             f"got one of {value.record.__name__}")
        # Whoever filled it is done: the bound writers (a few KB of closures
        # per table) are rebuilt if anyone appends again.
        value._put = None
        return value

    @classmethod
    def from_columns(cls, record: type, strings: Strings, columns: Dict[str, Any]) -> "Table":
        """A table over ready-made columns, ``{path: array or ndarray}``.
        Integer columns are range-checked, never wrapped."""
        layout = layout_of(record)
        if set(columns) != set(layout.index):
            raise ValueError(f"{record.__name__}: columns {sorted(set(columns) ^ set(layout.index))} "
                             "missing or unknown")
        data = [layout.adopt(leaf, columns[leaf.path]) for leaf in layout.leaves]
        sizes = [len(column) for column in data]
        layout.cut(data, sizes[layout.tail] - layout.tail_extra)
        if sizes != [len(column) for column in data]:
            raise ValueError(f"{record.__name__}: columns of different lengths {sizes}")
        return cls(record, strings=strings, data=data)

    @classmethod
    def concat(cls, record: type, tables: Sequence["Table"]) -> "Table":
        """The rows of ``tables``, in order, in one table with one pool."""
        strings = Strings()
        full = [t for t in tables if len(t)]
        if not full:
            return cls(record, strings=strings)
        remaps = {id(t.strings): t.strings for t in full}  # pool -> its ids in the merged pool
        remaps = {key: [strings.intern(name) for name in pool.names]
                  for key, pool in remaps.items()}
        return cls(record, strings=strings, data=layout_of(record).concat(
            [t.data for t in full], [remaps[id(t.strings)] for t in full]))

    # -- columns and rows ----------------------------------------------

    def col(self, path: str) -> array:
        """The column stored for ``path`` (``"offset"``, ``"term.kind"``,
        ``"calls"`` for that field's offsets, ``"calls.size"`` ...): enums
        as their position in definition order, strings as pool ids."""
        layout = layout_of(self.record)
        k = layout.index[path]
        return layout.empty_column(k) if self.data is None else self.data[k]

    def values(self, path: str) -> list:
        """Column ``path`` decoded: what the records' fields would hold."""
        layout = layout_of(self.record)
        leaf, column = layout.leaves[layout.index[path]], self.col(path)
        decode = {"enum": leaf.members.__getitem__, "str": self.strings.names.__getitem__,
                  "bool": bool}.get(leaf.kind)
        if leaf.optional:
            none = NONE[leaf.code]
            return [None if v == none else decode(v) if decode else v for v in column]
        return list(map(decode, column)) if decode else column.tolist()

    def _writers(self):
        """``(put_row, put_record)`` bound to this table's columns."""
        layout = layout_of(self.record)
        if self.data is None:
            self.data = layout.empty()
        self._put = layout.writers(self.data, self.strings)
        return self._put

    def _fail(self, exc: Exception, put, item) -> None:
        """Undo the part of a row that was stored and name the field that was not."""
        layout = layout_of(self.record)
        layout.cut(self.data, len(self))
        tb = exc.__traceback__
        while tb.tb_next is not None and tb.tb_frame.f_code is not put.__code__:
            tb = tb.tb_next
        raise ValueError(f"{self.record.__name__}.{layout.blame.get(tb.tb_lineno) or 'row'}: "
                         f"cannot store a field of {item!r} ({exc})") from exc

    def append_row(self, row: tuple) -> None:
        """Append one record given as its field values, in field order
        (a nested record as its own row, a ragged field as a sequence)."""
        put = (self._put or self._writers())[0]
        try:
            put(row)
        except _ROW_ERRORS as exc:
            self._fail(exc, put, row)

    def append(self, item: Any) -> None:
        put = (self._put or self._writers())[1]
        try:
            put(item)
        except _ROW_ERRORS as exc:
            self._fail(exc, put, item)

    def _reader(self):
        """``get(i)``: row ``i`` as a record, bound to this table's columns."""
        self._get = layout_of(self.record).reader(self.data, self.strings)
        return self._get

    # -- the sequence protocol -----------------------------------------

    def __len__(self) -> int:
        if self.data is None:
            return 0
        layout = layout_of(self.record)
        return len(self.data[layout.tail]) - layout.tail_extra

    def __iter__(self):
        return map(self._get or self._reader(), range(len(self))) if self.data else iter(())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Table(self.record, [self[i] for i in range(*index.indices(len(self)))],
                         self.strings)
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("table index out of range")
        return (self._get or self._reader())(index)

    def _edited(self, edit) -> None:
        # Rows are not addressable in a ragged layout: edit a list, re-encode.
        records = list(self)
        edit(records)
        self.data = self._put = self._get = None
        for item in records:
            self.append(item)

    def __setitem__(self, index, value) -> None:
        self._edited(lambda records: records.__setitem__(index, value))

    def __delitem__(self, index) -> None:
        self._edited(lambda records: records.__delitem__(index))

    def insert(self, index: int, value) -> None:
        self._edited(lambda records: records.insert(index, value))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Table, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Table({self.record.__name__}, {len(self)} rows)"

    def __reduce__(self):
        packed = tuple([column.tobytes() for column in self.data]) if len(self) else None
        return _restore, (self.record, self.strings, layout_of(self.record).stamp, packed)


def _restore(record: type, strings: Strings, stamp: int, packed) -> Table:
    layout = layout_of(record)
    if stamp != layout.stamp:
        raise ValueError(f"{record.__name__} table written under another column layout")
    data = packed and [array(leaf.code, raw) for leaf, raw in zip(layout.leaves, packed)]
    return Table(record, strings=strings, data=data)
