"""Columnar tables of records.

The toolchain passes eight families of small records around -- an
object file's symbols, relocations, blocks and branch fixups, an
executable's placed sections, symbols, resolved blocks and retained
relocations -- by the tens of thousands.
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

The record types stay what callers see: a table is a sequence of them,
built once and never grown, that builds a record only when asked for
one (and keeps none).  Code on a measured path gathers columns itself
for :meth:`Table.from_columns`, reads :meth:`Table.col`, and never
builds a record at all; ``Table(record, records)`` walks the records'
fields once into the same columns and checks.  Reading a row runs as a
function generated once per record type (the way ``dataclasses``
generates ``__init__``).  A table pickles as its columns' bytes: loading
one costs its size, not its row count.  Tables stack (:meth:`Table.concat`)
and give up rows (:meth:`Table.take`, which a slice is) a column at a time.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import itertools
import sys
import typing
import zlib
from array import array
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
        ids = self._ids if self._ids is not None else self.ids()
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
    """The columns of one record type, the walk that fills them from
    records, and the generated function that reads a row back."""

    def __init__(self, record: type):
        self.record = record
        self.leaves: List[_Leaf] = []
        self._consts: Dict[str, Any] = {}
        self._vars = self._levels = 0
        #: The fields as a tree (see :meth:`_node`), walked by :meth:`gather`.
        self.tree = self._node(record, "", 0)
        self.index = {leaf.path: k for k, leaf in enumerate(self.leaves)}
        #: A level-0 column: as long as the row count (plus an offsets column's 0).
        self.tail = max(k for k, leaf in enumerate(self.leaves) if leaf.level == 0)
        self.tail_extra = bool(self.leaves[self.tail].delimits)
        signature = ",".join(
            f"{leaf.path}:{leaf.code}{leaf.level}{leaf.kind}{'?' * leaf.optional}"
            f"{'|'.join(m.name for m in leaf.members)}" for leaf in self.leaves)
        #: What a pickled table carries to name the layout it was written
        #: with (columns pickle as native-order bytes: the order is part of it).
        self.stamp = zlib.crc32(f"{sys.byteorder}:{signature}".encode())
        self._compile()
        #: An enum column's positions, keyed by value: hashing a member runs Python code.
        self.positions = [{m._value_: i for i, m in enumerate(leaf.members)}
                          for leaf in self.leaves]
        #: The columns of every table with no rows: shared, never written.
        self.empties = [array(leaf.code, [0] if leaf.delimits else []) for leaf in self.leaves]

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

    # -- records in, a record out ---------------------------------------

    def gather(self, records: Iterable[Any], strings: Strings) -> Optional[Dict[str, list]]:
        """``{path: list}`` of ``records`` (``None`` for none), from one walk
        over each record's fields in field order: names are interned in
        ``strings`` row by row.  A value no column can hold is a
        ``ValueError`` naming its field (a number out of range is
        :meth:`adopt`'s to find)."""
        columns = [[0] if leaf.delimits else [] for leaf in self.leaves]
        n = 0
        for n, record in enumerate(records, 1):
            self._put(self.tree, record, columns, strings.intern)
        return dict(zip(self.index, columns)) if n else None

    def _put(self, node, value, columns: list, intern) -> None:
        """Append ``value``, the part of a record at ``node``, to its columns."""
        try:
            if node[0] == "leaf":
                k = node[1]
                leaf = self.leaves[k]
                if value is None and leaf.optional:
                    value = NONE[leaf.code]
                elif leaf.kind == "enum":
                    value = self.positions[k][value._value_]
                elif leaf.kind == "str":
                    value = intern(value)
                columns[k].append(value)
            elif node[0] == "struct":
                fields = node[2]
                parts = [getattr(value, f) for f, _ in fields] if node[1] else tuple(value)
                if len(parts) != len(fields):
                    raise TypeError(f"{len(parts)} values for {len(fields)} fields")
                for (_, child), part in zip(fields, parts):
                    self._put(child, part, columns, intern)
            else:
                parts = list(value)
                for part in parts:
                    self._put(node[2], part, columns, intern)
                columns[node[1]].append(columns[node[1]][-1] + len(parts))
        except (AttributeError, KeyError, TypeError) as exc:  # a ValueError is named
            path = node[3] if node[0] == "struct" else self.leaves[node[1]].path
            raise ValueError(f"{self.record.__name__}{'.' * bool(path)}{path}: "
                             f"cannot store {value!r} ({exc})") from exc

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
        self._vars += 1
        j = f"v{self._vars}"
        items = f"[{self._get(item, j)} for {j} in range(c{k}[{i}], c{k}[{i} + 1])]"
        return items if wrap is list else f"(tuple({items}) if c{k}[{i}] != c{k}[{i} + 1] else ())"

    def _compile(self) -> None:
        columns = [f"    c{k} = data[{k}]" for k in range(len(self.leaves))]
        source = ["def reader(data, strings):", "    names = strings.names", *columns,
                  f"    return lambda i: {self._get(self.tree, 'i')}"]
        namespace = dict(self._consts)
        exec(compile("\n".join(source), f"<table of {self.record.__name__}>", "exec"), namespace)
        #: ``reader(data, strings) -> get``, bound to one table's columns.
        self.reader = namespace["reader"]

    # -- whole-column operations ----------------------------------------

    def check_lengths(self, data: list) -> None:
        """Raise ``ValueError`` unless each column of ``data`` is as long as
        the row count and the offsets columns say.  Lengths only: no value
        is scanned but the last of each offsets column."""
        lengths = [len(data[self.tail]) - self.tail_extra]  # values per level
        for leaf, column in zip(self.leaves, data):
            n = lengths[leaf.level] + bool(leaf.delimits)
            if len(column) != n:
                raise ValueError(f"{self.record.__name__}.{leaf.path}: {len(column)} values, "
                                 f"expected {n}")
            if leaf.delimits:
                lengths.append(column[-1])

    def adopt(self, leaf: _Leaf, values) -> array:
        """``values`` (a flat sequence of numbers: an ``array``, an ndarray,
        a list) as ``leaf``'s column, range-checked."""
        if isinstance(values, array) and values.typecode == leaf.code:
            return values
        if isinstance(values, (list, tuple)):  # Python numbers: ``array`` checks their range
            try:
                return array(leaf.code, values)
            except (OverflowError, TypeError):
                pass  # to the checks below, which name the field
        import numpy as np

        name = f"{self.record.__name__}.{leaf.path}"
        values = np.asarray(values)
        kinds = "biuf" if leaf.code == "d" else "biu"
        if values.ndim != 1 or (len(values) and values.dtype.kind not in kinds):
            raise ValueError(f"{name}: expected a flat column of "
                             f"{'numbers' if leaf.code == 'd' else 'integers'}, "
                             f"got {values.dtype} of shape {values.shape}")
        if leaf.code != "d" and len(values):
            bits = 8 * array(leaf.code).itemsize - 1
            if int(values.min()) < -(1 << bits) or int(values.max()) >= 1 << bits:
                raise ValueError(f"{name}: value does not fit its {bits + 1}-bit column")
        return array(leaf.code, values.astype(leaf.code).tobytes())

    def check(self, data: list, strings: Strings) -> None:
        """Raise ``ValueError`` unless every row of ``data`` reads back:
        enum positions and string ids name a member or pool entry (or
        ``None``), offsets start at 0 and never decrease."""
        import numpy as np

        for leaf, column in zip(self.leaves, data):
            if leaf.kind not in ("enum", "str", "offsets") or not len(column):
                continue
            values = np.frombuffer(column, dtype=column.typecode)
            if leaf.delimits:
                ok = values[0] == 0 and bool((np.diff(values) >= 0).all())
            else:
                limit = len(leaf.members) if leaf.kind == "enum" else len(strings.names)
                valid = (values >= 0) & (values < limit)
                if leaf.optional:
                    valid |= values == NONE[leaf.code]
                ok = bool(valid.all())
            if not ok:
                what = "offsets must start at 0 and never decrease" if leaf.delimits \
                    else f"{leaf.kind} id out of range"
                raise ValueError(f"{self.record.__name__}.{leaf.path}: {what}")

    def concat(self, datas: Sequence[list], remaps: Sequence[Any]) -> list:
        """The columns of ``datas`` laid end to end: offsets rebased, string
        ids mapped through each one's ``remaps`` array (``None`` stays)."""
        import numpy as np

        out = []
        for k, leaf in enumerate(self.leaves):
            parts = [np.frombuffer(data[k], dtype=leaf.code) for data in datas]
            if leaf.delimits:  # each part's items follow the items before it
                bases = np.cumsum([0, *(part[-1] for part in parts)])
                parts = [np.zeros(1, dtype=np.int64),
                         *(part[1:] + base for part, base in zip(parts, bases))]
            elif leaf.kind == "str":
                parts = [np.where(part >= 0, remap[np.maximum(part, 0)], part) if len(remap)
                         else part for part, remap in zip(parts, remaps)]
            out.append(array(leaf.code, np.concatenate([np.zeros(0, dtype=leaf.code), *parts]
                                                       ).astype(leaf.code).tobytes()))
        return out

    def take(self, data: list, rows) -> list:
        """The columns of rows ``rows`` (an index array) of ``data``, in that
        order: a ragged field's items go with their row."""
        import numpy as np

        index = {0: np.asarray(rows, dtype=np.int64)}  # level -> values taken, in order
        out = []
        for leaf, column in zip(self.leaves, data):
            values, i = np.frombuffer(column, dtype=leaf.code), index[leaf.level]
            if leaf.delimits:
                start, count = values[i], values[i + 1] - values[i]
                index[leaf.delimits] = np.repeat(start, count) + run_index(count)
                values = np.concatenate([[0], np.cumsum(count)])
            else:
                values = values[i]
            out.append(array(leaf.code, values.astype(leaf.code).tobytes()))
        return out


layout_of = functools.lru_cache(maxsize=None)(_Layout)


def merged(pools: Sequence[Strings]) -> Tuple[Strings, list]:
    """One pool of every name in ``pools``, and each pool's ids in it (an
    int64 array per pool, computed once per distinct pool)."""
    import numpy as np

    strings, remaps = Strings(), {}
    for pool in pools:
        if id(pool) not in remaps:
            remaps[id(pool)] = np.array([strings.intern(name) for name in pool.names],
                                        dtype=np.int64)
    return strings, [remaps[id(pool)] for pool in pools]


def run_index(counts):
    """Each item's index within its run, for runs of ``counts`` laid end to end."""
    import numpy as np

    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if len(ends) else 0) - np.repeat(ends - counts, counts)


def rows_of(ranges: Sequence[range]):
    """The rows of ``ranges`` laid end to end, as an int64 index array."""
    import numpy as np

    return np.fromiter(itertools.chain.from_iterable(ranges), np.int64)


class Table(collections.abc.Sequence):
    """A sequence of ``record`` instances, stored as columns.

    ``strings`` is the pool its ``str`` fields are interned in; tables
    given the same pool (all of one object file's) share ids.  ``data``
    is one ``array`` per column (a table with no rows shares its
    layout's, never written).  ``records`` are walked into columns that
    :meth:`from_columns` stores.
    """

    __slots__ = ("record", "strings", "data", "_get")

    def __init__(self, record: type, records: Iterable[Any] = (),
                 strings: Optional[Strings] = None, data: Optional[list] = None):
        self.record = record
        self.strings = strings if strings is not None else Strings()
        self.data = data if data is not None else layout_of(record).empties
        self._get = None
        columns = None if data is not None else layout_of(record).gather(records, self.strings)
        if columns is not None:
            self.data = self.from_columns(record, self.strings, columns).data

    @classmethod
    def of(cls, record: type, value: Any, strings: Optional[Strings] = None) -> "Table":
        """``value`` itself when it is already a table of ``record`` (over
        ``strings``, when given), else a new table of its records."""
        if not isinstance(value, Table):
            return cls(record, value, strings)
        if value.record is not record:
            raise ValueError(f"expected a table of {record.__name__}, "
                             f"got one of {value.record.__name__}")
        if strings is not None and value.strings is not strings:
            raise ValueError(f"a table of {record.__name__} over another string pool")
        return value

    @classmethod
    def from_columns(cls, record: type, strings: Strings, columns: Dict[str, Any]) -> "Table":
        """A table over ready-made columns, ``{path: array or ndarray}``.
        Integer columns are range-checked, never wrapped, and the table
        is one every row of which reads back; anything else is a
        ``ValueError``."""
        layout = layout_of(record)
        if set(columns) != set(layout.index):
            raise ValueError(f"{record.__name__}: columns {sorted(set(columns) ^ set(layout.index))} "
                             "missing or unknown")
        data = [layout.adopt(leaf, columns[leaf.path]) for leaf in layout.leaves]
        layout.check_lengths(data)
        layout.check(data, strings)
        return cls(record, strings=strings, data=data)

    @classmethod
    def concat(cls, record: type, tables: Sequence["Table"], strings: Strings,
               remaps: list) -> "Table":
        """The rows of ``tables``, in order, in one table over ``strings``,
        where ``remaps[i]`` holds the ids of ``tables[i]``'s pool there
        (see :func:`merged`)."""
        return cls(record, strings=strings,
                   data=layout_of(record).concat([t.data for t in tables], remaps))

    # -- columns and rows ----------------------------------------------

    def col(self, path: str) -> array:
        """The column stored for ``path`` (``"offset"``, ``"term.kind"``,
        ``"calls"`` for that field's offsets, ``"calls.size"`` ...): enums
        as their position in definition order, strings as pool ids."""
        return self.data[layout_of(self.record).index[path]]

    def ints(self, path: str):
        """Column ``path`` as an int64 ndarray (a copy)."""
        import numpy as np

        column = self.col(path)
        return np.frombuffer(column, dtype=column.typecode).astype(np.int64)

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

    def take(self, rows) -> "Table":
        """Rows ``rows`` (an index array) of this table, in that order, over
        the same pool."""
        return Table(self.record, strings=self.strings,
                     data=layout_of(self.record).take(self.data, rows))

    def _reader(self):
        """``get(i)``: row ``i`` as a record, bound to this table's columns."""
        self._get = layout_of(self.record).reader(self.data, self.strings)
        return self._get

    # -- the sequence protocol -----------------------------------------

    def __len__(self) -> int:
        layout = layout_of(self.record)
        return len(self.data[layout.tail]) - layout.tail_extra

    def __iter__(self):
        return map(self._get or self._reader(), range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, range):  # a section's rows
            index = slice(index.start, index.stop, index.step)
        if isinstance(index, slice):
            return self.take(range(*index.indices(len(self))))
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("table index out of range")
        return (self._get or self._reader())(index)

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
    """Unpickle a table: a ``ValueError`` unless it is columns of the right
    number and lengths (a loaded store is thousands of tables, so no
    value is scanned)."""
    layout = layout_of(record)
    if stamp != layout.stamp:
        raise ValueError(f"{record.__name__} table written under another column layout")
    data = None  # no rows
    if packed:
        if len(packed) != len(layout.leaves):
            raise ValueError(f"{record.__name__}: {len(packed)} columns, "
                             f"expected {len(layout.leaves)}")
        data = [array(leaf.code, raw) for leaf, raw in zip(layout.leaves, packed)]
        layout.check_lengths(data)
    return Table(record, strings=strings, data=data)
