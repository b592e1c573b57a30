"""Canonical experiment records and flat-file ingestion.

The on-disk schema is one record per row with the keys ``layers, hidden,
params, task, family, pretrain_seed, finetune_seed, metric, value,
direction, tokens``.  ``params`` may be given instead of ``layers`` and
``hidden`` (depth-aware operations will then reject the record), and
``tokens`` is optional, used only for FLOP accounting.  JSONL carries one
object per line; CSV uses the same keys as a header row, UTF-8, comma
separated, ``.`` decimal point.

Records are held as numpy columns: :func:`ingest` reads a file once, a
chunk of rows at a time, into a :class:`RecordTable`, numbering each row's
scale, label, seeds and tokens by five keys of its cells, each new key
checked once; :func:`group` orders a table by one argsort of a folded int64
key where it can; :class:`RunRecord` objects are built only when
``records`` is read.  CSV chunks follow two rules (see :func:`open_csv`):
``np.loadtxt``, numpy's C reader, takes a chunk of 256 lines or more whose
text it reads as ``int`` and ``float`` would, when it parses it whole, and
its keys are found with ``np.unique``; from the first chunk it does not
take, ``csv.reader`` reads the rest of the file as one stream, whose
chunks are keyed, as JSONL chunks are, in one dict pass per key.  A chunk
that fails these checks is
read again a row at a time, by ``csv.reader`` or ``json``, and checked by
:func:`_record`, whose statement order is one row's check order: the
first bad row raises ``row N: <its first failed check>``, and so does,
after the rows before it, the first line N holding a byte that is not
UTF-8 (:func:`_line_chunks`).  In-memory :class:`RunRecord` objects are a third
reader: :func:`group` checks record N as row N, and :func:`emit` writes a
table or records from the same per-field cells, :func:`_cells`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import gc
import itertools
import json
import math
import operator
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .compute import param_count
from .errors import DataError

RECORD_FIELDS = (
    "layers", "hidden", "params", "task", "family", "pretrain_seed", "finetune_seed", "metric", "value", "direction",
    "tokens",
)
_FIELD_SET = frozenset(RECORD_FIELDS)
_CHUNK = 4096  # rows parsed and checked at a time: a bound on the memory of unchecked cells

# The canonical direction tokens, which :func:`normalize_direction` returns.
DIRECTIONS = ("maximize", "minimize")
# Each record file format and the suffixes it is inferred from.
FORMATS = {"jsonl": (".jsonl", ".ndjson"), "csv": (".csv",)}

_DIRECTION_TOKENS = {"max": "maximize", "maximize": "maximize", "min": "minimize", "minimize": "minimize"}


def _shown(cell) -> str:
    """``repr(cell)`` for a message, cut to 40 characters plus ``...``."""
    text = repr(cell)
    return text if len(text) <= 40 else text[:40] + "..."


def normalize_direction(token: str) -> str:
    """Map a direction token ("max", "maximize", ...) to its canonical form."""
    try:
        return _DIRECTION_TOKENS[str(token).strip().lower()]
    except KeyError:
        raise DataError(f"unknown direction token {_shown(token)}") from None


@dataclass(frozen=True, slots=True)
class ScaleSpec:
    """One model configuration: depth, width, and trainable-parameter count.

    ``params`` defaults to the standard estimate 12 * layers * hidden**2
    (embeddings excluded) but may be overridden with an exact count.
    Records ingested with only a parameter count carry ``layers=None`` and
    ``hidden=None``; depth-filtered operations reject those.
    """

    layers: int | None
    hidden: int | None
    params: int

    def __post_init__(self) -> None:
        if (self.layers is None) != (self.hidden is None):
            raise DataError("layers and hidden must be given together")
        if self.layers is not None:
            if self.layers < 1:
                raise DataError(f"layers must be positive, got {self.layers}")
            if self.hidden < 1:
                raise DataError(f"hidden must be positive, got {self.hidden}")
            if self.layers > sys.float_info.max:
                raise DataError("layers does not fit in float64")
        if self.params < 1:
            raise DataError(f"params must be positive, got {self.params}")
        if self.params > sys.float_info.max:
            raise DataError("params does not fit in float64")

    @classmethod
    def from_dims(cls, layers: int, hidden: int, params: int | None = None) -> "ScaleSpec":
        """Build from depth and width; ``params`` overrides the 12LH^2 estimate."""
        if params is None:
            params = param_count(layers, hidden)
        return cls(layers=layers, hidden=hidden, params=params)

    @classmethod
    def from_params(cls, params: int) -> "ScaleSpec":
        """Build from a bare parameter count (no depth/width information)."""
        return cls(layers=None, hidden=None, params=params)


def scale_ladder(aspect_ratio: int, layers: Iterable[int]) -> list[ScaleSpec]:
    """Configurations at a fixed aspect ratio: hidden = aspect_ratio * layers."""
    return [ScaleSpec.from_dims(L, aspect_ratio * L) for L in layers]


def _check_value(value: float) -> float:
    if not math.isfinite(value):
        raise DataError("value must be a finite number")
    if value <= 0:
        raise DataError("value must be positive")
    return value


def _check_tokens(tokens: int | None) -> int | None:
    if tokens is not None and tokens < 0:
        raise DataError(f"tokens must be nonnegative, got {tokens}")
    return tokens


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One finetuning or pretraining outcome at a given scale."""

    scale: ScaleSpec
    task: str
    family: str
    pretrain_seed: int
    finetune_seed: int
    metric: str
    value: float
    direction: str
    tokens: int | None = None

    def __post_init__(self) -> None:
        for name in ("task", "family", "metric"):
            if not getattr(self, name):
                raise DataError(f"{name} must be a nonempty string")
        _check_value(self.value)
        if self.direction not in DIRECTIONS:
            raise DataError(f"unknown direction token {self.direction!r}")
        _check_tokens(self.tokens)


def _ints(values: Sequence[int]) -> np.ndarray:
    """Integers as int64, or as Python ints (dtype object) if one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _order_key(column: np.ndarray) -> np.ndarray:
    """A sort key ordering an integer column exactly: itself, or its ranks."""
    if column.dtype != object:
        return column
    rank = {v: i for i, v in enumerate(sorted(set(column.tolist())))}
    return np.array([rank[v] for v in column.tolist()])


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Validated records as aligned, read-only numpy columns: what
    :func:`ingest` returns, in file order.

    ``code`` indexes each row's scale in ``scales`` (distinct, in order of
    first appearance) and ``label`` its (task, family, metric, direction) in
    ``labels``.  ``values`` are floats; ``seeds`` holds (pretrain_seed,
    finetune_seed) rows and ``tokens`` is -1 where unknown, both int64
    unless a value needs a Python int (dtype object).  ``len`` is the row
    count; ``records``, also what iteration yields, builds the rows as
    :class:`RunRecord` objects on first access.
    """

    scales: tuple[ScaleSpec, ...]
    code: np.ndarray
    values: np.ndarray
    seeds: np.ndarray
    tokens: np.ndarray
    labels: tuple[tuple[str, str, str, str], ...]
    label: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.code)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @functools.cached_property
    def records(self) -> tuple[RunRecord, ...]:
        labels = map(self.labels.__getitem__, self.label.tolist())
        rows = zip(self.code.tolist(), self.values.tolist(), *self.seeds.T.tolist(), self.tokens.tolist(), labels)
        return tuple(
            RunRecord(self.scales[k], task, family, pre, fin, metric, value, direction, None if tok < 0 else tok)
            for k, value, pre, fin, tok, (task, family, metric, direction) in rows
        )


@dataclass(frozen=True, eq=False)
class RunSet(RecordTable):
    """All records for one (task, family, metric), canonically ordered.

    Rows are sorted by scale (parameter count, then depth and width),
    pretrain seed, finetune seed, value and tokens, so each scale's rows
    form one contiguous slice and the order never depends on input order;
    ``scales`` ascend.  Build one with :func:`group` or :meth:`from_records`.
    Construction derives, once, the record counts ``sizes`` per scale and
    the float columns ``params`` and ``layers`` (NaN where the depth is
    unknown).
    """

    def __post_init__(self) -> None:
        if len(self.labels) != 1:
            raise DataError("a run set holds one (task, family, metric, direction)")
        depth = [math.nan if s.layers is None else s.layers for s in self.scales]
        vars(self).update(
            sizes=np.bincount(self.code, minlength=len(self.scales)),
            params=np.array([s.params for s in self.scales], dtype=float)[self.code],
            layers=np.array(depth, dtype=float)[self.code],
        )
        super().__post_init__()

    task = property(lambda self: self.labels[0][0])
    family = property(lambda self: self.labels[0][1])
    metric = property(lambda self: self.labels[0][2])
    direction = property(lambda self: self.labels[0][3])

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "RunSet":
        groups = group(records)
        if not groups:
            raise DataError("cannot build a run set from zero records")
        if len(groups) > 1:
            first, other = map(", ".join, list(groups)[:2])
            raise DataError(f"records disagree on (task, family, metric): ({first}) vs ({other})")
        return next(iter(groups.values()))

    def points(self) -> np.ndarray:
        """(params, value) rows for fitting, one per record: an ``(n, 2)`` array."""
        return np.column_stack((self.params, self.values))

    def within_layers(self, lo: int, hi: float = math.inf) -> np.ndarray:
        """Mask of the records whose depth lies in ``lo..hi``, inclusive.

        The range must satisfy 1 <= lo <= hi, and every record must carry a
        layer count.
        """
        if not 1 <= lo <= hi:
            raise DataError(f"layer range must satisfy 1 <= lo <= hi, got {lo}..{hi}")
        if np.isnan(self.layers).any():
            raise DataError("records lack layer counts; cannot select by depth")
        return (self.layers >= lo) & (self.layers <= hi)

    def filter(self, mask) -> "RunSet":
        """New RunSet with the records where the boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise DataError(f"mask must have one entry per record, got shape {mask.shape}")
        if not mask.any():
            raise DataError("filter matches no records")
        return _take(self, np.flatnonzero(mask), self.scales, self.code, self.labels[0])


def _take(table: RecordTable, rows: np.ndarray, scales, code: np.ndarray, label: tuple) -> RunSet:
    """The run set ``label`` of the table ``rows``, given in canonical order;
    ``code`` indexes each table row's scale in the ascending ``scales``.  It
    keeps the scales its rows use."""
    code = code[rows]
    first = np.concatenate(([True], code[1:] != code[:-1]))  # the first row of each scale, since the codes ascend
    kept = tuple(scales[k] for k in code[first].tolist())
    cols = (table.values[rows], table.seeds[rows], table.tokens[rows])
    return RunSet(kept, np.cumsum(first) - 1, *cols, (label,), np.zeros(len(rows), dtype=np.intp))


def _scale_key(s: ScaleSpec) -> tuple:
    return (s.params, -1 if s.layers is None else s.layers, -1 if s.hidden is None else s.hidden)


def _folded(columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sort keys ordering rows as the int64 ``columns`` do, most significant
    first, each run of columns whose ranges multiply to under 2**63 folded
    into one exact int64 key."""
    keys, span = [], 0
    for column in columns:
        low = int(column.min())
        width = int(column.max()) - low + 1
        if keys and span * width < 2**63:
            keys[-1] = keys[-1] * width + (column - low)
            span *= width
        else:  # a key of its own, from 0 unless its range is too wide for that
            keys.append(column - low if width <= 2**63 else column)
            span = width
    return keys


def group(records: RecordTable | Iterable[RunRecord]) -> dict[tuple[str, str, str], RunSet]:
    """Partition records into RunSets keyed by (task, family, metric).

    Takes what :func:`ingest` returns, or any iterable of :class:`RunRecord`,
    whose cells are checked as the rows of a file are, record N as row N
    (a missing seed warns, naming the source ``records``).  A row's key,
    scale and seeds fold into as few int64 sort keys as their ranges allow:
    one stable argsort puts the rows in canonical order when one key orders
    them with no ties, and one lexsort with the values and tokens otherwise.
    Every record lands in one RunSet; a direction disagreement within a key
    raises :class:`DataError`.
    """
    table = records if isinstance(records, RecordTable) else _add_chunks(_record_chunks(records), _cells, "records")
    if not len(table):
        return {}
    keys = sorted({label[:3] for label in table.labels})
    key_of = np.array([keys.index(label[:3]) for label in table.labels], dtype=np.intp)
    order = sorted(range(len(table.scales)), key=lambda k: _scale_key(table.scales[k]))
    scales = [table.scales[k] for k in order]
    code = np.argsort(order)[table.code]  # each row's scale rank
    row_key = key_of[table.label]
    folded = _folded([row_key * len(scales) + code, *(_order_key(table.seeds[:, j]) for j in (0, 1))])  # key, seeds
    rows = np.argsort(folded[0], kind="stable") if len(folded) == 1 else None
    if rows is None or (folded[0][rows[1:]] == folded[0][rows[:-1]]).any():
        rows = np.lexsort((_order_key(table.tokens), table.values, *folded[::-1]))
    directions = {}  # key -> the directions of its labels that rows use
    for k in np.unique(table.label).tolist():
        directions.setdefault(keys[key_of[k]], set()).add(table.labels[k][3])
    groups = {}
    for key, part in zip(keys, np.split(rows, np.cumsum(np.bincount(row_key))[:-1])):
        first = table.labels[table.label[part[0]]][3]
        if len(directions[key]) > 1:
            other = (directions[key] - {first}).pop()
            raise DataError(f"mixed direction within group ({', '.join(key)}): {first!r} vs {other!r}")
        groups[key] = _take(table, part, scales, code, (*key, first))
    return groups


def _as_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise DataError(f"field {field!r} must be an integer")
    if isinstance(value, (int, np.integer)):  # a numpy integer comes from memory, never from a file
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            pass
    raise DataError(f"field {field!r} must be an integer, got {_shown(value)}")


# The cells :func:`_as_float` reads, bools aside; numpy numbers come from memory, never from a file.
_NUMBER_CELLS = (int, float, str, np.integer, np.floating)


def _as_float(value, field: str) -> float:
    if isinstance(value, _NUMBER_CELLS) and not isinstance(value, bool):
        try:
            return float(value)  # strips surrounding whitespace from a string
        except OverflowError:
            raise DataError(f"field {field!r} does not fit in float64") from None
        except ValueError:
            pass
    raise DataError(f"field {field!r} must be a number, got {_shown(value)}")


def _missing(cell) -> bool:
    return cell is None or (isinstance(cell, str) and not cell.strip())


def _present(cell, field: str):
    """A label cell that is not missing and, if text, encodes as UTF-8 and
    holds only characters XML 1.0 can carry: a lone surrogate or a control
    character, which a cell can hold, would reach every writer, SVG too."""
    if _missing(cell):
        raise DataError(f"missing field {field!r}")
    if isinstance(cell, str):
        if not cell.isascii():
            try:
                cell.encode()
            except UnicodeEncodeError:
                raise DataError(f"field {field!r} is not valid Unicode") from None
        if found := _NOT_XML.search(cell):
            raise DataError(f"field {field!r} holds U+{ord(found.group()):04X}, which XML cannot carry")
    return cell


def _int_cell(cell, field: str) -> int | None:
    """An integer cell, or None where it is missing."""
    return None if _missing(cell) else _as_int(cell, field)


def _scale(layers, hidden, params) -> ScaleSpec:
    """The scale of one row's layers, hidden and params cells (None where missing)."""
    if layers is None and hidden is None:
        if params is None:
            raise DataError("need fields 'layers'+'hidden' or 'params'")
        return ScaleSpec.from_params(_as_int(params, "params"))
    if layers is None or hidden is None:
        missing = "layers" if layers is None else "hidden"
        raise DataError(f"field {missing!r} required when the other dimension is given")
    return ScaleSpec.from_dims(_as_int(layers, "layers"), _as_int(hidden, "hidden"), _int_cell(params, "params"))


def _record(cells: dict) -> RunRecord:
    """One row checked in full, from the per-field cells that the reader of
    its chunk reads from that row alone.  The order of the statements, ending
    in the value-range and tokens-sign checks of :class:`RunRecord`, is the
    order of the checks, so a bad row raises its first failed check."""
    cell = {field: None if _missing(c) else c for field, (c,) in cells.items()}
    scale = _scale(cell["layers"], cell["hidden"], cell["params"])
    task, family, metric, direction = [_present(cell[f], f) for f in ("task", "family", "metric", "direction")]
    pre, fin = [_int_cell(cell[f], f) or 0 for f in ("pretrain_seed", "finetune_seed")]  # missing: seed 0
    value = _as_float(cell["value"], "value")
    direction = normalize_direction(direction)
    tokens = _int_cell(cell["tokens"], "tokens")
    return RunRecord(scale, str(task), str(family), pre, fin, str(metric), value, direction, tokens)


# The column checks of the non-value fields: each returns the checked cell
# (None where a missing cell is allowed) or raises DataError.
_CHECKS = {
    **{f: functools.partial(_int_cell, field=f) for f in ("layers", "hidden", "params")},
    **{f: lambda cell, f=f: str(_present(cell, f)) for f in ("task", "family", "metric")},
    "direction": lambda cell: normalize_direction(_present(cell, "direction")),
    **{f: functools.partial(_int_cell, field=f) for f in ("pretrain_seed", "finetune_seed")},
    "tokens": lambda cell: _check_tokens(_int_cell(cell, "tokens")),
}
_PLAIN_CELLS = {int, str, type(None)}  # equal cells of these types check alike
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")  # besides surrogates, not XML 1.0
_SCALE_FIELDS = ("layers", "hidden", "params")
_LABEL_FIELDS = ("task", "family", "metric", "direction")
_SEED_FIELDS = ("pretrain_seed", "finetune_seed")


def _guarded(cells: dict) -> dict:
    """A chunk's cells, each key column that holds a cell other than an int,
    a str or None mapped through its check: 1, 1.0 and True are one dict key,
    yet check differently, and a checked cell checks to itself."""
    mixed = [f for f in _CHECKS if not set(map(type, cells[f])) <= _PLAIN_CELLS]
    return cells | {f: list(map(_CHECKS[f], cells[f])) for f in mixed}


def _checked(fields: Sequence[str], key: tuple) -> tuple:
    """The cells of a key of ``fields``, each checked by its ``_CHECKS`` entry."""
    return tuple(_CHECKS[f](cell) for f, cell in zip(fields, key))


class _Codes:
    """The distinct keys of the cells of ``fields`` (a cell, or a tuple of
    them), each checked once by ``check`` and numbered by the row, counted
    over all chunks from 0, that it first appears on.  ``checked`` maps each
    number to its checked key, and ``missing`` lists the numbers of None."""

    def __init__(self, fields: Sequence[str], check) -> None:
        self.fields = fields
        self.check = check
        self.number: dict = {}  # key -> its number
        self.checked: dict = {}  # number -> checked key
        self.missing: list[int] = []
        self.rows = 0

    def codes(self, columns: list) -> np.ndarray:
        """The number of each row's key, from a chunk's column of each field
        (see :func:`_guarded`), in one lookup pass; then each new key is
        checked in order, which may raise DataError and spoil the memo."""
        rows, before = len(columns[0]), len(self.number)
        base, self.rows = self.rows, self.rows + rows
        if rows > 1 and all(column.count(column[0]) == rows for column in columns):
            # Every row holds the first row's key (count compares cells as dict keys do): look it up alone.
            key = tuple(column[0] for column in columns) if len(columns) > 1 else columns[0][0]
            codes = np.full(rows, self.number.setdefault(key, base))
        else:
            keys = zip(*columns) if len(columns) > 1 else columns[0]
            codes = np.fromiter(map(self.number.setdefault, keys, itertools.count(base)), np.intp, rows)
        self._check_new(before)
        return codes

    def coded(self, columns: list, rows: int) -> np.ndarray:
        """As :meth:`codes`, from a parsed chunk's array of each field (None
        for a field the file lacks): only the distinct keys are looked up,
        in order of first appearance, each under the number of its first row."""
        base, before = self.rows, len(self.number)
        self.rows += rows
        first, inverse = _distinct([column for column in columns if column is not None], rows)
        cells = [itertools.repeat(None) if column is None else column[first].tolist() for column in columns]
        keys = zip(*cells) if len(columns) > 1 else cells[0]
        numbers = list(map(self.number.setdefault, keys, (base + first).tolist()))
        self._check_new(before)
        return np.array(numbers, dtype=np.intp)[inverse]

    def _check_new(self, before: int) -> None:
        """Check the keys entered since the memo held ``before`` of them, in
        order: they are the last ones entered (dicts keep their order of entry)."""
        for key in list(itertools.islice(reversed(self.number), len(self.number) - before))[::-1]:
            number = self.number[key]
            self.checked[number] = checked = self.check(key)
            if checked is None:
                self.missing.append(number)

    def resolved(self, codes: np.ndarray, default: int) -> np.ndarray:
        """The checked integers of ``codes``, ``default`` where missing (see :func:`_ints`)."""
        checked = _ints([default if v is None else v for v in self.checked.values()])
        values = np.zeros(self.rows, dtype=checked.dtype)
        values[list(self.checked)] = checked
        return values[codes]


def _distinct(columns: list[np.ndarray], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct key of the ``rows`` rows of
    ``columns``, in order of first appearance, and the index in that order
    of each row's key.  A column that holds one value adds nothing; the
    ``np.unique`` codes of the others fold into one int64 key."""
    varying = [column for column in columns if (column != column[0]).any()]
    if not varying:
        return np.zeros(1, dtype=np.intp), np.zeros(rows, dtype=np.intp)
    key = varying[0]
    if len(varying) > 1:
        key = np.zeros(rows, dtype=np.int64)
        for column in varying:  # each at most rows distinct values: 4,096**4 < 2**63
            _, code = np.unique(column, return_inverse=True)
            key = key * (int(code.max()) + 1) + code.reshape(-1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)]


def _values(cells: Sequence) -> np.ndarray:
    """The value column parsed in bulk; DataError unless each cell is a finite positive number."""
    kinds = set(map(type, cells))
    if bool in kinds or not all(issubclass(kind, _NUMBER_CELLS) for kind in kinds):
        raise DataError("value must be a number")
    try:
        v = np.fromiter(map(float, cells), float, len(cells))  # what _as_float does to each cell
    except (ValueError, OverflowError):
        raise DataError("value must be a number") from None
    return _in_range(v)


def _in_range(values: np.ndarray) -> np.ndarray:
    """``values``; DataError unless each is finite and positive."""
    if not (np.isfinite(values).all() and (values > 0).all()):
        raise DataError("value must be finite and positive")
    return values


class _Columns:
    """Checked columns of one file, added a chunk of rows at a time as codes
    of five :class:`_Codes`: of a row's scale cells, whose check numbers the
    scale in ``scales``, of its label cells, whose check numbers the label in
    ``labels``, both in order of first appearance, and of its two seeds and tokens."""

    def __init__(self) -> None:
        # The checks close over the two dicts, not over self: a cycle through
        # self would hold each file's columns until a full garbage collection.
        scales, labels = self.scales, self.labels = {}, {}  # scale -> code, label -> code
        scale = lambda key: scales.setdefault(_scale(*_checked(_SCALE_FIELDS, key)), len(scales))
        label = lambda key: labels.setdefault(_checked(_LABEL_FIELDS, key), len(labels))
        self.keys = {
            "code": _Codes(_SCALE_FIELDS, scale),
            "label": _Codes(_LABEL_FIELDS, label),
            **{f: _Codes((f,), _CHECKS[f]) for f in (*_SEED_FIELDS, "tokens")},
        }
        # Each column's chunks, after an empty one that gives the column its dtype.
        self.columns: dict[str, list[np.ndarray]] = {name: [np.empty(0, dtype=np.intp)] for name in self.keys}
        self.columns["value"] = [np.empty(0)]
        self.defaulted = 0
        self.first_default: str | None = None

    def add(self, cells: dict, where: np.ndarray) -> None:
        """Check one chunk's cells a key at a time and append them; ``where``
        numbers its rows.  A failed check raises DataError without naming a row."""
        codes = {name: keys.codes([cells[f] for f in keys.fields]) for name, keys in self.keys.items()}
        codes["value"] = _values(cells["value"])
        self._append(codes, where)

    def add_parsed(self, array: np.ndarray, where: np.ndarray) -> None:
        """As :meth:`add`, from the rows of a chunk that ``np.loadtxt``
        parsed (see :func:`open_csv`): each key from the array of each of its
        fields, None for a field the header lacks."""
        names = array.dtype.names
        codes = {
            name: keys.coded([array[f] if f in names else None for f in keys.fields], len(array))
            for name, keys in self.keys.items()
        }
        codes["value"] = _in_range(np.ascontiguousarray(array["value"]))  # not a view that keeps the chunk's array
        self._append(codes, where)

    def _append(self, codes: dict, where: np.ndarray) -> None:
        """Append one chunk's codes and values, counting its defaulted seeds."""
        if any(self.keys[f].missing for f in _SEED_FIELDS):
            pre, fin = (np.isin(codes[f], self.keys[f].missing) for f in _SEED_FIELDS)
            defaulted = pre | fin
            if defaulted.any():
                row = int(np.argmax(defaulted))
                self.defaulted += int(pre.sum() + fin.sum())
                self.first_default = self.first_default or f"row {where[row]}:{_SEED_FIELDS[0 if pre[row] else 1]}"
        for name, column in codes.items():
            self.columns[name].append(column)

    def table(self) -> RecordTable:
        c = {name: np.concatenate(parts) for name, parts in self.columns.items()}
        code, label, pre, fin = (self.keys[n].resolved(c[n], 0) for n in ("code", "label", *_SEED_FIELDS))
        seeds, tokens = np.column_stack((pre, fin)), self.keys["tokens"].resolved(c["tokens"], -1)  # missing: 0, -1
        return RecordTable(tuple(self.scales), code, c["value"], seeds, tokens, tuple(self.labels), label)


def _infer_format(path: Path, format: str | None) -> str:
    names = " or ".join(map(repr, FORMATS))
    if format is not None:
        if format not in FORMATS:
            raise DataError(f"unknown format {format!r}; expected {names}")
        return format
    for fmt, suffixes in FORMATS.items():
        if path.suffix.lower() in suffixes:
            return fmt
    raise DataError(f"cannot infer format from {path.name!r}; pass format={names}")


def _numbered(items: list, numbers: np.ndarray, blank: Iterable[bool]) -> tuple:
    """The numbers and items of the items that are not ``blank``."""
    keep = np.flatnonzero(~np.fromiter(blank, bool, len(items)))
    return numbers[keep], items if keep.size == len(items) else [items[i] for i in keep.tolist()]


# A byte that is not UTF-8, as errors="surrogateescape" decodes it.  Text
# that decodes as UTF-8 holds no such character: UTF-8 encodes no surrogate.
_ESCAPED = re.compile("[\udc80-\udcff]")


def _line_chunks(fh):
    """(number of the first line, lines) of each chunk of up to ``_CHUNK``
    lines of a file opened as UTF-8 with ``errors="surrogateescape"``.  The
    first line that holds a byte that is not UTF-8 ends the file: the lines
    before it are yielded, and then it raises ``row N: not valid UTF-8``."""
    for first in itertools.count(1, _CHUNK):
        lines = list(itertools.islice(fh, _CHUNK))
        if not lines:
            return
        if not (text := "".join(lines)).isascii() and _ESCAPED.search(text):
            bad = next(i for i, line in enumerate(lines) if _ESCAPED.search(line))
            if bad:
                yield first, lines[:bad]
            raise DataError(f"row {first + bad}: not valid UTF-8")
        yield first, lines


def _json_chunks(fh):
    """(line numbers, lines) of up to ``_CHUNK`` JSONL lines at a time, blank ones dropped."""
    for first, chunk in _line_chunks(fh):
        yield _numbered(chunk, first + np.arange(len(chunk)), map(str.isspace, chunk))


def _object(pairs: list) -> dict:
    """A JSON object's members as a dict; DataError if a key repeats."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        twice = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise DataError(f"field {_shown(twice)} appears twice")
    return obj


def _json_cells(lines: Sequence[str]) -> dict:
    """Per-field cells of a chunk of JSONL lines; raises DataError naming
    the fault of a line that is not one JSON object of known fields, each once."""
    text = "[" + ",".join(lines) + "]"
    objs, members = [], -1
    if all(map(str.startswith, lines, itertools.repeat("{"))):
        try:
            objs = json.loads(text)
        except (ValueError, RecursionError):
            pass
    if len(objs) == len(lines) and set(map(type, objs)) <= {dict}:
        members = sum(map(len, objs))
    # Objects of m distinct keys in all hold m - 1 commas, with the top
    # level's separators, or more if a key repeats, an object is empty or a
    # comma is nested or in a string.  With m - 1, every join's comma, which
    # a "{" follows, separates two objects, so each line holds one object of
    # distinct keys; other text is read again a line at a time.
    if text.count(",") != members - 1:
        try:
            objs = [json.loads(line, object_pairs_hook=_object) for line in lines]
        except DataError:
            raise
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON ({exc.msg})") from None
        except ValueError as exc:  # an integer past the int-string conversion limit
            raise DataError(f"invalid JSON ({exc})") from None
        except RecursionError:
            raise DataError("invalid JSON (nested too deeply)") from None
        if not set(map(type, objs)) <= {dict}:
            raise DataError("expected a JSON object")
        members = sum(map(len, objs))
    # Each field in one itemgetter pass, then each field that some row lacks
    # by dict.get, unless the members read so far are all the members: then
    # no row holds it.  The cells counted, a null among those read by
    # dict.get aside, are known members; if they are all, none is unknown.
    cells = {}
    for f in RECORD_FIELDS:
        with contextlib.suppress(KeyError):
            cells[f] = list(map(operator.itemgetter(f), objs))
    counted = len(cells) * len(objs)
    for f in [f for f in RECORD_FIELDS if f not in cells]:
        cells[f] = column = (None,) * len(objs) if counted == members else list(map(dict.get, objs, itertools.repeat(f)))
        counted += len(objs) - column.count(None)
    if counted != members and (unknown := set().union(*objs) - _FIELD_SET):
        raise DataError(f"unknown field {_shown(min(unknown))}")
    return cells


def _csv_chunks(reader, base: int = 0):
    """(line numbers, rows) of up to ``_CHUNK`` CSV rows of ``reader`` at a
    time, blank ones dropped; a row's number is the line it ends on, the
    reader's first line being line ``base + 1``.  A ``csv.Error``, as
    DataError naming the line the reader stopped on, or the DataError of a
    line that is not UTF-8, is raised once the rows read before it have
    been yielded."""
    while True:
        before, rows, error = reader.line_num, [], None
        try:
            rows.extend(itertools.islice(reader, _CHUNK))
        except csv.Error as exc:
            error = DataError(f"row {base + reader.line_num}: {exc}")
        except DataError as exc:
            error = exc
        spans = np.ones(len(rows), dtype=np.intp)
        if reader.line_num - before != len(rows):  # a quoted cell holds line breaks
            spans[:] = [1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row) for row in rows]
        ends = base + before + np.cumsum(spans)
        if rows and error is None:  # exact, also for a quote left open to the end of the file
            ends[-1] = base + reader.line_num
        if rows:
            yield _numbered(rows, ends, map(operator.not_, rows))
        if error is not None:
            raise error
        if not rows:
            return


class ParsedChunk(NamedTuple):
    """A chunk of CSV lines, one row each, and the rows ``np.loadtxt``
    parsed from them: a structured array, one field per header column."""

    array: np.ndarray
    lines: list[str]

    def rows(self) -> list[list[str]]:
        """The chunk's rows as ``csv.reader`` reads them."""
        return list(csv.reader(self.lines))


# Text of a CSV chunk that only csv.reader reads as the file means: a quote,
# since a quoted cell may span lines and chunks; NUL, which csv refuses on
# Python 3.10 and numpy's str cells drop; and U+001C-U+001F, which numpy's
# number parser skips as white space but int() and float() refuse.  Text that
# is not ASCII goes to csv.reader too: numpy reads some letters past U+00FF
# as integer digits.
_CSV_ONLY = '"\x00\x1c\x1d\x1e\x1f'
_WIDTH, _MAX_WIDTH = 16, 128  # the first and the largest str width, in characters, of a parsed cell
# The fewest lines of a chunk that np.loadtxt parses.  csv.reader reads a
# shorter chunk faster: np.loadtxt and the np.unique coding of a chunk's
# keys cost ~0.1-0.2 ms a chunk whatever its length.
_PARSED_LINES = 256


def _loadtxt(lines: list[str], columns: dict | None, width: int) -> tuple[np.ndarray | None, int]:
    """The rows of a chunk of CSV lines as ``np.loadtxt`` parses them, each
    column as its type in ``columns`` (``str`` as ``width`` characters), and
    the width it took: doubled, up to ``_MAX_WIDTH``, while a str cell fills
    it and so may have been cut.  None for the rows where numpy does not
    take the chunk: any chunk without ``columns``, one of fewer than
    ``_PARSED_LINES`` lines, one holding text that only ``csv.reader`` reads
    as the file means (see ``_CSV_ONLY``) or a line past
    ``csv.field_size_limit()``, and one that numpy does not parse whole: it
    raises, warns (numpy 1.x reads ``2.0`` as an integer, warning that it
    will not), skips a line (a blank one) or would cut a cell."""
    text, limit = "".join(lines), csv.field_size_limit()
    if (not columns or len(lines) < _PARSED_LINES or not text.isascii() or any(c in text for c in _CSV_ONLY)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None, width
    while width <= _MAX_WIDTH:
        dtype = np.dtype([(name, f"U{width}" if kind is str else kind) for name, kind in columns.items()])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                array = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):  # what numpy cannot read, csv.reader reads or names the fault of
            return None, width
        if len(array) != len(lines):
            return None, width
        # A str cell fills the width where its last character, a 4-byte word
        # of the row, is not NUL (no cell holds one).
        last = [dtype.fields[name][1] // 4 + width - 1 for name, kind in columns.items() if kind is str]
        if not (last and array.view(np.uint32).reshape(len(array), -1)[:, last].any()):
            return array, width
        width *= 2
    return None, width


def _stream(lines: list[str], line_chunks) -> Iterable[str]:
    """``lines``, then the lines of the rest of ``line_chunks``."""
    return itertools.chain(lines, itertools.chain.from_iterable(more for _, more in line_chunks))


def _body_chunks(header: list[str] | None, line_chunks, columns):
    """(line numbers, rows) of each chunk of the lines after a CSV header,
    ``line_chunks`` yielding (number of the first line, lines).  The rows
    are a :class:`ParsedChunk` while :func:`_loadtxt` takes each chunk as
    ``columns(header)`` types the columns (see :func:`open_csv`).  From the
    first chunk it does not take, for any reason, the rest of the file is
    one ``csv.reader`` stream, whose rows come in chunks of
    :func:`_csv_chunks`: a quoted cell may span chunks, and a file that
    leaves an integer cell empty in every chunk (params or a seed left to
    default), which numpy finds only after parsing the rows before it, pays
    one parse that fails, not one a chunk."""
    types, width = columns(header) if columns else None, _WIDTH
    for first, lines in line_chunks:
        array, width = _loadtxt(lines, types, width)
        if array is None:
            yield from _csv_chunks(csv.reader(_stream(lines, line_chunks)), first - 1)
            return
        yield first + np.arange(len(lines)), ParsedChunk(array, lines)


@contextlib.contextmanager
def open_csv(path: Path, columns: Callable[[list[str]], dict | None] | None = None):
    """The header row (None for an empty file) and the chunks of (line
    numbers, rows) of a CSV file's body, read while the ``with`` block runs.
    The lines come from :func:`_line_chunks`, so the file ends at its first
    line that is not UTF-8, which raises DataError naming it, also while the
    header is read.  A header that starts with a byte order mark raises
    DataError, and so does a ``csv.Error``, naming the line the reader
    stopped on.

    ``columns``, given the header, maps each of its columns to the type its
    cells are parsed as, ``np.int64``, ``np.float64`` or ``str``, or returns
    None.  The chunks follow two rules.  ``np.loadtxt`` takes a chunk of
    ``_PARSED_LINES`` (256) lines or more that holds no quote, only ASCII
    text without NUL or U+001C-U+001F, and no line past
    ``csv.field_size_limit()``, when it parses it whole (no exception, as
    on an empty int64 cell, no warning, no skipped blank line and no cut
    str cell), and yields it as a :class:`ParsedChunk`.  From the first
    chunk it does not take, for any reason, and from the start where
    ``columns`` is missing or returns None or the header holds a quote,
    ``csv.reader`` reads the rest of the file as one stream, whose rows
    :func:`_csv_chunks` yields."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        line_chunks = _line_chunks(fh)
        _, lines = next(line_chunks, (1, []))
        quoted = any('"' in line for line in lines[:1])
        reader = csv.reader(_stream(lines, line_chunks) if quoted else lines[:1])
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DataError(f"row {reader.line_num}: {exc}") from None
        if header and header[0].startswith("\ufeff"):
            raise DataError("row 1: CSV header starts with a UTF-8 byte order mark (U+FEFF)")
        if quoted:
            yield header, _csv_chunks(reader)
        else:
            yield header, _body_chunks(header, itertools.chain([(2, lines[1:])], line_chunks), columns)


def _csv_cells(rows: Sequence[list], header: list[str]) -> dict:
    """Per-field cells of a chunk of CSV rows; raises DataError if a row
    has more cells than the header."""
    width = len(header)
    lengths = set(map(len, rows))
    if max(lengths, default=0) > width:
        raise DataError("more cells than header columns")
    if lengths - {width}:  # absent trailing cells are missing
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = dict(zip(header, zip(*rows))) if rows else {}
    return {field: columns.get(field, (None,) * len(rows)) for field in RECORD_FIELDS}


def _record_chunks(records: Iterable[RunRecord]):
    """(row numbers, records) of up to ``_CHUNK`` in-memory records at a
    time; record N is row N."""
    records = iter(records)
    for first in itertools.count(1, _CHUNK):
        rows = list(itertools.islice(records, _CHUNK))
        if not rows:
            return
        yield first + np.arange(len(rows)), rows


# Each field's cell of a RunRecord, in RECORD_FIELDS order.
_RECORD_CELLS = {f: operator.attrgetter(f"scale.{f}" if f in _SCALE_FIELDS else f) for f in RECORD_FIELDS}


def _cells(rows: Sequence[RunRecord] | tuple[RecordTable, slice]) -> dict:
    """Per-field cells, as a reader yields them, of a chunk of RunRecords or
    of a table's ``(table, rows)``; a table's tokens are None where unknown."""
    if not isinstance(rows, tuple):
        return {field: list(map(cell, rows)) for field, cell in _RECORD_CELLS.items()}
    table, rows = rows
    code, label = table.code[rows].tolist(), table.label[rows].tolist()
    dims = zip(*((s.layers, s.hidden, s.params) for s in table.scales))
    cells = {f: list(map(column.__getitem__, code)) for f, column in zip(_SCALE_FIELDS, dims)}
    cells.update({f: list(map(column.__getitem__, label)) for f, column in zip(_LABEL_FIELDS, zip(*table.labels))})
    cells.update(zip(_SEED_FIELDS, table.seeds[rows].T.tolist()))
    cells["value"] = table.values[rows].tolist()
    cells["tokens"] = [None if tok < 0 else tok for tok in table.tokens[rows].tolist()]
    return cells


@contextlib.contextmanager
def paused_gc():
    """Keep the cyclic garbage collector off while the block runs, then
    restore its state: a parse's many short-lived rows, freed by reference
    counting, would otherwise set off collections that find no cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _add_chunks(chunks, cells, source: str, guard=_guarded) -> RecordTable:
    """The checked columns of the chunks of ``(row numbers, rows)`` of
    ``source``, each added by its ``cells``.  When a chunk fails its column
    checks, ``cells`` reads its rows again one at a time (a
    :class:`ParsedChunk`'s as ``csv.reader`` reads them) and :func:`_record`
    checks each, in order; the first that fails raises DataError.  Rows
    missing a seed get seed 0 and one summary warning for the source.
    ``guard`` maps a chunk's cells first; CSV cells, strs or None, need none."""
    columns = _Columns()
    with paused_gc():
        for where, rows in chunks:
            try:
                if isinstance(rows, ParsedChunk):
                    columns.add_parsed(rows.array, where)
                else:
                    columns.add(guard(cells(rows)) if guard else cells(rows), where)
            except DataError:
                for number, row in zip(where, rows.rows() if isinstance(rows, ParsedChunk) else rows):
                    try:
                        _record(cells([row]))
                    except DataError as exc:
                        raise DataError(f"row {number}: {exc}") from None
                raise RuntimeError("a chunk failed its column checks but each of its rows passes")
    if columns.defaulted:
        message = f"{columns.defaulted} missing seed field(s) defaulted to 0 (first: {columns.first_default})"
        warnings.warn(f"{source}: {message}", stacklevel=3)
    return columns.table()


# The type ``np.loadtxt`` parses each field's cells as.  A str cell is
# checked by ``_CHECKS`` as a cell of ``csv.reader`` is: tokens may be empty.
_PARSED_TYPES = {
    **dict.fromkeys((*_SCALE_FIELDS, *_SEED_FIELDS), np.int64), "value": np.float64,
    **dict.fromkeys((*_LABEL_FIELDS, "tokens"), str),
}


def _parsed_types(header: list[str]) -> dict | None:
    """The type of each column of a checked CSV header, None if it lacks a value."""
    return {field: _PARSED_TYPES[field] for field in header} if "value" in header else None


def ingest(path: str | Path, format: str | None = None) -> RecordTable:
    """Read and validate experiment records from a JSONL or CSV file.

    The file is read once, a chunk of rows at a time, and each distinct key
    of cells is checked once.  ``np.loadtxt`` takes a CSV chunk of 256
    lines or more whose text it reads as ``int`` and ``float`` would, when
    it parses it whole, layers, hidden, params and seeds as int64, value as
    float64, labels and tokens as str; from the first chunk it does not
    take, as one that leaves an integer cell empty (params or a seed
    defaulted), ``csv.reader`` reads the rest of the file (see
    :func:`open_csv`).  A
    chunk that fails these checks is read again a row at a time, from the
    rows in memory (a parsed chunk's lines by ``csv.reader``), and the
    first bad row in file order raises :class:`DataError` naming the row
    number and its first failed check; a line holding a byte that is not
    UTF-8 is a bad row too: ``row N: not valid UTF-8``.  A CSV header must
    name known fields, each once.  Rows missing seed fields get seed 0 and
    one summary warning for the file.  Returns a :class:`RecordTable`.

    Parameters
    ----------
    path : file to read.
    format : "jsonl" or "csv"; inferred from the suffix when omitted.
    """
    path = Path(path)
    if _infer_format(path, format) == "jsonl":
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return _add_chunks(_json_chunks(fh), _json_cells, path.name)
    with open_csv(path, _parsed_types) as (header, chunks):
        if header is None:
            raise DataError("row 1: missing CSV header")
        unknown = set(header) - _FIELD_SET
        if unknown:
            raise DataError(f"row 1: unknown field {_shown(sorted(unknown)[0])} in CSV header")
        # Every field is known here, so a repeat comes within the first 12.
        twice = next((field for i, field in enumerate(header) if field in header[:i]), None)
        if twice is not None:
            raise DataError(f"row 1: field {twice!r} appears twice in the CSV header")
        return _add_chunks(chunks, functools.partial(_csv_cells, header=header), path.name, guard=None)


def _json_members(field: str, cells: Sequence) -> Iterable[str]:
    """Each cell of one field as ``, "field": `` and the JSON text
    ``json.dumps`` writes for it, or ``""`` for a None cell."""
    prefix = f', "{field}": '
    kinds = set(map(type, cells))
    if kinds == {type(None)}:
        return itertools.repeat("", len(cells))
    if kinds == {str}:
        texts = map(json.encoder.encode_basestring_ascii, cells)
    elif kinds == {int}:
        texts = map(int.__repr__, cells)
    elif kinds == {float} and all(map(math.isfinite, cells)):
        texts = map(float.__repr__, cells)
    else:  # None among other cells, or a cell of another type
        return ["" if cell is None else prefix + json.dumps(cell) for cell in cells]
    return map(prefix.__add__, texts)


def emit(records: RecordTable | Iterable[RunRecord], path: str | Path, format: str | None = None) -> None:
    """Write a table or RunRecords in the canonical schema; list(ingest(emit(x))) == x.

    Each record is one row of cells in ``RECORD_FIELDS`` order, as
    :func:`_cells` extracts them ``_CHUNK`` rows at a time; a None cell is
    left out of a JSONL object and written as an empty CSV cell.  A JSONL
    line holds the bytes ``json.dumps`` writes for the object of the row's
    other cells, encoded a field at a time.
    """
    fmt = _infer_format(Path(path), format)
    if isinstance(records, RecordTable):
        chunks = ((records, slice(start, start + _CHUNK)) for start in range(0, len(records), _CHUNK))
    else:
        chunks = (rows for _, rows in _record_chunks(records))
    with open(path, "w", encoding="utf-8", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(RECORD_FIELDS)
            for cells in map(_cells, chunks):
                writer.writerows(zip(*map(cells.__getitem__, RECORD_FIELDS)))
            return
        for cells in map(_cells, chunks):
            members = [_json_members(field, cells[field]) for field in RECORD_FIELDS]
            fh.writelines(f"{{{text[2:]}}}\n" for text in map("".join, zip(*members)))
