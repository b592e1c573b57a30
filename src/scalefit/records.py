"""Canonical experiment records and flat-file ingestion.

The on-disk schema is one record per row with the keys ``layers, hidden,
params, task, family, pretrain_seed, finetune_seed, metric, value,
direction, tokens``.  ``params`` may be given instead of ``layers`` and
``hidden`` (depth-aware operations will then reject the record), and
``tokens`` is optional, used only for FLOP accounting.  JSONL carries one
object per line; CSV uses the same keys as a header row, UTF-8, comma
separated, ``.`` decimal point.

Records are held as numpy columns: :func:`ingest` checks a file a chunk of
rows and a column at a time into a :class:`RecordTable`, :func:`group`
splits it into run sets with one lexsort, and :class:`RunRecord` objects
are built only when ``records`` is read.  The column checks only pass or
fail a chunk; a chunk that fails them is checked again a row at a time by
:func:`_record`, whose statement order is the order of one row's checks,
and the first bad row raises ``row N: <its first failed check>``.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .compute import param_count
from .errors import DataError

RECORD_FIELDS = (
    "layers",
    "hidden",
    "params",
    "task",
    "family",
    "pretrain_seed",
    "finetune_seed",
    "metric",
    "value",
    "direction",
    "tokens",
)
_FIELD_SET = frozenset(RECORD_FIELDS)
# Rows are parsed and checked this many at a time, which bounds the memory
# held by parsed but unchecked cells.
_CHUNK = 4096

_DIRECTION_TOKENS = {
    "max": "maximize",
    "maximize": "maximize",
    "min": "minimize",
    "minimize": "minimize",
}


def normalize_direction(token: str) -> str:
    """Map a direction token ("max", "maximize", ...) to its canonical form."""
    try:
        return _DIRECTION_TOKENS[str(token).strip().lower()]
    except KeyError:
        raise DataError(f"unknown direction token {token!r}") from None


@dataclass(frozen=True)
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

    @property
    def aspect_ratio(self) -> float | None:
        """Width over depth (hidden / layers); None when dimensions are unknown."""
        if self.layers is None:
            return None
        return self.hidden / self.layers


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


@dataclass(frozen=True)
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
        if self.direction not in ("maximize", "minimize"):
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
        rows = zip(self.code.tolist(), self.values.tolist(), self.seeds.tolist(), self.tokens.tolist(), labels)
        return tuple(
            RunRecord(self.scales[k], task, family, pre, fin, metric, value, direction, None if tok < 0 else tok)
            for k, value, (pre, fin), tok, (task, family, metric, direction) in rows
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
        derived = dict(
            sizes=np.bincount(self.code, minlength=len(self.scales)),
            params=np.array([s.params for s in self.scales], dtype=float)[self.code],
            layers=np.array(depth, dtype=float)[self.code],
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)
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
            first, other = list(groups)[:2]
            raise DataError(
                f"records disagree on (task, family, metric): ({', '.join(first)}) vs ({', '.join(other)})"
            )
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
    keeps the scales its rows use, and the table's records if built."""
    used, code = np.unique(code[rows], return_inverse=True)
    kept = tuple(scales[k] for k in used.tolist())
    cols = (table.values[rows], table.seeds[rows], table.tokens[rows])
    runset = RunSet(kept, code, *cols, (label,), np.zeros(len(rows), dtype=np.intp))
    if "records" in vars(table):
        vars(runset)["records"] = tuple(map(table.records.__getitem__, rows.tolist()))
    return runset


def _scale_key(s: ScaleSpec) -> tuple:
    return (s.params, -1 if s.layers is None else s.layers, -1 if s.hidden is None else s.hidden)


def _table(records: Iterable[RunRecord]) -> RecordTable:
    """Columns of in-memory records; the table keeps the records themselves."""
    recs = tuple(records)
    scales: dict[ScaleSpec, int] = {}
    labels: dict[tuple, int] = {}
    code = [scales.setdefault(r.scale, len(scales)) for r in recs]
    label = [labels.setdefault((r.task, r.family, r.metric, r.direction), len(labels)) for r in recs]
    seeds = [_ints([getattr(r, f) for r in recs]) for f in ("pretrain_seed", "finetune_seed")]
    table = RecordTable(
        tuple(scales),
        np.array(code, dtype=np.intp),
        np.array([r.value for r in recs], dtype=float),
        np.column_stack(seeds),
        _ints([-1 if r.tokens is None else r.tokens for r in recs]),
        tuple(labels),
        np.array(label, dtype=np.intp),
    )
    vars(table)["records"] = recs
    return table


def group(records: RecordTable | Iterable[RunRecord]) -> dict[tuple[str, str, str], RunSet]:
    """Partition records into RunSets keyed by (task, family, metric).

    Takes what :func:`ingest` returns, or any iterable of :class:`RunRecord`.
    One lexsort puts the rows in canonical order.  Every record lands in
    exactly one RunSet; a direction disagreement within a key raises
    :class:`DataError`.
    """
    table = records if isinstance(records, RecordTable) else _table(records)
    keys = sorted({label[:3] for label in table.labels})
    key_of = np.array([keys.index(label[:3]) for label in table.labels], dtype=np.intp)[table.label]
    order = sorted(range(len(table.scales)), key=lambda k: _scale_key(table.scales[k]))
    scales = [table.scales[k] for k in order]
    code = np.argsort(order)[table.code]  # each row's scale rank
    seeds = [_order_key(table.seeds[:, j]) for j in (1, 0)]
    rows = np.lexsort((_order_key(table.tokens), table.values, *seeds, code, key_of))
    groups = {}
    for key, part in zip(keys, np.split(rows, np.cumsum(np.bincount(key_of))[:-1])):
        first = table.labels[table.label[part[0]]][3]
        directions = {table.labels[k][3] for k in np.unique(table.label[part]).tolist()}
        if len(directions) > 1:
            other = (directions - {first}).pop()
            raise DataError(f"mixed direction within group ({', '.join(key)}): {first!r} vs {other!r}")
        groups[key] = _take(table, part, scales, code, (*key, first))
    return groups


def _as_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise DataError(f"field {field!r} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            pass
    raise DataError(f"field {field!r} must be an integer, got {value!r}")


def _as_float(value, field: str) -> float:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)  # strips surrounding whitespace from a string
        except OverflowError:
            raise DataError(f"field {field!r} does not fit in float64") from None
        except ValueError:
            pass
    raise DataError(f"field {field!r} must be a number, got {value!r}")


def _missing(cell) -> bool:
    return cell is None or (isinstance(cell, str) and not cell.strip())


def _present(cell, field: str):
    if _missing(cell):
        raise DataError(f"missing field {field!r}")
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


def _record(row: dict) -> RunRecord:
    """One row checked in full.  The order of the statements, ending in the
    value-range and tokens-sign checks of :class:`RunRecord`, is the order of
    the checks, so a bad row raises its first failed check."""
    unknown = row.keys() - _FIELD_SET
    if unknown:
        raise DataError(f"unknown field {sorted(unknown)[0]!r}")
    cell = {field: None if _missing(row.get(field)) else row[field] for field in RECORD_FIELDS}
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


def _apply(check, cells: Sequence, seen: dict) -> Sequence:
    """``check`` applied to each cell, once per distinct cell where that is
    safe; ``seen`` keeps its results."""
    if not set(map(type, cells)) <= _PLAIN_CELLS:
        return list(map(check, cells))
    distinct = dict.fromkeys(cells)
    for cell in distinct.keys() - seen.keys():
        seen[cell] = check(cell)
    if all(seen[cell] is cell for cell in distinct):
        return cells
    return list(map(seen.__getitem__, cells))


def _values(cells: Sequence) -> list[float]:
    """The value column parsed in bulk; raises DataError unless every cell
    is a finite positive number."""
    if not set(map(type, cells)) <= {float, int, str}:
        raise DataError("value must be a number")
    try:
        values = list(map(float, cells))  # what _as_float does to each cell
    except (ValueError, OverflowError):
        raise DataError("value must be a number") from None
    v = np.array(values, dtype=float)
    if not (np.isfinite(v).all() and (v > 0).all()):
        raise DataError("value must be finite and positive")
    return values


class _Columns:
    """Checked columns of one file, added a chunk of rows at a time."""

    def __init__(self) -> None:
        self.seen: dict[str, dict] = {field: {} for field in _CHECKS}  # cell -> checked cell
        self.scale_of: dict[tuple, int] = {}  # checked cell triple -> scale index
        self.scales: dict[ScaleSpec, int] = {}
        self.labels: dict[tuple, int] = {}
        self.columns: dict[str, list] = {name: [] for name in ("code", "label", "value", "pre", "fin", "tokens")}
        self.defaulted = 0
        self.first_default: str | None = None

    def add(self, cells: dict, where: Sequence[int]) -> None:
        """Check one chunk's cells a column at a time and append them; ``where``
        numbers its rows.  A failed check raises DataError without naming a row."""
        col = {field: _apply(check, cells[field], self.seen[field]) for field, check in _CHECKS.items()}
        triples = list(zip(col["layers"], col["hidden"], col["params"]))
        for triple in dict.fromkeys(triples):  # in order of first appearance, which numbers the scales
            if triple not in self.scale_of:
                self.scale_of[triple] = self.scales.setdefault(_scale(*triple), len(self.scales))
        values = _values(cells["value"])

        pre, fin = col["pretrain_seed"], col["finetune_seed"]
        missing = [(seeds.index(None), k) for k, seeds in enumerate((pre, fin)) if None in seeds]
        if missing:
            row, k = min(missing)
            self.defaulted += pre.count(None) + fin.count(None)
            self.first_default = self.first_default or f"row {where[row]}:{('pretrain_seed', 'finetune_seed')[k]}"
        labels = list(zip(col["task"], col["family"], col["metric"], col["direction"]))
        for key in dict.fromkeys(labels):
            self.labels.setdefault(key, len(self.labels))
        out = self.columns
        out["code"] += map(self.scale_of.__getitem__, triples)
        out["label"] += map(self.labels.__getitem__, labels)
        out["value"] += values
        out["pre"] += [0 if s is None else s for s in pre]
        out["fin"] += [0 if s is None else s for s in fin]
        out["tokens"] += [-1 if t is None else t for t in col["tokens"]]

    def table(self) -> RecordTable:
        c = self.columns
        return RecordTable(
            tuple(self.scales),
            np.array(c["code"], dtype=np.intp),
            np.array(c["value"], dtype=float),
            np.column_stack((_ints(c["pre"]), _ints(c["fin"]))),
            _ints(c["tokens"]),
            tuple(self.labels),
            np.array(c["label"], dtype=np.intp),
        )


def _infer_format(path: Path, format: str | None) -> str:
    if format is not None:
        if format not in ("jsonl", "csv"):
            raise DataError(f"unknown format {format!r}; expected 'jsonl' or 'csv'")
        return format
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise DataError(f"cannot infer format from {path.name!r}; pass format='jsonl' or 'csv'")


def _numbered(items: list, numbers: np.ndarray, blank: Iterable[bool]) -> tuple:
    """The numbers and items of the items that are not ``blank``."""
    keep = np.flatnonzero(~np.fromiter(blank, bool, len(items)))
    return numbers[keep], items if keep.size == len(items) else [items[i] for i in keep.tolist()]


def _json_chunks(fh):
    """(line numbers, lines) of up to ``_CHUNK`` JSONL lines at a time, blank ones dropped."""
    for first in itertools.count(1, _CHUNK):
        lines = list(itertools.islice(fh, _CHUNK))
        if not lines:
            return
        yield _numbered(lines, first + np.arange(len(lines)), map(str.isspace, lines))


def _json_cells(lines: Sequence[str]) -> dict:
    """Per-field cells of a chunk of JSONL lines; raises DataError unless
    each line holds one JSON object of known fields."""
    objs = []
    braces = [set(map(str.count, lines, itertools.repeat(c))) for c in "{}"]
    if braces[0] == {1} == braces[1]:
        # With one brace pair per line, one value per line from the joined
        # lines means each line holds exactly one value.
        try:
            objs = json.loads("[" + ",".join(lines) + "]")
        except (ValueError, RecursionError):
            pass
    if len(objs) != len(lines):
        try:
            objs = list(map(json.loads, lines))
        except json.JSONDecodeError:
            raise DataError("invalid JSON") from None
    if not set(map(type, objs)) <= {dict} or not set().union(*objs) <= _FIELD_SET:
        raise DataError("expected JSON objects of known fields")
    return {field: list(map(dict.get, objs, itertools.repeat(field))) for field in RECORD_FIELDS}


def _json_record(line: str) -> RunRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    return _record(obj)


def _csv_chunks(reader):
    """(line numbers, rows) of up to ``_CHUNK`` CSV rows at a time, blank
    ones dropped; a row's number is the line it ends on.  A ``csv.Error``
    is raised once the rows read before it have been yielded."""
    while True:
        before, rows, error = reader.line_num, [], None
        try:
            rows.extend(itertools.islice(reader, _CHUNK))
        except csv.Error as exc:
            error = exc
        if rows:
            spans = np.ones(len(rows), dtype=np.intp)
            if reader.line_num - before != len(rows):  # a quoted cell holds line breaks
                spans[:] = [1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row) for row in rows]
            yield _numbered(rows, before + np.cumsum(spans), map(operator.not_, rows))
        if error is not None:
            raise error
        if not rows:
            return


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


def _csv_record(row: list[str], header: list[str]) -> RunRecord:
    if len(row) > len(header):
        raise DataError("more cells than header columns")
    return _record(dict(itertools.zip_longest(header, row)))


def _add_chunks(columns: _Columns, chunks, cells, record) -> None:
    """Add each chunk of ``(row numbers, rows)`` to ``columns`` by its
    ``cells``.  When a chunk fails its column checks, ``record`` checks its
    rows one by one, and the first that fails raises DataError."""
    for where, rows in chunks:
        try:
            columns.add(cells(rows), where)
        except DataError:
            for number, row in zip(where, rows):
                try:
                    record(row)
                except DataError as exc:
                    raise DataError(f"row {number}: {exc}") from None
            raise RuntimeError("a chunk failed its column checks but each of its rows passes")


def ingest(path: str | Path, format: str | None = None) -> RecordTable:
    """Read and validate experiment records from a JSONL or CSV file.

    Rows are parsed a chunk at a time and checked a column at a time.  A
    chunk that fails these checks is checked again a row at a time, and the
    first bad row in file order raises :class:`DataError` naming the row
    number and its first failed check.  Rows missing seed fields get seed 0
    and a single summary warning for the file.  Returns the columns as a
    :class:`RecordTable`, whose ``len`` is the row count.

    Parameters
    ----------
    path : file to read.
    format : "jsonl" or "csv"; inferred from the suffix when omitted.
    """
    path = Path(path)
    fmt = _infer_format(path, format)
    columns = _Columns()
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            _add_chunks(columns, _json_chunks(fh), _json_cells, _json_record)
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None:
                    raise DataError("row 1: missing CSV header")
                unknown = set(header) - _FIELD_SET
                if unknown:
                    raise DataError(f"row 1: unknown field {sorted(unknown)[0]!r} in CSV header")
                cells = functools.partial(_csv_cells, header=header)
                _add_chunks(columns, _csv_chunks(reader), cells, functools.partial(_csv_record, header=header))
            except csv.Error as exc:
                raise DataError(f"row {reader.line_num}: {exc}") from None

    if columns.defaulted:
        warnings.warn(
            f"{path.name}: {columns.defaulted} missing seed field(s) defaulted to 0 "
            f"(first: {columns.first_default})",
            stacklevel=2,
        )
    return columns.table()


def _record_to_mapping(r: RunRecord) -> dict:
    return {
        "layers": r.scale.layers,
        "hidden": r.scale.hidden,
        "params": r.scale.params,
        "task": r.task,
        "family": r.family,
        "pretrain_seed": r.pretrain_seed,
        "finetune_seed": r.finetune_seed,
        "metric": r.metric,
        "value": r.value,
        "direction": r.direction,
        "tokens": r.tokens,
    }


def emit(records: Iterable[RunRecord], path: str | Path, format: str | None = None) -> None:
    """Write records in the canonical schema; list(ingest(emit(x))) == x."""
    path = Path(path)
    fmt = _infer_format(path, format)
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                row = {k: v for k, v in _record_to_mapping(r).items() if v is not None}
                fh.write(json.dumps(row) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
            writer.writeheader()
            for r in records:
                row = {k: ("" if v is None else v) for k, v in _record_to_mapping(r).items()}
                writer.writerow(row)
