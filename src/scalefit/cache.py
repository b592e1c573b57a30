"""A content-keyed on-disk cache of ingested record tables and loss curves.

The CLI reads every records file through :func:`read_table` and every loss
curve through :func:`read_curve`.  A regular file of at least ``MIN_BYTES``
has what it parses to stored once, under a sha256 of the file's bytes, and
a later read of the same bytes as the same kind, under any name, loads it
instead of parsing the file again.  The key also covers the kind (a table
or a curve), this package's own sources, the numpy and Python versions,
the interpreter's limit on integer string digits and the resolved format,
so an entry is only read by code that would parse the file to the same
value.  A table is stored on its bytes' first read.  A loss curve is often
the log of a run still training, whose bytes change between reads, so a
curve is stored on its bytes' second read: the first only adds its key to
the ``seen`` file (see :func:`_admitted`).  The library's
:func:`~scalefit.records.ingest` and
:func:`~scalefit.diagnose.load_loss_curve` never use the cache.

An entry is one file: a JSON header line, then the raw little-endian bytes
of its kind's columns.  A table's header holds the scales as ``[layers,
hidden, params]``, the labels, the seed-default warning's count and first
row, and each column's dtype and shape, and its columns are ``code``,
``values``, ``seeds``, ``tokens`` and ``label``; a curve's header holds
only its columns' dtypes and shapes, and its columns are ``steps`` and
``losses``.  A load is one read and ``np.frombuffer`` views of it; nothing
is unpickled.  An entry that fails any check of :func:`_decoded` is a
miss, which parses the file again and overwrites it.  The parse reads the
file a second time, so a miss hashes the file again after it and stores
the value only where the two digests agree: an entry holds the parse of
the bytes it is named by, however the file changed while it was read.

The directory is ``$SCALEFIT_CACHE_DIR`` (an empty value turns the cache
off), else ``$XDG_CACHE_HOME/scalefit``, else ``~/.cache/scalefit``.
Entries of both kinds and the ``seen`` file are written whole (a temporary
file, then ``os.replace``), and the least recently used entries are deleted
beyond ``MAX_BYTES``, so the directory may be deleted at any time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import re
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from .diagnose import LossCurve, _checked_curve, load_loss_curve
from .errors import DataError
from .records import DIRECTIONS, RecordTable, ScaleSpec, _infer_format, _parse, _warn_seed_defaults

MAX_BYTES = 256 * 2**20  # the entries' total size, beyond which the least recently used are deleted
# The smallest file cached.  A smaller one parses in about a millisecond or
# less (~17 us per KiB of JSONL), no more than an entry's write and rename
# add to a miss, so it is parsed on every read.
MIN_BYTES = 64 * 2**10
_BLOCK = 2**20  # the bytes of the input hashed at a time
SEEN_KEYS = 64  # the keys of curves read once that the ``seen`` file keeps, the most recent last
_ENTRY = re.compile(r"[0-9a-f]{64}\.(?:table|curve)")  # an entry's name: its key, then its kind
# Each kind's stored columns in file order, and their dtypes: the only dtypes a load takes.
_COLUMNS = {
    "table": {"code": "<i8", "values": "<f8", "seeds": "<i8", "tokens": "<i8", "label": "<i8"},
    "curve": {"steps": "<i8", "losses": "<f8"},
}
_FIRST_DEFAULT = re.compile(r"row [1-9]\d*:(pretrain|finetune)_seed")  # the seed defaults' first cell


def cache_dir() -> Path | None:
    """The cache directory, or None when the cache is off."""
    chosen = os.environ.get("SCALEFIT_CACHE_DIR")
    if chosen is not None:
        return Path(chosen) if chosen else None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "scalefit") if os.path.isabs(base) else None


@functools.cache
def _sources() -> bytes:
    """A digest of this package's own sources, which decide what a parse returns."""
    digest = hashlib.sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        data = source.read_bytes()
        digest.update(f"{source.name}\0{len(data)}\0".encode() + data)
    return digest.digest()


def _key(fh, kind: str, format: str) -> str:
    """The entry name of the file ``fh`` read as a ``kind`` (table or
    curve) in ``format``: a sha256 of what decides its value, its bytes
    read ``_BLOCK`` at a time, then the kind."""
    digest = hashlib.sha256(_sources())
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digest.update(f"{np.__version__}\0{sys.version}\0{digits}\0{kind} {format}\0".encode())
    while block := fh.read(_BLOCK):
        digest.update(block)
    return f"{digest.hexdigest()}.{kind}"


def read_table(path, format: str | None = None, stacklevel: int = 1) -> RecordTable:
    """What :func:`scalefit.records.ingest` returns for ``path``, loaded
    from the cache where a regular file's bytes were parsed before, and
    stored there after a parse otherwise.  Any other input (a pipe, a FIFO,
    a file that is gone or under ``MIN_BYTES``) is parsed alone, so every
    error is the parse's own.
    The seed-default warning names the file given, alike on a hit, on a miss
    and with the cache off; ``stacklevel`` picks the line it is reported
    for, as ``warnings.warn`` counts it from the caller of this function."""
    path = Path(path)
    table, defaults = _read(path, "table", format, lambda: _parse(path, format), _table_columns)
    _warn_seed_defaults(path.name, defaults, stacklevel=stacklevel + 1)
    return table


def read_curve(path) -> LossCurve:
    """What :func:`scalefit.diagnose.load_loss_curve` returns for ``path``,
    read through the cache as :func:`read_table` reads a CSV records file,
    but stored on the second read of its bytes (see :func:`_admitted`)."""
    path = Path(path)
    return _read(path, "curve", "csv", lambda: load_loss_curve(path), _curve_columns)


def _read(path: Path, kind: str, format: str | None, parse, columns):
    """The value of ``kind`` that an entry of ``path``'s bytes holds, else
    ``parse()``, stored as the header fields and columns that ``columns``
    makes of it where ``path`` hashes alike before and after the parse."""
    directory = cache_dir()
    key = None if directory is None else _file_key(path, kind, format)
    loaded = None if key is None else _load(directory / key)
    if loaded is not None:
        with contextlib.suppress(OSError):
            os.utime(directory / key)  # its use, for eviction
        return loaded
    value = parse()
    # The parse read the file again: store its value only under the digest
    # of the bytes it read, which a second hash confirms.
    if key is not None and _admitted(directory, key) and _file_key(path, kind, format) == key:
        _store(directory / key, *columns(value))
    return value


def _admitted(directory: Path, key: str) -> bool:
    """Whether the parse of the bytes named ``key`` is to be stored: a
    table's always, a curve's where the same bytes were read as a curve
    before.  Otherwise the key is added to ``directory``'s ``seen`` file,
    which keeps the last ``SEEN_KEYS`` of them, so the bytes of a curve that
    grows between reads never write an entry that no read would load, nor
    push tables out of ``MAX_BYTES``."""
    if not key.endswith(".curve"):
        return True
    seen = directory / "seen"
    try:
        keys = seen.read_bytes().split()
    except OSError:
        keys = []
    if key.encode() in keys:
        return True
    with contextlib.suppress(OSError):
        _write(seen, [b"\n".join([*keys[len(keys) + 1 - SEEN_KEYS:], key.encode()]) + b"\n"])
    return False


def _file_key(path: Path, kind: str, format: str | None) -> str | None:
    """The entry name of ``path`` read as ``kind`` if it is a regular file
    of at least ``MIN_BYTES`` whose format is known and whose bytes can be
    read, else None: the parse reports the rest."""
    with contextlib.suppress(DataError, OSError):
        fmt = _infer_format(path, format)
        st = os.stat(path)
        if stat.S_ISREG(st.st_mode) and st.st_size >= MIN_BYTES:
            with open(path, "rb", buffering=0) as fh:
                return _key(fh, kind, fmt)
    return None


def _table_columns(parsed: tuple[RecordTable, tuple[int, str] | None]) -> tuple[dict, dict]:
    """The header fields and the columns of a table's entry."""
    table, defaults = parsed
    fields = {"scales": [[s.layers, s.hidden, s.params] for s in table.scales], "labels": table.labels,
              "seed_defaults": defaults}
    return fields, {name: getattr(table, name) for name in _COLUMNS["table"]}


def _curve_columns(curve: LossCurve) -> tuple[dict, dict]:
    """The header fields (none) and the columns of a curve's entry; steps
    past int64 stay Python ints, which ``_store`` does not store."""
    n = len(curve.steps)
    try:
        steps = np.fromiter(curve.steps, np.int64, n)
    except OverflowError:
        steps = np.array(curve.steps, dtype=object)
    return {}, {"steps": steps, "losses": np.fromiter(curve.losses, np.float64, n)}


def _store(entry: Path, fields: dict, columns: dict) -> None:
    """Write the entry of ``fields`` and ``columns``, unless a column holds
    Python ints (one past int64) or is not little-endian; then evict.  An
    OSError leaves the cache as it is."""
    if [column.dtype.str for column in columns.values()] != list(_COLUMNS[entry.suffix[1:]].values()):
        return
    header = json.dumps({**fields, "columns": [[name, column.dtype.str, column.shape] for name, column in
                                               columns.items()]}, separators=(",", ":"))
    head = (header + " " * (-(len(header) + 1) % 8) + "\n").encode()  # ASCII; the columns start 8-aligned
    with contextlib.suppress(OSError):
        _write(entry, [head, *(np.ascontiguousarray(column).data for column in columns.values())])
        _evict(entry.parent)


def _write(path: Path, chunks) -> None:
    """Write ``chunks`` to ``path`` whole: a temporary file of its
    directory, made if need be, then ``os.replace``."""
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def _evict(directory: Path) -> None:
    """Delete the least recently used entries of ``directory`` (by mtime)
    until the rest total at most ``MAX_BYTES``."""
    entries = []
    with os.scandir(directory) as found:
        for item in found:
            if _ENTRY.fullmatch(item.name) and item.is_file(follow_symlinks=False):
                st = item.stat(follow_symlinks=False)
                entries.append((st.st_mtime_ns, st.st_size, item.path))
    total = sum(size for _, size, _ in entries)
    for _, size, name in sorted(entries):
        if total <= MAX_BYTES:
            break
        with contextlib.suppress(OSError):
            os.remove(name)
            total -= size


def _load(entry: Path):
    """The value that ``entry`` holds, or None where it cannot be read or
    fails a check."""
    try:
        with open(entry, "rb") as fh:
            data = fh.read()
        return _decoded(data, entry.suffix[1:])
    except (OSError, ValueError, TypeError, LookupError, RecursionError, DataError):
        return None


def _check(holds: bool) -> None:
    if not holds:
        raise ValueError("not an entry")


def _scale(layers, hidden, params) -> ScaleSpec:
    _check(type(params) is int and all(type(d) is int or d is None for d in (layers, hidden)))
    return ScaleSpec(layers, hidden, params)  # raises DataError unless it is a scale


def _label(*cells) -> tuple[str, str, str, str]:
    _check(len(cells) == 4 and all(type(c) is str and c for c in cells) and cells[3] in DIRECTIONS)
    return cells


def _decoded(data: bytes, kind: str):
    """The value of the bytes of an entry of ``kind``; ValueError, or
    another exception :func:`_load` catches, where any check fails: the
    header's columns, each column's dtype and shape, the exact byte length,
    then the checks of the kind, :func:`_decoded_table` or
    :func:`_decoded_curve`."""
    start = data.index(b"\n") + 1
    header = json.loads(data[:start])
    _check(type(header) is dict)
    rows = header["columns"][0][2][0]
    _check(type(rows) is int and rows >= 0)
    shapes = {name: [rows, 2] if name == "seeds" else [rows] for name in _COLUMNS[kind]}  # seeds: two a row
    _check(header.pop("columns") == [[name, dtype, shapes[name]] for name, dtype in _COLUMNS[kind].items()])
    counts = [math.prod(shape) for shape in shapes.values()]
    _check(len(data) == start + 8 * sum(counts))
    arrays, offset = {}, start
    for (name, dtype), count in zip(_COLUMNS[kind].items(), counts):
        arrays[name] = np.frombuffer(data, dtype, count, offset).reshape(shapes[name])
        offset += 8 * count
    return (_decoded_table if kind == "table" else _decoded_curve)(header, **arrays)


def _decoded_table(header: dict, code, values, seeds, tokens, label) -> tuple[RecordTable, tuple[int, str] | None]:
    """The table and seed defaults of a table entry's header fields and
    columns, checked: the fields and their types, ``code`` and ``label``
    indexing ``scales`` and ``labels``, and each value finite and positive."""
    _check(set(header) == {"scales", "labels", "seed_defaults"})
    scales = tuple(_scale(*scale) for scale in header["scales"])
    labels = tuple(_label(*label) for label in header["labels"])
    _check(len(set(scales)) == len(scales) and len(set(labels)) == len(labels))
    defaults = header["seed_defaults"]
    if defaults is not None:
        count, first = defaults
        _check(type(count) is int and count > 0 and type(first) is str and _FIRST_DEFAULT.fullmatch(first))
        defaults = (count, first)
    if len(code):
        _check(0 <= code.min() and code.max() < len(scales) and 0 <= label.min() and label.max() < len(labels))
        _check(bool(np.isfinite(values).all() and (values > 0).all()))
    return RecordTable(scales, code, values, seeds, tokens, labels, label), defaults


def _decoded_curve(header: dict, steps, losses) -> LossCurve:
    """The curve of a curve entry's columns, checked by the curve's own
    rules: a point at least, steps strictly increasing, and each loss
    finite and positive."""
    _check(header == {} and len(steps) > 0 and bool((steps[1:] > steps[:-1]).all()))
    _check(bool(np.isfinite(losses).all() and (losses > 0).all()))
    return _checked_curve(tuple(steps.tolist()), tuple(losses.tolist()))
