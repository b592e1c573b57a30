"""A content-keyed on-disk cache of ingested record tables.

The CLI reads every records file through :func:`read_table`.  A regular
file of at least ``MIN_BYTES`` has its table stored once, under a sha256 of
the file's bytes, and a later read of the same bytes, under any name, loads
the table instead of parsing the file again.  The key also covers this
package's own sources, the numpy and Python versions, the interpreter's
limit on integer string digits and the resolved format, so an entry is only
read by code that would parse the file to the same table.

An entry is one file: a JSON header line (the scales as ``[layers, hidden,
params]``, the labels, the seed-default warning's count and first row, and
each column's dtype and shape), then the raw little-endian bytes of the
columns ``code``, ``values``, ``seeds``, ``tokens`` and ``label``.  A load
is one read and ``np.frombuffer`` views of it; nothing is unpickled.  An
entry that fails any check of :func:`_decoded` is a miss, which parses the
file again and overwrites it.  The parse reads the file a second time, so a
miss hashes the file again after it and stores the table only where the
two digests agree: an entry holds the table of the bytes it is named by,
however the file changed while it was read.

The directory is ``$SCALEFIT_CACHE_DIR`` (an empty value turns the cache
off), else ``$XDG_CACHE_HOME/scalefit``, else ``~/.cache/scalefit``.
Entries are written whole (a temporary file, then ``os.replace``), and the
least recently used are deleted beyond ``MAX_BYTES``, so the directory may
be deleted at any time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError
from .records import DIRECTIONS, RecordTable, ScaleSpec, _infer_format, _parse, _warn_seed_defaults

MAX_BYTES = 256 * 2**20  # the entries' total size, beyond which the least recently used are deleted
# The smallest file cached.  A smaller one parses in about a millisecond or
# less (~17 us per KiB of JSONL), no more than an entry's write and rename
# add to a miss, so it is parsed on every read.
MIN_BYTES = 64 * 2**10
_BLOCK = 2**20  # the bytes of the input hashed at a time
_ENTRY = re.compile(r"[0-9a-f]{64}\.table")
# Each stored column in file order, and its dtype: the only dtypes a load takes.
_COLUMNS = {"code": "<i8", "values": "<f8", "seeds": "<i8", "tokens": "<i8", "label": "<i8"}
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


def _key(fh, format: str) -> str:
    """The entry name of the file ``fh`` read as ``format``: a sha256 of
    what decides its table, its bytes read ``_BLOCK`` at a time."""
    digest = hashlib.sha256(_sources())
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digest.update(f"{np.__version__}\0{sys.version}\0{digits}\0{format}\0".encode())
    while block := fh.read(_BLOCK):
        digest.update(block)
    return digest.hexdigest() + ".table"


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
    directory = cache_dir()
    key = None if directory is None else _file_key(path, format)
    loaded = None if key is None else _load(directory / key)
    if loaded is not None:
        table, defaults = loaded
        with contextlib.suppress(OSError):
            os.utime(directory / key)  # its use, for eviction
    else:
        table, defaults = _parse(path, format)
        # The parse read the file again: store its table only under the
        # digest of the bytes it read, which a second hash confirms.
        if key is not None and _file_key(path, format) == key:
            _store(directory / key, table, defaults)
    _warn_seed_defaults(path.name, defaults, stacklevel=stacklevel + 1)
    return table


def _file_key(path: Path, format: str | None) -> str | None:
    """The entry name of ``path`` if it is a regular file of at least
    ``MIN_BYTES`` whose format is known and whose bytes can be read, else
    None: the parse reports the rest."""
    with contextlib.suppress(DataError, OSError):
        fmt = _infer_format(path, format)
        st = os.stat(path)
        if stat.S_ISREG(st.st_mode) and st.st_size >= MIN_BYTES:
            with open(path, "rb", buffering=0) as fh:
                return _key(fh, fmt)
    return None


def _store(entry: Path, table: RecordTable, defaults: tuple[int, str] | None) -> None:
    """Write the entry of ``table``, unless a column holds Python ints (one
    past int64) or is not little-endian; then evict.  An OSError leaves the
    cache as it is."""
    columns = {name: getattr(table, name) for name in _COLUMNS}
    if any(column.dtype.str != dtype for column, dtype in zip(columns.values(), _COLUMNS.values())):
        return
    header = json.dumps({
        "scales": [[s.layers, s.hidden, s.params] for s in table.scales],
        "labels": table.labels,
        "seed_defaults": defaults,
        "columns": [[name, column.dtype.str, column.shape] for name, column in columns.items()],
    }, separators=(",", ":"))
    head = (header + " " * (-(len(header) + 1) % 8) + "\n").encode()  # ASCII; the columns start 8-aligned
    with contextlib.suppress(OSError):
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=entry.parent, prefix=".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(head)
                for column in columns.values():
                    fh.write(np.ascontiguousarray(column).data)
            os.replace(temp, entry)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
        _evict(entry.parent)


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


def _load(entry: Path) -> tuple[RecordTable, tuple[int, str] | None] | None:
    """The table and seed defaults that ``entry`` holds, or None where it
    cannot be read or fails a check."""
    try:
        with open(entry, "rb") as fh:
            data = fh.read()
        return _decoded(data)
    except (OSError, ValueError, TypeError, LookupError, RecursionError, DataError):
        return None


def _check(holds: bool) -> None:
    if not holds:
        raise ValueError("not a table entry")


def _scale(layers, hidden, params) -> ScaleSpec:
    _check(type(params) is int and all(type(d) is int or d is None for d in (layers, hidden)))
    return ScaleSpec(layers, hidden, params)  # raises DataError unless it is a scale


def _label(*cells) -> tuple[str, str, str, str]:
    _check(len(cells) == 4 and all(type(c) is str and c for c in cells) and cells[3] in DIRECTIONS)
    return cells


def _decoded(data: bytes) -> tuple[RecordTable, tuple[int, str] | None]:
    """The table and seed defaults of an entry's bytes; ValueError, or
    another exception :func:`_load` catches, where any check fails: the
    header's fields and types, each column's dtype and shape, the exact byte
    length, ``code`` and ``label`` indexing ``scales`` and ``labels``, and
    each value finite and positive."""
    start = data.index(b"\n") + 1
    header = json.loads(data[:start])
    _check(type(header) is dict and set(header) == {"scales", "labels", "seed_defaults", "columns"})
    scales = tuple(_scale(*scale) for scale in header["scales"])
    labels = tuple(_label(*label) for label in header["labels"])
    _check(len(set(scales)) == len(scales) and len(set(labels)) == len(labels))
    defaults = header["seed_defaults"]
    if defaults is not None:
        count, first = defaults
        _check(type(count) is int and count > 0 and type(first) is str and _FIRST_DEFAULT.fullmatch(first))
        defaults = (count, first)
    rows = header["columns"][0][2][0]
    _check(type(rows) is int and rows >= 0)
    shapes = {name: [rows, 2] if name == "seeds" else [rows] for name in _COLUMNS}
    _check(header["columns"] == [[name, dtype, shapes[name]] for name, dtype in _COLUMNS.items()])
    _check(len(data) == start + 8 * rows * 6)  # seeds holds two of the six numbers of a row
    arrays, offset = {}, start
    for name, dtype in _COLUMNS.items():
        count = rows * (2 if name == "seeds" else 1)
        arrays[name] = np.frombuffer(data, dtype, count, offset).reshape(shapes[name])
        offset += 8 * count
    code, values, label = arrays["code"], arrays["values"], arrays["label"]
    if rows:
        _check(0 <= code.min() and code.max() < len(scales) and 0 <= label.min() and label.max() < len(labels))
        _check(bool(np.isfinite(values).all() and (values > 0).all()))
    return RecordTable(scales, code, values, arrays["seeds"], arrays["tokens"], labels, label), defaults
