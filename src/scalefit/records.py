"""Canonical experiment records and flat-file ingestion.

The on-disk schema is one record per row with the keys ``layers, hidden,
params, task, family, pretrain_seed, finetune_seed, metric, value,
direction, tokens``.  ``params`` may be given instead of ``layers`` and
``hidden`` (depth-aware operations will then reject the record), and
``tokens`` is optional, used only for FLOP accounting.  JSONL carries one
object per line; CSV uses the same keys as a header row, UTF-8, comma
separated, ``.`` decimal point.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
        if not math.isfinite(self.value):
            raise DataError("value must be a finite number")
        if self.value <= 0:
            raise DataError("value must be positive")
        if self.direction not in ("maximize", "minimize"):
            raise DataError(f"unknown direction token {self.direction!r}")
        if self.tokens is not None and self.tokens < 0:
            raise DataError(f"tokens must be nonnegative, got {self.tokens}")


def _record_sort_key(r: RunRecord):
    # Canonical ordering must be a pure function of field values so that a
    # RunSet never depends on insertion order.  It leads with the whole
    # scale, so each scale's records form one contiguous slice.
    return (
        r.scale.params,
        -1 if r.scale.layers is None else r.scale.layers,
        -1 if r.scale.hidden is None else r.scale.hidden,
        r.pretrain_seed,
        r.finetune_seed,
        r.value,
        -1 if r.tokens is None else r.tokens,
    )


@dataclass(frozen=True)
class RunSet:
    """All records for one (task, family, metric), canonically ordered.

    Build it with :meth:`from_records`.  Construction derives, once, the
    distinct ``scales`` (ascending by parameter count) with their record
    counts ``sizes``, and columns aligned with ``records``: each record's
    ``code`` (its index into ``scales``) and the floats ``params``,
    ``values`` and ``layers`` (NaN where the depth is unknown).  The
    column arrays are read-only.
    """

    task: str
    family: str
    metric: str
    direction: str
    records: tuple[RunRecord, ...]

    def __post_init__(self) -> None:
        scale_of = [r.scale for r in self.records]
        starts = [i for i in range(len(scale_of)) if i == 0 or scale_of[i] != scale_of[i - 1]]
        scales = tuple(scale_of[i] for i in starts)
        sizes = np.diff(starts + [len(scale_of)])
        code = np.repeat(np.arange(len(scales)), sizes)
        depth = [math.nan if s.layers is None else s.layers for s in scales]
        columns = dict(
            scales=scales,
            sizes=sizes,
            code=code,
            params=np.array([s.params for s in scales], dtype=float)[code],
            values=np.array([r.value for r in self.records], dtype=float),
            layers=np.array(depth, dtype=float)[code],
        )
        for name, value in columns.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # frozen like the records they mirror
            object.__setattr__(self, name, value)

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "RunSet":
        recs = sorted(records, key=_record_sort_key)
        if not recs:
            raise DataError("cannot build a run set from zero records")
        first = recs[0]
        for r in recs[1:]:
            if r.task != first.task or r.family != first.family or r.metric != first.metric:
                raise DataError(
                    "records disagree on (task, family, metric): "
                    f"({first.task}, {first.family}, {first.metric}) vs "
                    f"({r.task}, {r.family}, {r.metric})"
                )
            if r.direction != first.direction:
                raise DataError(
                    f"mixed direction within group ({first.task}, {first.family}, "
                    f"{first.metric}): {first.direction!r} vs {r.direction!r}"
                )
        return cls(
            task=first.task,
            family=first.family,
            metric=first.metric,
            direction=first.direction,
            records=tuple(recs),
        )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_scales(self) -> int:
        return len(self.scales)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Record count per distinct scale, aligned with ``scales``."""
        return tuple(self.sizes.tolist())

    def scale_groups(self) -> tuple[tuple[int, ...], ...]:
        """Record indices per distinct scale, aligned with ``scales``."""
        ends = np.cumsum(self.sizes).tolist()
        return tuple(tuple(range(end - n, end)) for end, n in zip(ends, self.sizes.tolist()))

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
        return RunSet.from_records(itertools.compress(self.records, mask))


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


def _record_from_mapping(obj: Mapping, where: str, seed_defaults: list[str]) -> RunRecord:
    """Validate one row; every error is prefixed, once, with ``where`` (the row)."""
    try:
        unknown = set(obj) - set(RECORD_FIELDS)
        if unknown:
            raise DataError(f"unknown field {sorted(unknown)[0]!r}")

        def get(field):
            v = obj.get(field)
            if v is None or (isinstance(v, str) and v.strip() == ""):
                return None
            return v

        layers = get("layers")
        hidden = get("hidden")
        params = get("params")
        if layers is not None or hidden is not None:
            if layers is None or hidden is None:
                missing = "layers" if layers is None else "hidden"
                raise DataError(f"field {missing!r} required when the other dimension is given")
            scale = ScaleSpec.from_dims(
                _as_int(layers, "layers"),
                _as_int(hidden, "hidden"),
                None if params is None else _as_int(params, "params"),
            )
        elif params is not None:
            scale = ScaleSpec.from_params(_as_int(params, "params"))
        else:
            raise DataError("need fields 'layers'+'hidden' or 'params'")

        for field in ("task", "family", "metric", "direction"):
            if get(field) is None:
                raise DataError(f"missing field {field!r}")

        seeds = {}
        for field in ("pretrain_seed", "finetune_seed"):
            raw = get(field)
            if raw is None:
                seeds[field] = 0
                seed_defaults.append(f"{where}:{field}")
            else:
                seeds[field] = _as_int(raw, field)

        tokens = get("tokens")
        return RunRecord(
            scale=scale,
            task=str(get("task")),
            family=str(get("family")),
            pretrain_seed=seeds["pretrain_seed"],
            finetune_seed=seeds["finetune_seed"],
            metric=str(get("metric")),
            value=_as_float(get("value"), "value"),
            direction=normalize_direction(get("direction")),
            tokens=None if tokens is None else _as_int(tokens, "tokens"),
        )
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


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


def ingest(path: str | Path, format: str | None = None) -> list[RunRecord]:
    """Read and validate experiment records from a JSONL or CSV file.

    Rows failing validation raise :class:`DataError` naming the row number
    and offending field.  Rows missing seed fields get seed 0 and a single
    summary warning for the file.

    Parameters
    ----------
    path : file to read.
    format : "jsonl" or "csv"; inferred from the suffix when omitted.
    """
    path = Path(path)
    fmt = _infer_format(path, format)
    seed_defaults: list[str] = []
    records: list[RunRecord] = []

    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"row {lineno}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{where}: invalid JSON ({exc.msg})") from None
                if not isinstance(obj, dict):
                    raise DataError(f"{where}: expected a JSON object")
                records.append(_record_from_mapping(obj, where, seed_defaults))
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError("row 1: missing CSV header")
            unknown = set(reader.fieldnames) - set(RECORD_FIELDS)
            if unknown:
                raise DataError(f"row 1: unknown field {sorted(unknown)[0]!r} in CSV header")
            for row in reader:
                where = f"row {reader.line_num}"
                if None in row:
                    raise DataError(f"{where}: more cells than header columns")
                records.append(_record_from_mapping(row, where, seed_defaults))

    if seed_defaults:
        warnings.warn(
            f"{path.name}: {len(seed_defaults)} missing seed field(s) defaulted to 0 "
            f"(first: {seed_defaults[0]})",
            stacklevel=2,
        )
    return records


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


def emit(records: Sequence[RunRecord], path: str | Path, format: str | None = None) -> None:
    """Write records in the canonical schema; ingest(emit(x)) == x."""
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


def group(records: Iterable[RunRecord]) -> dict[tuple[str, str, str], RunSet]:
    """Partition records into RunSets keyed by (task, family, metric).

    Every record lands in exactly one RunSet; a direction disagreement
    within a key raises :class:`DataError`.
    """
    buckets: dict[tuple[str, str, str], list[RunRecord]] = {}
    for r in records:
        buckets.setdefault((r.task, r.family, r.metric), []).append(r)
    return {key: RunSet.from_records(rs) for key, rs in sorted(buckets.items())}
