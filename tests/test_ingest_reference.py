"""Columnar ingest and group against a row-by-row reference.

The reference validates one row at a time, in the order the checks of a
single row run, builds a ``RunRecord`` per row and sorts records with a
Python key: the behaviour ``ingest``/``group`` must keep.  Generated files
mix valid rows with every kind of bad cell, blank lines, broken JSON,
short, long and multi-line CSV rows, and run with tiny chunks so that
faults and blank runs straddle chunk boundaries.
"""

import csv
import io
import json
import random
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.errors import DataError
from scalefit.records import RECORD_FIELDS, _as_float, _as_int


def reference_record(obj, where, seed_defaults):
    try:
        unknown = set(obj) - set(RECORD_FIELDS)
        if unknown:
            raise DataError(f"unknown field {sorted(unknown)[0]!r}")

        def get(field):
            v = obj.get(field)
            return None if v is None or (isinstance(v, str) and v.strip() == "") else v

        layers, hidden, params = get("layers"), get("hidden"), get("params")
        if layers is not None or hidden is not None:
            if layers is None or hidden is None:
                missing = "layers" if layers is None else "hidden"
                raise DataError(f"field {missing!r} required when the other dimension is given")
            scale = sf.ScaleSpec.from_dims(
                _as_int(layers, "layers"),
                _as_int(hidden, "hidden"),
                None if params is None else _as_int(params, "params"),
            )
        elif params is not None:
            scale = sf.ScaleSpec.from_params(_as_int(params, "params"))
        else:
            raise DataError("need fields 'layers'+'hidden' or 'params'")
        for field in ("task", "family", "metric", "direction"):
            if get(field) is None:
                raise DataError(f"missing field {field!r}")
        seeds = {}
        for field in ("pretrain_seed", "finetune_seed"):
            raw = get(field)
            if raw is None:
                seed_defaults.append(f"{where}:{field}")
            seeds[field] = 0 if raw is None else _as_int(raw, field)
        tokens = get("tokens")
        return sf.RunRecord(
            scale=scale,
            task=str(get("task")),
            family=str(get("family")),
            metric=str(get("metric")),
            value=_as_float(get("value"), "value"),
            direction=sf.normalize_direction(get("direction")),
            tokens=None if tokens is None else _as_int(tokens, "tokens"),
            **seeds,
        )
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def reference_ingest(path):
    seed_defaults, records = [], []
    if path.suffix == ".jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"row {lineno}: invalid JSON ({exc.msg})") from None
                if not isinstance(obj, dict):
                    raise DataError(f"row {lineno}: expected a JSON object")
                records.append(reference_record(obj, f"row {lineno}", seed_defaults))
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError("row 1: missing CSV header")
            unknown = set(reader.fieldnames) - set(RECORD_FIELDS)
            if unknown:
                raise DataError(f"row 1: unknown field {sorted(unknown)[0]!r} in CSV header")
            for row in reader:
                if None in row:
                    raise DataError(f"row {reader.line_num}: more cells than header columns")
                records.append(reference_record(row, f"row {reader.line_num}", seed_defaults))
    if seed_defaults:
        warnings.warn(
            f"{path.name}: {len(seed_defaults)} missing seed field(s) defaulted to 0 "
            f"(first: {seed_defaults[0]})"
        )
    return records


def reference_group(records):
    def key(r):
        s = r.scale
        layers, hidden, tokens = (-1 if v is None else v for v in (s.layers, s.hidden, r.tokens))
        return (s.params, layers, hidden, r.pretrain_seed, r.finetune_seed, r.value, tokens)

    buckets = {}
    for r in sorted(records, key=key):
        buckets.setdefault((r.task, r.family, r.metric), []).append(r)
    for k, rs in buckets.items():
        other = next((r.direction for r in rs if r.direction != rs[0].direction), None)
        if other is not None:
            raise DataError(f"mixed direction within group ({', '.join(k)}): {rs[0].direction!r} vs {other!r}")
    return {k: tuple(buckets[k]) for k in sorted(buckets)}


NUMBERS = [1, 2, 0, -1, 12288, 10**30, 2**63, 2**70, 10**400, 2.0, 2.5, True, "4", " 5 ", "+12", "1_000",
           "abc", "", "  ", None, [1], float("nan"), float("inf"), -0.0, "١٢", 1e300]
CELLS = {
    "layers": NUMBERS, "hidden": NUMBERS, "params": NUMBERS, "pretrain_seed": NUMBERS,
    "finetune_seed": NUMBERS, "task": ["t", "", "  ", None, 5, 5.0, True, [1], "x{y}"],
    "family": ["mlm", "", None, 0.0], "metric": ["f1", "loss", "", None],
    "direction": ["max", "min", "minimize", " MAX ", "up", "", None, 1],
    "value": [2.5, 50, 0, -1, float("nan"), float("inf"), "3.5", " 4 ", "abc", "  ", None, True, 10**400, "1e999"],
    "tokens": [None, 0, 100, -5, 2**70, "12", "", "x", 3.0, 3.5],
}


def good_row(rng):
    layers = rng.choice([1, 2, 3])
    row = dict(layers=layers, hidden=32 * layers, task=rng.choice("tu"), family="mlm",
               metric=rng.choice(["f1", "loss"]), pretrain_seed=rng.randint(0, 2),
               finetune_seed=rng.randint(0, 3), value=rng.choice([1.5, 2.0, 7]), direction="max")
    if rng.random() < 0.3:
        row["tokens"] = rng.randint(0, 1000)
    if rng.random() < 0.2:
        del row["layers"], row["hidden"]
        row["params"] = rng.choice([12288, 98304, 999, 10**30])  # 12288, 98304: also AR-32 L=1, 2
    return row


def messy_row(rng, bad_rate):
    row = good_row(rng)
    if rng.random() < bad_rate:
        for field in rng.sample(RECORD_FIELDS, rng.randint(1, 3)):
            row[field] = rng.choice(CELLS[field])
        if rng.random() < 0.1:
            row["shoe_size"] = 43
    return row


def jsonl_text(rng, n, bad_rate):
    lines = []
    for _ in range(n):
        x = rng.random()
        if x < 0.05:
            lines.append(rng.choice(["\n", "  \t\n", "{bad json\n", "[1, 2]\n", '{"a": 1}, {"b": 2}\n']))
            continue
        row = {k: v for k, v in messy_row(rng, bad_rate).items() if v is not None or rng.random() < 0.5}
        text = json.dumps(row)
        lines.append(("  " + text + "  " if x < 0.08 else text) + "\n")
    return "".join(lines)


def csv_text(rng, n, bad_rate):
    header = list(RECORD_FIELDS)
    if rng.random() < 0.2:
        header = rng.choice([[h for h in header if rng.random() < 0.8], header + ["value"], header + ["shoe_size"]])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=rng.choice(["\n", "\r\n"]))
    writer.writerow(header)
    for _ in range(n):
        row = messy_row(rng, bad_rate)
        cells = ["" if row.get(h) is None else str(row.get(h)) for h in header]
        x = rng.random()
        if x < 0.04:
            buf.write("\n")
            continue
        if x < 0.07:
            cells = cells[: rng.randrange(len(cells) + 1)]
        elif x < 0.09:
            cells.append("extra")
        elif x < 0.12 and cells:
            cells[0] += rng.choice(["\nmore", "\r\nmore", "\rmore", "\n\n"])
        writer.writerow(cells)
    return buf.getvalue()


def reference_scales(records):
    return tuple(dict.fromkeys(r.scale for r in records))


def outcome(ingest, group, scales, path):
    """The records or the error, the warnings, the distinct scales in order of
    first appearance, and the groups or their error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = ingest(path)
        except DataError as exc:
            return str(exc), [], None, None
    try:
        groups = group(table)
    except DataError as exc:
        groups = str(exc)
    return list(table), [str(w.message) for w in caught], scales(table), groups


def columnar_groups(table):
    return {k: rs.records for k, rs in sf.group(table).items()}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["jsonl", "csv"]),
    chunk=st.sampled_from([1, 2, 3, 5, 4096]),
    bad_rate=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
)
def test_ingest_and_group_match_the_row_by_row_reference(tmp_path, seed, fmt, chunk, bad_rate):
    rng = random.Random(seed)
    path = tmp_path / f"runs.{fmt}"
    text = (jsonl_text if fmt == "jsonl" else csv_text)(rng, rng.randint(0, 12), bad_rate)
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf.records, "_CHUNK", chunk)
        got = outcome(sf.ingest, columnar_groups, lambda table: table.scales, path)
    assert got == expected


# One bad cell each, covering every check a row runs; None drops the field.
FAULTS = [
    ("layers", "abc"), ("layers", 0), ("hidden", None), ("hidden", 2.5), ("params", -1),
    ("task", ""), ("family", None), ("metric", "  "), ("direction", None), ("direction", "up"),
    ("pretrain_seed", "x"), ("finetune_seed", True), ("value", "abc"), ("value", -1.0),
    ("value", float("nan")), ("tokens", "x"), ("tokens", -5), ("shoe_size", 43),
    ("params", 10**400), ("layers", True), ("value", "1e999"), ("tokens", 2.5),
]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_two_faults_in_one_row_report_the_first_check(tmp_path, fmt):
    path = tmp_path / f"runs.{fmt}"
    base = dict(good_row(random.Random(0)), tokens=10)
    for (f1, v1), (f2, v2) in ((a, b) for i, a in enumerate(FAULTS) for b in FAULTS[i + 1:]):
        if f1 == f2 or (fmt == "csv" and "shoe_size" in (f1, f2)):
            continue
        row = {k: v for k, v in {**base, f1: v1, f2: v2}.items() if v is not None}
        if fmt == "jsonl":
            path.write_text(json.dumps(base) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
        else:
            lines = [RECORD_FIELDS, *([str(r.get(h, "")) for h in RECORD_FIELDS] for r in (base, row))]
            path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
        expected = outcome(reference_ingest, reference_group, reference_scales, path)
        assert expected[0].startswith("row 2: " if fmt == "jsonl" else "row 3: ")  # the second row
        assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected
