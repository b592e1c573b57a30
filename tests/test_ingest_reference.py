"""Columnar ingest and group against a row-by-row reference.

The reference validates one row at a time, in the order the checks of a
single row run, builds a ``RunRecord`` per row and sorts records with a
Python key: the behaviour ``ingest``/``group`` must keep.  Generated files
mix valid rows with every kind of bad cell, blank lines, broken JSON, JSON
objects that repeat a key, short, long and multi-line CSV rows, bytes that
are not UTF-8, labels holding characters XML cannot carry, and CSV headers
behind a byte order mark or naming a field twice, and run with tiny chunks
so that faults and blank runs straddle chunk boundaries.  In-memory records
built from the same cells group as their JSONL file does.
"""

import csv
import io
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.errors import DataError
from scalefit.records import RECORD_FIELDS, _as_float, _as_int, _shown

from conftest import chunk_readers


def reference_record(obj, where, seed_defaults):
    try:
        unknown = set(obj) - set(RECORD_FIELDS)
        if unknown:
            raise DataError(f"unknown field {_shown(sorted(unknown)[0])}")

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
            try:
                str(get(field)).encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, from a JSON escape
                raise DataError(f"field {field!r} is not valid Unicode") from None
            not_xml = [c for c in str(get(field)) if c in NOT_XML]
            if not_xml:
                raise DataError(f"field {field!r} holds U+{ord(not_xml[0]):04X}, which XML cannot carry")
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


# The characters XML 1.0 cannot carry, surrogates aside.
NOT_XML = {chr(c) for c in range(0x20) if chr(c) not in "\t\n\r"} | {"\ufffe", "\uffff"}


def members_once(pairs):
    """A JSON object whose keys are distinct; any object, nested ones too."""
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise DataError(f"field {_shown(key)} appears twice")
    return dict(pairs)


def reference_ingest(path):
    # The first line holding a byte that is not UTF-8 is a bad row on that
    # line, after the rows that end before it; the CSV header is a row too.
    data = path.read_bytes()
    newline = None if path.suffix == ".jsonl" else ""
    undecodable = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        undecodable = len(io.StringIO(data[: exc.start].decode("utf-8") + "x", newline=newline).readlines())
    not_utf8 = DataError(f"row {undecodable}: not valid UTF-8")
    seed_defaults, records = [], []
    if path.suffix == ".jsonl":
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if lineno == undecodable:
                    raise not_utf8
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line, object_pairs_hook=members_once)
                except DataError as exc:
                    raise DataError(f"row {lineno}: {exc}") from None
                except json.JSONDecodeError as exc:
                    raise DataError(f"row {lineno}: invalid JSON ({exc.msg})") from None
                except ValueError as exc:  # an integer past the int-string conversion limit
                    raise DataError(f"row {lineno}: invalid JSON ({exc})") from None
                except RecursionError:
                    raise DataError(f"row {lineno}: invalid JSON (nested too deeply)") from None
                if not isinstance(obj, dict):
                    raise DataError(f"row {lineno}: expected a JSON object")
                records.append(reference_record(obj, f"row {lineno}", seed_defaults))
    else:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                reader.fieldnames  # read here: a header cell past the field limit raises
            except csv.Error as exc:
                raise DataError(f"row {reader.reader.line_num}: {exc}") from None
            if reader.fieldnames is None:
                raise DataError("row 1: missing CSV header")
            if undecodable is not None and reader.line_num >= undecodable:  # the header's lines
                raise not_utf8
            if reader.fieldnames[:1] and reader.fieldnames[0].startswith("\ufeff"):
                raise DataError("row 1: CSV header starts with a UTF-8 byte order mark (U+FEFF)")
            unknown = set(reader.fieldnames) - set(RECORD_FIELDS)
            if unknown:
                raise DataError(f"row 1: unknown field {_shown(sorted(unknown)[0])} in CSV header")
            # csv.DictReader would read the last column of a field named twice
            twice = [f for i, f in enumerate(reader.fieldnames) if f in reader.fieldnames[:i]]
            if twice:
                raise DataError(f"row 1: field {twice[0]!r} appears twice in the CSV header")
            try:
                for row in reader:
                    if undecodable is not None and reader.line_num >= undecodable:
                        raise not_utf8
                    if None in row:
                        raise DataError(f"row {reader.line_num}: more cells than header columns")
                    records.append(reference_record(row, f"row {reader.line_num}", seed_defaults))
            except csv.Error as exc:  # a cell past the field limit; NUL, before Python 3.11
                raise DataError(f"row {reader.reader.line_num}: {exc}") from None  # DictReader's lags on an error
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


# Byte 0xe9 alone, which is not UTF-8, as the surrogate escape that writing
# with errors="surrogateescape" turns back into the byte.  A JSON string
# escapes it, as "\\udce9", and that is valid UTF-8 text, but the label it
# decodes to is a lone surrogate, not valid Unicode.
NOT_UTF8 = "caf\udce9"
NUMBERS = [1, 2, 0, -1, 12288, 10**30, 2**63, 2**70, 10**400, 2.0, 2.5, True, "4", " 5 ", "+12", "1_000",
           "abc", "", "  ", None, [1], float("nan"), float("inf"), -0.0, "١٢", 1e300]
CELLS = {
    "layers": NUMBERS, "hidden": NUMBERS, "params": NUMBERS, "pretrain_seed": NUMBERS,
    "finetune_seed": NUMBERS, "task": ["t", "", "  ", None, 5, 5.0, True, [1], "x{y}", "caf\xe9", NOT_UTF8, "a\x01b"],
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
            bad = ["\n", "  \t\n", "{bad json\n", "[1, 2]\n", '{"a": 1}, {"b": 2}\n', NOT_UTF8 + "\n"]
            lines.append(rng.choice(bad))
            continue
        row = {k: v for k, v in messy_row(rng, bad_rate).items() if v is not None or rng.random() < 0.5}
        text = json.dumps(row, ensure_ascii=rng.random() < 0.5)  # non-ASCII text raw or escaped
        if 0.08 <= x < 0.1 and row:  # a member whose key the object already holds
            key = list(row)[int(x * 1000) % len(row)]
            text = text[:-1] + f", {json.dumps(key)}: {json.dumps(row[key])}}}"
        lines.append(("  " + text + "  " if x < 0.08 else text) + "\n")
    return "".join(lines)


def csv_text(rng, n, bad_rate, fill_params=False):
    """CSV of ``n`` messy rows; with ``fill_params``, 70% of the rows that
    lack params get one, so that more chunks have every integer cell filled
    and are parsed by np.loadtxt."""
    header = list(RECORD_FIELDS)
    if rng.random() < 0.2:
        header = rng.choice([[h for h in header if rng.random() < 0.8], header + ["value"], header + ["shoe_size"]])
    if rng.random() < 0.05:
        header = ["\ufeff" + header[0], *header[1:]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=rng.choice(["\n", "\r\n"]))
    writer.writerow(header)
    for _ in range(n):
        row = messy_row(rng, bad_rate)
        if fill_params and "params" not in row and rng.random() < 0.7:
            row["params"] = rng.choice([12288, 98304, 999])
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
        elif x < 0.14 and cells:
            cells[-1] += NOT_UTF8
        elif x < 0.15 and cells:
            cells[0] += NOT_UTF8 + "\nmore"  # the byte on the first line of a two-line cell
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
@example(seed=452378672, fmt="jsonl", chunk=1, bad_rate=1.0)  # a layer count of 10**400 with params
@example(seed=1172, fmt="jsonl", chunk=3, bad_rate=0.3)  # row 6: a task label escaping a lone surrogate
def test_ingest_and_group_match_the_row_by_row_reference(tmp_path, seed, fmt, chunk, bad_rate):
    rng = random.Random(seed)
    path = tmp_path / f"runs.{fmt}"
    text = (jsonl_text if fmt == "jsonl" else csv_text)(rng, rng.randint(0, 12), bad_rate)
    path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf.records, "_CHUNK", chunk)
        got = outcome(sf.ingest, columnar_groups, lambda table: table.scales, path)
    assert got == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 2, 3, 5, 4096]),
    bad_rate=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
)
def test_parsed_csv_chunks_match_the_row_by_row_reference(tmp_path, seed, chunk, bad_rate):
    rng = random.Random(seed)
    path = tmp_path / "runs.csv"
    path.write_text(csv_text(rng, rng.randint(0, 12), bad_rate, fill_params=True), encoding="utf-8",
                    errors="surrogateescape", newline="")
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
    ("family", NOT_UTF8),  # JSONL only: a JSON escape, which CSV text cannot hold
    ("metric", "a\x1fb"),
]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_two_faults_in_one_row_report_the_first_check(tmp_path, fmt):
    path = tmp_path / f"runs.{fmt}"
    base = dict(good_row(random.Random(0)), tokens=10)
    for (f1, v1), (f2, v2) in ((a, b) for i, a in enumerate(FAULTS) for b in FAULTS[i + 1:]):
        if f1 == f2 or (fmt == "csv" and ("shoe_size" in (f1, f2) or NOT_UTF8 in (v1, v2))):
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


def wide_row(rng, fmt):
    """A valid row drawn from many distinct cells, so each chunk of a long
    file brings new seeds, scales and labels."""
    row = good_row(rng)
    layers = rng.randint(1, 60)
    if "layers" in row:
        row.update(layers=layers, hidden=rng.choice([32, 64]) * layers)
    row.update(task=rng.choice("tuvw"), pretrain_seed=rng.choice([rng.randint(0, 50), 2**70 + rng.randint(0, 3)]),
               finetune_seed=rng.randint(0, 5000), value=rng.uniform(0.5, 5.0))
    if rng.random() < 0.05:
        row["finetune_seed"] = rng.choice([" 7 ", "+3", "", 3.0 if fmt == "jsonl" else "3"])
    return row


@pytest.mark.parametrize("fmt, bad_row", [("jsonl", None), ("csv", 9_000)])
def test_ten_thousand_rows_in_real_sized_chunks(tmp_path, fmt, bad_row):
    rng = random.Random(fmt)
    rows = [wide_row(rng, fmt) for _ in range(10_000)]
    if bad_row is not None:
        rows[bad_row]["tokens"] = -5
    path = tmp_path / f"runs.{fmt}"
    if fmt == "jsonl":
        lines = [json.dumps(row) for row in rows]
    else:
        lines = [",".join(RECORD_FIELDS)]
        lines += [",".join("" if row.get(h) is None else str(row[h]) for h in RECORD_FIELDS) for row in rows]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    assert isinstance(expected[0], list if bad_row is None else str)
    assert sf.records._CHUNK == 4096
    assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected


# Rows whose error echoes a 5,000-character cell or key, and a JSON integer
# past the int-string conversion limit: each error names its row and stays short.
LONG = "1" * 5000
LONG_ROWS = {
    "jsonl": [{"finetune_seed": LONG}, {"value": "x" * 5000}, {"direction": "up" * 2500}, {"k" * 5000: 1},
              '"tokens": 1' + "0" * 5000],
    "csv": [{"finetune_seed": LONG}, {"value": "x" * 5000}, {"direction": "up" * 2500}, {"layers": LONG}],
}


@pytest.mark.parametrize("chunk", [1, 4096])
@pytest.mark.parametrize("fmt, bad", [(fmt, bad) for fmt, rows in LONG_ROWS.items() for bad in range(len(rows))])
def test_long_cells_match_the_reference(tmp_path, fmt, bad, chunk):
    base = dict(good_row(random.Random(1)), tokens=10)
    change = LONG_ROWS[fmt][bad]
    path = tmp_path / f"runs.{fmt}"
    if isinstance(change, str):  # JSON text that json.dumps would refuse to write
        path.write_text(json.dumps(base) + "\n" + json.dumps(base)[:-1] + ", " + change + "}\n", encoding="utf-8")
    elif fmt == "jsonl":
        path.write_text(json.dumps(base) + "\n" + json.dumps({**base, **change}) + "\n", encoding="utf-8")
    else:
        lines = [RECORD_FIELDS, *([str(r.get(h, "")) for h in RECORD_FIELDS] for r in (base, {**base, **change}))]
        path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    assert expected[0].startswith("row 2: " if fmt == "jsonl" else "row 3: ") and len(expected[0]) < 200
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf.records, "_CHUNK", chunk)
        assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected


# Second lines of a JSONL file whose commas the members of their object do
# not account for: a comma in a string or a nested value, or a repeated key.
def _second_lines(base):
    text = json.dumps(base)
    return {
        "comma-in-label": json.dumps({**base, "task": "a,b"}),
        "comma-in-nested-value": json.dumps({**base, "task": [1, 2]}),
        "repeated-key": text[:-1] + ', "layers": 2}',
        "repeated-key-same-value": text[:-1] + f', "task": {json.dumps(base["task"])}}}',
        "repeated-key-and-comma-in-label": json.dumps({**base, "task": "a,b"})[:-1] + ', "value": 3}',
        "repeated-key-in-nested-object": json.dumps({**base, "task": "X"}).replace('"X"', '{"a": 1, "a": 2}'),
        "repeated-unknown-key": text[:-1] + ', "' + "k" * 5000 + '": 1, "' + "k" * 5000 + '": 2}',
        "repeated-key-then-broken": text[:-1] + ', "layers": 2,}',
        "empty-object": "{}",
    }


@pytest.mark.parametrize("chunk", [1, 4096])
@pytest.mark.parametrize("case", list(_second_lines(good_row(random.Random(2)))))
def test_repeated_keys_and_stray_commas_match_the_reference(tmp_path, case, chunk):
    base = dict(good_row(random.Random(2)), tokens=10)
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(base) + "\n" + _second_lines(base)[case] + "\n", encoding="utf-8")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    assert isinstance(expected[0], list) == case.startswith("comma-in-")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf.records, "_CHUNK", chunk)
        assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected


def in_memory_record(row):
    """The RunRecord of a generated row's cells, or None if RunRecord or
    ScaleSpec refuses them.  Its scale is built as a row's is, and "max" and
    "min" are spelled as RunRecord takes them."""
    try:
        layers, hidden, params = (row.get(f) for f in ("layers", "hidden", "params"))
        if layers is None and hidden is None:
            scale = sf.ScaleSpec.from_params(params)
        else:
            scale = sf.ScaleSpec.from_dims(layers, hidden, params)
        direction = {"max": "maximize", "min": "minimize"}.get(row.get("direction"), row.get("direction"))
        fields = ("task", "family", "pretrain_seed", "finetune_seed", "metric", "value")
        return sf.RunRecord(scale, *(row.get(f) for f in fields), direction, row.get("tokens"))
    except (DataError, TypeError, ValueError, OverflowError):
        return None


def grouped(read):
    """The groups of what ``read()`` returns, or the error, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = sf.group(read())
        except DataError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 2, 3, 5, 4096]),
    bad_rate=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
)
def test_in_memory_records_group_as_their_jsonl_file(tmp_path, seed, chunk, bad_rate):
    rng = random.Random(seed)
    rows = [messy_row(rng, bad_rate) for _ in range(rng.randint(0, 12))]
    for row in rows:
        if rng.random() < 0.2:  # a None seed, which defaults to 0 with a warning
            row[rng.choice(["pretrain_seed", "finetune_seed"])] = None
    records = [r for r in map(in_memory_record, rows) if r is not None]
    path = tmp_path / "runs.jsonl"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf.records, "_CHUNK", chunk)
        sf.emit(records, path)
        result, warned = grouped(lambda: records)
        assert (result, [w.replace("records: ", "runs.jsonl: ", 1) for w in warned]) == grouped(lambda: sf.ingest(path))


@pytest.mark.parametrize(
    "changes, error, warned",
    [
        ([{}, {"task": "a\x01b"}], "row 2: field 'task' holds U+0001, which XML cannot carry", []),
        ([{"task": NOT_UTF8}, {}], "row 1: field 'task' is not valid Unicode", []),
        ([{}, {"pretrain_seed": None}, {"pretrain_seed": None, "finetune_seed": None}], None,
         ["records: 3 missing seed field(s) defaulted to 0 (first: row 2:pretrain_seed)"]),
    ],
    ids=["control-character", "lone-surrogate", "missing-seeds"],
)
def test_in_memory_records_are_read_as_rows(changes, error, warned):
    base = good_row(random.Random(3))
    records = [in_memory_record({**base, "value": 1.0 + i, **change}) for i, change in enumerate(changes)]
    result, got = grouped(lambda: records)
    assert got == warned
    if error is not None:
        assert result == error
    else:
        (runset,) = result.values()
        pre, fin = base["pretrain_seed"], base["finetune_seed"]
        assert sorted(runset.seeds.tolist()) == sorted([[pre, fin], [0, fin], [0, 0]])


# The rows of each scale of a file laid out as the benchmark's bulk input
# is: runs longer than a small chunk, and each new scale after the first
# starting inside a chunk of 3, 7 and 4,096 rows (at rows 1,502 and 3,002).
BULK_RUNS = (1501, 1500, 1499)


def bulk_like_rows():
    """About 4,500 valid rows sorted by scale, with one label, pretrain seed
    and tokens count throughout, and a finetune seed and value per row."""
    rows = []
    for layers, run in enumerate(BULK_RUNS, start=1):
        for seed in range(run):
            rows.append(dict(layers=layers, hidden=32 * layers, params=12 * layers * (32 * layers) ** 2,
                             task="synthetic", family="synthetic", pretrain_seed=1, finetune_seed=seed,
                             metric="score", value=round(3.5 * layers ** -0.07 * (1 + 1e-4 * seed), 12),
                             direction="minimize", tokens=1000))
    return rows


# Each variant's changes to bulk_like_rows(): row index -> cells.  Only
# JSON text can hold the cells of the "seed-" variants, which sit in the
# middle of a scale's run and of a chunk: 1.0 and true are one dict key
# with the column's 1, yet only 1.0 is an integer.
BULK_VARIANTS = {
    "clean": {},
    "bad-first-row-of-a-new-scale": {BULK_RUNS[0]: {"hidden": 0}},
    "seed-1.0": {2000: {"pretrain_seed": 1.0}},
    "seed-true": {2000: {"pretrain_seed": True}},
}


@pytest.mark.parametrize(
    "variant, fmt",
    [(v, fmt) for v in BULK_VARIANTS for fmt in ("jsonl", "csv") if fmt == "jsonl" or not v.startswith("seed-")],
)
def test_bulk_layout_matches_the_reference(tmp_path, variant, fmt):
    rows = bulk_like_rows()
    for i, change in BULK_VARIANTS[variant].items():
        rows[i] = {**rows[i], **change}
    path = tmp_path / f"bulk.{fmt}"
    if fmt == "jsonl":
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    else:
        lines = [",".join(RECORD_FIELDS), *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in rows)]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    assert isinstance(expected[0], str) == (variant in ("bad-first-row-of-a-new-scale", "seed-true"))
    for chunk in (3, 7, 4096):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sf.records, "_CHUNK", chunk)
            assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected, chunk


# Six good rows of two scales, two seeds and tokens, in chunks of two lines,
# the header alone in the first, and each case's change to one line's cells
# (or to the line endings): (line, field, cell), and whether np.loadtxt
# reads the changed cell as int() and float() do, so that the chunk is
# yielded parsed (and read again by csv.reader only if a check fails).
CSV_GOOD = [dict(layers=1 + i % 2, hidden=32 * (1 + i % 2), params=12288 * (1 + i % 2) ** 3, task="t", family="f",
                 pretrain_seed=i % 2, finetune_seed=i, metric="m", value=1.5 + i, direction="min", tokens=100 * i)
            for i in range(6)]
CSV_FALLBACKS = {
    "label-at-the-first-width": (3, "task", "x" * 16, True),  # read again 32 wide: a cell may not be cut
    "label-past-the-first-width": (3, "task", "x" * 17, True),
    "label-past-the-largest-width": (3, "task", "x" * 200, False),
    "nul": (3, "family", "f\x00", False),
    "over-the-field-limit": (3, "tokens", "1" * 200_000, False),
    "crlf": (None, None, None, True),
    "arabic-indic-digits": (3, "pretrain_seed", "١٢", False),
    "underscore": (3, "finetune_seed", "1_000", False),
    "integer-written-as-float": (3, "layers", "2.0", False),
    "exponent": (3, "params", "1e3", False),
    "plus-sign": (3, "finetune_seed", "+12", True),
    "spaces": (3, "finetune_seed", " 5 ", True),
    "past-int64": (3, "finetune_seed", str(2**63), False),
    "empty-seed": (3, "pretrain_seed", "", False),
    "empty-params": (3, "params", "", False),
    "record-separator": (3, "finetune_seed", "\x1e7", False),
    "letter-past-u00ff": (3, "pretrain_seed", "\u01fe", False),  # numpy would read 462
    "blank-line-before-a-bad-row": (3, None, "", False),  # and line 4's value is -1.0
    "quoted-cell-spanning-chunks": (6, "task", '"t\nu"', False),  # lines 6-7: the last of one chunk and the next
    "bad-value": (3, "value", "-1.0", True),
}


@pytest.mark.parametrize("case", CSV_FALLBACKS)
def test_csv_fallbacks_match_the_row_by_row_reference(tmp_path, monkeypatch, case):
    line, field, cell, same = CSV_FALLBACKS[case]
    rows = [dict(row) for row in CSV_GOOD]
    if field is not None:
        rows[line - 2][field] = cell
    elif line is not None:
        rows[line - 1]["value"] = -1.0
    ending = "\r\n" if case == "crlf" else "\n"
    lines = [",".join(RECORD_FIELDS), *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in rows)]
    if field is None and line is not None:
        lines[line - 1] = cell
    path = tmp_path / "runs.csv"
    path.write_text("".join(line + ending for line in lines), encoding="utf-8", newline="")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    monkeypatch.setattr(sf.records, "_CHUNK", 2)
    seen = chunk_readers(monkeypatch)
    assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected
    # Of the chunks (lines 2, 3-4, 5-6 and 7), csv.reader reads the changed
    # line's and the rest of the file, unless np.loadtxt reads that line as
    # int() does; np.loadtxt reads the others.
    start = 7 if line is None else line - 1 + line % 2 + case.startswith("blank")  # numbered by its rows
    csv_read = lambda first: not same and first >= start
    assert seen == [(first, "csv" if csv_read(first) else "parsed") for first, _ in seen]
    assert seen[-1][0] >= start - 1  # a csv.Error in a chunk's first row yields none of it


def test_a_loadtxt_warning_sends_the_chunk_to_csv_reader(tmp_path, monkeypatch):
    lines = [",".join(RECORD_FIELDS), *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in CSV_GOOD)]
    path = tmp_path / "runs.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = sf.ingest(path)
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("conversion through a float is deprecated", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    seen = chunk_readers(monkeypatch)
    assert sf.ingest(path) == expected
    assert seen == [(2, "csv")]


def test_after_a_chunk_numpy_cannot_read_csv_reader_reads_the_rest(tmp_path, monkeypatch):
    rows = [dict(row) for row in CSV_GOOD]
    rows[1]["params"] = ""  # line 3: params defaults to 12LH², the same value
    lines = [",".join(RECORD_FIELDS), *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in rows)]
    path = tmp_path / "runs.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    monkeypatch.setattr(sf.records, "_CHUNK", 2)
    parsed = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, *a, **k: parsed.append(lines[0]) or loadtxt(lines, *a, **k))
    seen = chunk_readers(monkeypatch)
    assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected
    assert seen == [(2, "parsed"), (3, "csv"), (5, "csv"), (7, "csv")]
    assert parsed == [lines[1] + "\n", lines[2] + "\n"]  # numpy fails on line 3's chunk and sees no more


@pytest.mark.parametrize("kind", ["records", "curve"])
@pytest.mark.parametrize("body", [1, 255])
def test_a_short_body_is_parsed_as_csv_reader_reads_it(tmp_path, monkeypatch, kind, body):
    if kind == "records":
        rows = bulk_like_rows()[:body]
        lines = [",".join(RECORD_FIELDS), *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in rows)]
    else:
        lines = ["step,eval_loss", *(f"{10 * i},{1 + 1 / (i + 1)!r}" for i in range(body))]
    path = tmp_path / f"{kind}.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    if kind == "records":
        expected = outcome(reference_ingest, reference_group, reference_scales, path)
        read = lambda path: outcome(sf.ingest, columnar_groups, lambda table: table.scales, path)
    else:
        points = list(csv.reader(lines[1:]))
        expected = sf.LossCurve(steps=tuple(int(s) for s, _ in points), losses=tuple(float(x) for _, x in points))
        read = sf.load_loss_curve
    seen = chunk_readers(monkeypatch)
    assert read(path) == expected
    assert seen == [(2, "parsed")]


@pytest.mark.parametrize("kind", ["records", "curve"])
def test_a_quote_free_body_never_reaches_csv_reader(tmp_path, monkeypatch, kind):
    if kind == "records":
        lines = [",".join(RECORD_FIELDS), *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in bulk_like_rows())]
    else:
        lines = ["step,eval_loss", *(f"{10 * i},{1 + 1 / (i + 1)!r}" for i in range(10_000))]
    path = tmp_path / f"{kind}.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    read = sf.ingest if kind == "records" else sf.load_loss_curve
    expected = read(path)
    pulled = []  # the lines each csv.reader takes from its input, as it takes them
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda lines, *a, **k: reader((pulled.append(x) or x for x in lines), *a, **k))
    assert read(path) == expected
    assert pulled == [lines[0] + "\n"]  # the header alone


# Headers that csv.reader reads otherwise than a split at commas, each over
# CSV_GOOD's rows, and the chunk_readers record of the body.
CSV_HEADERS = {
    "quoted": ('"' + '","'.join(RECORD_FIELDS) + '"', [(2, "parsed")]),
    "line-break-in-a-quoted-cell": (",".join(RECORD_FIELDS[:-1]) + ',"tok\nens"', []),  # an unknown field
    "cell-past-the-field-limit": (",".join(RECORD_FIELDS[:-1]) + ",t" + "o" * csv.field_size_limit(), []),
}


@pytest.mark.parametrize("case", CSV_HEADERS)
def test_csv_headers_match_the_row_by_row_reference(tmp_path, monkeypatch, case):
    header, record = CSV_HEADERS[case]
    lines = [header, *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in CSV_GOOD)]
    path = tmp_path / "runs.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    assert isinstance(expected[0], list) == (case == "quoted")  # the other two headers raise
    if case == "cell-past-the-field-limit":
        assert expected[0] == f"row 1: field larger than field limit ({csv.field_size_limit()})"
    seen = chunk_readers(monkeypatch)
    assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected
    assert seen == record


@pytest.mark.parametrize("chunk", [3, 4096])
def test_parsed_keys_of_several_varying_columns(tmp_path, monkeypatch, chunk):
    # Within a chunk, depth 1 comes with two widths and task t with two
    # metrics, so each key folds the codes of several columns.
    rows = [dict(CSV_GOOD[0], layers=layers, hidden=hidden, params=12 * layers * hidden**2, task=task, metric=metric,
                 finetune_seed=i) for i, (layers, hidden, task, metric) in
            enumerate([(1, 32, "t", "m"), (1, 64, "t", "n"), (2, 32, "u", "m"), (1, 64, "t", "m"), (2, 64, "u", "n")])]
    lines = [",".join(RECORD_FIELDS), *(",".join(str(row[f]) for f in RECORD_FIELDS) for row in rows)]
    path = tmp_path / "runs.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = outcome(reference_ingest, reference_group, reference_scales, path)
    assert isinstance(expected[0], list)
    monkeypatch.setattr(sf.records, "_CHUNK", chunk)
    seen = chunk_readers(monkeypatch)
    assert outcome(sf.ingest, columnar_groups, lambda table: table.scales, path) == expected
    assert {kind for _, kind in seen} == {"parsed"}
