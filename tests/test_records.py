import csv
import dataclasses
import gc
import io
import json
import math
import pickle
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.errors import DataError

from conftest import ar32_synth


def make_record(
    layers=1,
    hidden=32,
    value=50.0,
    task="t",
    family="mlm",
    metric="f1",
    direction="maximize",
    pretrain_seed=0,
    finetune_seed=0,
    tokens=None,
    params=None,
):
    if layers is None:
        scale = sf.ScaleSpec.from_params(params)
    else:
        scale = sf.ScaleSpec.from_dims(layers, hidden, params)
    return sf.RunRecord(
        scale=scale,
        task=task,
        family=family,
        pretrain_seed=pretrain_seed,
        finetune_seed=finetune_seed,
        metric=metric,
        value=value,
        direction=direction,
        tokens=tokens,
    )


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def odd_records():
    """Records that exercise every cell kind emit writes: params-only scales,
    absent and huge token counts, 2**70 seeds, 10**30 params, and labels
    holding quotes, commas, line breaks and non-ASCII text."""
    labels = ["plain", 'has "quotes"', "comma, inside", "line\nbreak", "cr\r\nlf", "ünï cödé", " pad "]
    scales = (sf.ScaleSpec.from_params(10**30), sf.ScaleSpec.from_dims(2, 64), sf.ScaleSpec.from_params(999))
    return [
        make_record(
            layers=scale.layers,
            hidden=scale.hidden,
            params=scale.params,
            task=label,
            family="f" + label,
            metric="m," + label,
            value=0.1 * (i + 1) + 1e-17,
            direction="minimize" if i % 3 else "maximize",
            pretrain_seed=2**70 if i % 2 else i,
            finetune_seed=i,
            tokens=None if i % 2 else 10**20 + i,
        )
        for i, label in enumerate(labels)
        for scale in scales
    ]


def reference_emit(records, fmt):
    """The bytes of one mapping per record, written by json.dumps or DictWriter."""
    buf = io.StringIO(newline="")
    rows = [
        {
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
        for r in records
    ]
    if fmt == "jsonl":
        for row in rows:
            buf.write(json.dumps({k: v for k, v in row.items() if v is not None}) + "\n")
    else:
        writer = csv.DictWriter(buf, fieldnames=sf.records.RECORD_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue().encode("utf-8")


BASE_ROW = {
    "layers": 1,
    "hidden": 32,
    "task": "t",
    "family": "mlm",
    "pretrain_seed": 0,
    "finetune_seed": 0,
    "metric": "f1",
    "value": 50.0,
    "direction": "max",
}


class TestScaleSpec:
    def test_params_computed(self):
        spec = sf.ScaleSpec.from_dims(1, 32)
        assert spec.params == 12_288

    def test_params_override(self):
        spec = sf.ScaleSpec.from_dims(12, 768, params=85_000_000)
        assert spec.params == 85_000_000

    def test_params_only(self):
        spec = sf.ScaleSpec.from_params(12_288)
        assert spec.layers is None and spec.hidden is None

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            sf.ScaleSpec.from_dims(0, 32)
        with pytest.raises(DataError):
            sf.ScaleSpec.from_params(0)

    def test_rejects_one_dimension_without_the_other(self):
        with pytest.raises(DataError, match="^layers and hidden must be given together$"):
            sf.ScaleSpec(layers=1, hidden=None, params=12)

    def test_rejects_nonpositive_hidden(self):
        with pytest.raises(DataError, match="^hidden must be positive, got 0$"):
            sf.ScaleSpec(layers=1, hidden=0, params=12)

    def test_rejects_layers_beyond_float64(self):
        # run sets hold depth as float64, so a larger count is a data error here
        with pytest.raises(DataError, match="layers does not fit in float64"):
            sf.ScaleSpec.from_dims(10**400, 32, params=12_288)

    def test_ladder(self):
        ladder = sf.scale_ladder(32, range(1, 9))
        assert [s.layers for s in ladder] == list(range(1, 9))
        assert all(s.hidden == 32 * s.layers for s in ladder)
        assert sum(s.params for s in ladder) == 15_925_248


class TestRunRecord:
    def test_rejects_an_empty_label(self):
        with pytest.raises(DataError, match="^task must be a nonempty string$"):
            make_record(task="")

    def test_rejects_a_direction_that_is_not_canonical(self):
        with pytest.raises(DataError, match="^unknown direction token 'up'$"):
            make_record(direction="up")


    def test_survives_pickle_and_replace(self):
        record = make_record(layers=None, params=10**30, pretrain_seed=2**70, tokens=7)
        assert not hasattr(record, "__dict__")  # slotted, as its scale is
        assert pickle.loads(pickle.dumps(record)) == record
        assert dataclasses.replace(record) == record
        assert dataclasses.replace(record, value=2.0).scale is record.scale


class TestPausedGc:
    @pytest.fixture(autouse=True)
    def collector_on(self):
        gc.enable()
        yield
        gc.enable()

    def test_restores_an_enabled_collector(self):
        with sf.records.paused_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_off(self):
        gc.disable()
        with sf.records.paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_ingest_runs_paused_and_a_bad_row_mid_file_restores_it(self, tmp_path, monkeypatch):
        seen = []
        for name in ("add", "add_parsed"):  # csv.reader's chunks and np.loadtxt's
            add = getattr(sf.records._Columns, name)
            monkeypatch.setattr(sf.records._Columns, name, lambda *a, add=add: seen.append(gc.isenabled()) or add(*a))
        monkeypatch.setattr(sf.records, "_CHUNK", 3)
        path = tmp_path / "runs.csv"
        path.write_text("layers,hidden,task,family,metric,value,direction\n" + "1,32,t,f,m,1.0,max\n" * 4
                        + "1,32,t,f,m,-1.0,max\n", encoding="utf-8")
        with pytest.raises(DataError, match="^row 6: value must be positive$"):
            sf.ingest(path)
        assert seen == [False, False] and gc.isenabled()


class TestIngest:
    def test_single_row_params_computed(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [BASE_ROW])
        (record,) = sf.ingest(path)
        assert record.scale.params == 12_288
        assert record.direction == "maximize"
        assert record.value == 50.0

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [dict(BASE_ROW, value=-1)])
        with pytest.raises(DataError, match=r"row 1.*value must be positive"):
            sf.ingest(path)

    def test_unknown_direction_token(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [dict(BASE_ROW, direction="upward")])
        with pytest.raises(DataError, match="unknown direction token"):
            sf.ingest(path)

    def test_row_number_in_error(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [BASE_ROW, dict(BASE_ROW, value="oops")])
        with pytest.raises(DataError, match=r"row 2.*'value'"):
            sf.ingest(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [dict(BASE_ROW, shoe_size=43)])
        with pytest.raises(DataError, match="unknown field 'shoe_size'"):
            sf.ingest(path)

    @pytest.mark.parametrize("extra", [{}, {"shoe_size": None}], ids=["known", "unknown-null"])
    def test_absent_and_null_cells_count_as_members(self, tmp_path, extra):
        # Null tokens in one row and absent tokens in the other: the member
        # count alone cannot tell an unknown field apart from the nulls.
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [dict(BASE_ROW, tokens=None, **extra), BASE_ROW])
        if extra:
            with pytest.raises(DataError, match="^row 1: unknown field 'shoe_size'$"):
                sf.ingest(path)
        else:
            assert [r.tokens for r in sf.ingest(path)] == [None, None]

    def test_params_only_row_accepted(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        row = {k: v for k, v in BASE_ROW.items() if k not in ("layers", "hidden")}
        row["params"] = 12_288
        write_jsonl(path, [row])
        (record,) = sf.ingest(path)
        assert record.scale.layers is None
        assert record.scale.params == 12_288

    def test_layers_without_hidden_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        row = {k: v for k, v in BASE_ROW.items() if k != "hidden"}
        write_jsonl(path, [row])
        with pytest.raises(DataError, match=r"row 1.*'hidden'"):
            sf.ingest(path)

    def test_missing_scale_info_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        row = {k: v for k, v in BASE_ROW.items() if k not in ("layers", "hidden")}
        write_jsonl(path, [row])
        with pytest.raises(DataError, match="'layers'\\+'hidden' or 'params'"):
            sf.ingest(path)

    def test_seeds_default_with_warning(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        row = {k: v for k, v in BASE_ROW.items() if "seed" not in k}
        write_jsonl(path, [row])
        with pytest.warns(UserWarning, match=r"^runs.jsonl: 2 missing seed field\(s\) defaulted to 0 \(first: row 1:pretrain_seed\)$"):
            (record,) = sf.ingest(path)
        assert record.pretrain_seed == 0 and record.finetune_seed == 0

    def test_csv_roundtrip_and_row_numbers(self, tmp_path):
        path = tmp_path / "runs.csv"
        records = [
            make_record(layers=L, hidden=32 * L, value=10.0 + L, finetune_seed=s, tokens=100 * s)
            for L in (1, 2)
            for s in (0, 1)
        ]
        sf.emit(records, path)
        assert list(sf.ingest(path)) == records
        # corrupt one data cell; header is line 1 so the bad row is line 3
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace("11.0", "-11.0")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"row 3.*value must be positive"):
            sf.ingest(path)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        records = [
            make_record(layers=1, hidden=32, value=3.5, tokens=1000),
            make_record(layers=None, params=999, value=2.25),
            make_record(layers=2, hidden=64, value=7.125, direction="minimize", metric="loss"),
            make_record(task="caf\xe9"),
        ]
        sf.emit(records, path)
        assert list(sf.ingest(path)) == records
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\\u00e9", "\xe9"), encoding="utf-8")  # the escape as its UTF-8 bytes
        assert list(sf.ingest(path)) == records
        # A lone surrogate is written as a JSON escape, valid UTF-8 text, but
        # the label it reads back as is not Unicode text: a bad row.
        sf.emit([*records, make_record(task="caf\udce9")], path)
        assert '"caf\\udce9"' in path.read_text(encoding="utf-8")
        with pytest.raises(DataError, match=r"^row 5: field 'task' is not valid Unicode$"):
            sf.ingest(path)

    @pytest.mark.parametrize(
        "fmt, source",
        [("jsonl", "records"), ("csv", "records"), ("jsonl", "table"), ("csv", "table")],
        ids=["jsonl", "csv", "jsonl-table", "csv-table"],
    )
    def test_emit_bytes_match_reference_writer(self, tmp_path, fmt, source):
        records = odd_records()
        path = tmp_path / f"runs.{fmt}"
        if source == "table":
            # What ingest returns, and the run sets group makes of it, are
            # written from their columns: object-dtype seeds and tokens,
            # params-only scales, and no RunRecord built.
            path.write_bytes(reference_emit(records, fmt))
            table = sf.ingest(path)
            assert table.seeds.dtype == table.tokens.dtype == object
            assert table.scales[0].layers is None
            expected = {key: runset.records for key, runset in sf.group(records).items()}
            for written, rows in [(table, records), *((rs, expected[key]) for key, rs in sf.group(table).items())]:
                sf.emit(written, path)
                assert path.read_bytes() == reference_emit(rows, fmt)
                assert "records" not in vars(written)
            return
        sf.emit(records, path)
        assert path.read_bytes() == reference_emit(records, fmt)
        assert list(sf.ingest(path)) == records
        # Cells of types ingest never yields: a bool seed (JSON `true`) and a numpy float.
        records[1:1] = [make_record(pretrain_seed=True), make_record(value=np.float64(0.1) + 1e-17)]
        sf.emit(records, path)
        assert path.read_bytes() == reference_emit(records, fmt)
        records = [make_record(pretrain_seed=v) for v in (0.5, math.inf, -math.inf, math.nan)]  # NaN, Infinity
        sf.emit(records, path)
        assert path.read_bytes() == reference_emit(records, fmt)

    def test_emit_rejects_a_non_json_cell_like_json_dumps(self, tmp_path):
        records = [make_record(), make_record(finetune_seed=np.int64(3))]
        with pytest.raises(TypeError, match="^Object of type int64 is not JSON serializable$"):
            reference_emit(records, "jsonl")
        with pytest.raises(TypeError, match="^Object of type int64 is not JSON serializable$"):
            sf.emit(records, tmp_path / "runs.jsonl")

    def test_bad_format(self, tmp_path):
        path = tmp_path / "runs.txt"
        path.write_text("{}\n")
        with pytest.raises(DataError, match="cannot infer format"):
            sf.ingest(path)

    @pytest.mark.parametrize(
        "name, text, format, message",
        [("runs.jsonl", "{}\n", "xml", "unknown format 'xml'; expected 'jsonl' or 'csv'"),
         ("runs.csv", "", None, "row 1: missing CSV header"),
         # byte 0xe9 alone in the header: named before the header is checked,
         # also when the header holds a cell over the csv module's field limit
         ("runs.csv", "\ufefflayers,caf\udce9\n1,32\n", None, "row 1: not valid UTF-8"),
         ("runs.csv", "layers,caf\udce9," + "9" * 200_000 + "\n", None, "row 1: not valid UTF-8"),
         # a header is a row: a byte on the second line of its two-line cell is named first
         ("runs.csv", '"layers\ncaf\udce9",hidden\n1,32\n', None, "row 2: not valid UTF-8"),
         # refused, not read from its last column
         ("runs.csv", "layers,hidden,task,family,pretrain_seed,finetune_seed,metric,value,direction,layers\n"
          "1,32,t,f,0,0,m,1.0,min,2\n", None, "row 1: field 'layers' appears twice in the CSV header")],
        ids=["unknown-format", "empty-csv", "bad-byte-in-csv-header", "bad-byte-in-oversized-csv-header",
             "bad-byte-in-two-line-csv-header", "field-twice-in-csv-header"],
    )
    def test_unreadable_file(self, tmp_path, name, text, format, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            sf.ingest(path, format=format)

    def test_nan_value_rejected(self):
        with pytest.raises(DataError, match="finite"):
            make_record(value=float("nan"))


CSV_HEADER = ",".join(sf.records.RECORD_FIELDS)
# Rows whose scale and label cells differ but check alike: layers 1, "1" or
# 1.0, params left out or given as 12 * 1 * 32**2, task 5 or "5", direction
# "min" or "minimize".  Two rows a chunk puts each form on both sides of a
# chunk boundary.
MIXED_CELLS = [
    dict(BASE_ROW, layers="1", task=5, direction="min"),
    dict(BASE_ROW, layers=1, params=12288, task="5", direction="minimize"),
    dict(BASE_ROW, layers=1.0, task="5", direction="minimize"),
    dict(BASE_ROW, layers=1, task=5, direction="min"),
    dict(BASE_ROW, layers="1", params=12288, task="5", direction="min"),
    dict(BASE_ROW, layers=1.0, params=12288, task=5, direction="minimize"),
]
GOOD_CELLS = "1,32,,t,mlm,0,0,f1,50.0,max,"


def csv_outcome(path, lines):
    path.write_text("\n".join([CSV_HEADER, *lines]) + "\n", encoding="utf-8")
    try:
        return [(r.scale, r.pretrain_seed, r.finetune_seed, r.value, r.tokens) for r in sf.ingest(path)]
    except DataError as exc:
        return str(exc)


class TestIngestEdgeCases:
    @pytest.mark.parametrize("value, shown", [(None, "None"), (True, "True")])
    def test_value_that_is_not_a_number(self, tmp_path, value, shown):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [dict(BASE_ROW, value=value)])
        with pytest.raises(DataError, match=rf"^row 1: field 'value' must be a number, got {shown}$"):
            sf.ingest(path)

    def test_earlier_row_wins_across_fields(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        no_hidden = {k: v for k, v in BASE_ROW.items() if k != "hidden"}
        write_jsonl(path, [BASE_ROW, dict(BASE_ROW, value="oops"), no_hidden])
        with pytest.raises(DataError, match=r"^row 2: field 'value' must be a number, got 'oops'$"):
            sf.ingest(path)
        write_jsonl(path, [BASE_ROW, no_hidden, dict(BASE_ROW, value="oops")])
        with pytest.raises(DataError, match=r"^row 2: field 'hidden' required when the other dimension is given$"):
            sf.ingest(path)
        # within one row the scale is checked before the value
        write_jsonl(path, [BASE_ROW, dict(no_hidden, value="oops")])
        with pytest.raises(DataError, match=r"^row 2: field 'hidden' required"):
            sf.ingest(path)

    @pytest.mark.parametrize("bad_row", [False, True], ids=["byte-only", "bad-row-then-byte"])
    @pytest.mark.parametrize("kind", ["jsonl", "csv", "curve"])
    def test_a_byte_that_is_not_utf8_fails_in_one_read_of_the_file(self, tmp_path, monkeypatch, kind, bad_row):
        head, goods, bad = {  # two good rows: a curve's steps increase
            "jsonl": ("", [json.dumps(BASE_ROW)] * 2, json.dumps(dict(BASE_ROW, value=-1.0))),
            "csv": (CSV_HEADER + "\n", [GOOD_CELLS] * 2, GOOD_CELLS.replace("50.0", "-1.0")),
            "curve": ("step,eval_loss\n", ["0,1.0", "1,1.0"], "1,abc"),
        }[kind]
        path = tmp_path / ("curve.csv" if kind == "curve" else f"runs.{kind}")
        rows = [goods[0], bad if bad_row else goods[1], "\udce9"]  # byte 0xe9 alone on the last line
        path.write_text(head + "\n".join(rows) + "\n", encoding="utf-8", errors="surrogateescape")
        line = head.count("\n") + (2 if bad_row else 3)
        opened = []
        real_open = open
        monkeypatch.setattr("builtins.open", lambda file, *a, **k: opened.append(file) or real_open(file, *a, **k))
        read = sf.diagnose.load_loss_curve if kind == "curve" else sf.ingest
        with pytest.raises(DataError, match=f"^row {line}: "):
            read(path)
        assert opened == [path]

    @pytest.mark.parametrize("kind", ["jsonl", "csv", "curve"])
    def test_a_byte_that_opens_a_chunk_ends_the_file_before_it(self, tmp_path, monkeypatch, kind):
        # Two lines a chunk and the byte on line 3: the line reader raises
        # before it yields any line of the second chunk.
        head, good = {"jsonl": (json.dumps(BASE_ROW), json.dumps(BASE_ROW)), "csv": (CSV_HEADER, GOOD_CELLS),
                      "curve": ("step,eval_loss", "0,1.0")}[kind]
        path = tmp_path / ("curve.csv" if kind == "curve" else f"runs.{kind}")
        path.write_text(f"{head}\n{good}\ncaf\udce9\n{good}\n", encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sf.records, "_CHUNK", 2)
        yielded, line_chunks = [], sf.records._line_chunks
        monkeypatch.setattr(sf.records, "_line_chunks", lambda fh: (yielded.append(c) or c for c in line_chunks(fh)))
        read = sf.diagnose.load_loss_curve if kind == "curve" else sf.ingest
        with pytest.raises(DataError, match="^row 3: not valid UTF-8$"):
            read(path)
        assert yielded == [(1, [head + "\n", good + "\n"])]

    def test_quote_open_to_end_of_file_is_numbered_by_its_last_line(self, tmp_path):
        # The open quote keeps the file's final line break in the cell.
        path = tmp_path / "runs.csv"
        path.write_text('layers,hidden,task,family,metric,direction,value\n1,32,t,f,m,min,1.0\n1,32,t,f,m,min,"x\ny\n',
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"^row 4: field 'value' must be a number, got 'x\\ny\\n'$"):
            sf.ingest(path)

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_big_integers_round_trip_and_sort(self, tmp_path, suffix):
        records = [
            make_record(layers=None, params=10**30, finetune_seed=2**70, value=1.5),
            make_record(layers=None, params=10**30, finetune_seed=3, value=2.5),
            make_record(layers=1, hidden=32, finetune_seed=2**70 + 1, tokens=2**65),
        ]
        path = tmp_path / f"runs.{suffix}"
        sf.emit(records, path)
        back = sf.ingest(path)
        assert list(back) == records
        runset = sf.group(back)[("t", "mlm", "f1")]
        assert runset.records == (records[2], records[1], records[0])
        assert runset.seeds[:, 1].tolist() == [2**70 + 1, 3, 2**70]

    def test_nearby_large_params_stay_two_scales(self):
        a, b = 2**60, 2**60 + 1
        runset = sf.RunSet.from_records(
            [make_record(layers=None, params=p, finetune_seed=s) for p in (b, a) for s in (1, 0)]
        )
        assert runset.scales == (sf.ScaleSpec.from_params(a), sf.ScaleSpec.from_params(b))
        assert runset.code.tolist() == [0, 0, 1, 1]
        assert [r.finetune_seed for r in runset.records] == [0, 1, 0, 1]

    @pytest.mark.parametrize(
        "lines, outcome",
        [
            (["1,32,,t,mlm,0,0,f1,50.0,max"], [(sf.ScaleSpec.from_dims(1, 32), 0, 0, 50.0, None)]),
            (["1,32,,t,mlm,0,0,f1,50.0"], "row 2: missing field 'direction'"),
            ([GOOD_CELLS + ",extra"], "row 2: more cells than header columns"),
            (["", GOOD_CELLS, "", "", "1,32,,t,mlm,0,1,f1,oops,max,"], "row 6: field 'value' must be a number, got 'oops'"),
            (["1,32,  ,t,mlm,0,0,f1,50.0,max,  "], [(sf.ScaleSpec.from_dims(1, 32), 0, 0, 50.0, None)]),
            (["1,32,,  ,mlm,0,0,f1,50.0,max,"], "row 2: missing field 'task'"),
            (["1,32,,t,mlm,0,0,f1,   ,max,"], "row 2: field 'value' must be a number, got None"),
            (["+12,1_000,,t,mlm,+3,1_000,f1,50.0,max,+7"], [(sf.ScaleSpec.from_dims(12, 1000), 3, 1000, 50.0, 7)]),
        ],
        ids=["short", "short-direction", "long", "blank-lines", "blank-cells", "blank-task", "blank-value", "signs"],
    )
    def test_csv_outcomes(self, tmp_path, lines, outcome):
        assert csv_outcome(tmp_path / "runs.csv", lines) == outcome

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_file_crossing_chunk_boundaries(self, tmp_path, suffix):
        runset, _ = ar32_synth(5, seeds_per_scale=2500)  # 20,000 rows
        path = tmp_path / f"big.{suffix}"
        sf.emit(runset.records, path)
        back = sf.ingest(path)
        assert len(back) == 20_000
        assert back.records == runset.records
        assert sf.group(back) == {("synthetic", "synthetic", "score"): runset}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + ("not json\n" if suffix == "jsonl" else "1,32,,t,mlm,0,0,f1,50.0,max,,\n"))
        bad = "invalid JSON" if suffix == "jsonl" else "more cells than header columns"
        first_line = 20_002 if suffix == "jsonl" else 20_003
        with pytest.raises(DataError, match=rf"^row {first_line}: {bad}"):
            sf.ingest(path)

    @pytest.mark.parametrize(
        "rows, chunk, expected",
        [
            ([dict(BASE_ROW, layers=v, pretrain_seed=v) for v in (1, 1.0)], 4096,
             dict(scales=(sf.ScaleSpec.from_dims(1, 32),), code=([0, 0], "i"), seeds=([[1, 0], [1, 0]], "i"))),
            ([dict(BASE_ROW, pretrain_seed=v) for v in (1, 1.0, True)], 4096,
             "row 3: field 'pretrain_seed' must be an integer"),
            ([dict(BASE_ROW, finetune_seed=v) for v in (2**70, 3, 2**70 + 1, -(2**70))], 4096,
             dict(seeds=([[0, 2**70], [0, 3], [0, 2**70 + 1], [0, -(2**70)]], "O"))),
            ([dict(BASE_ROW, layers=layers, hidden=32 * layers, task=task)
              for layers, task in ((2, "a"), (2, "a"), (1, "a"), (3, "b"), (2, "c"), (1, "b"))], 2,
             dict(scales=tuple(sf.scale_ladder(32, (2, 1, 3))), code=([0, 0, 1, 2, 0, 1], "i"),
                  labels=tuple((t, "mlm", "f1", "maximize") for t in "abc"), label=([0, 0, 0, 1, 2, 1], "i"))),
            (["", "  ", BASE_ROW, "", "\t", dict(BASE_ROW, layers=2, hidden=64)], 1,
             dict(scales=tuple(sf.scale_ladder(32, (1, 2))), code=([0, 1], "i"))),
            (['{"a": [1', '2], "b": 3} , {"c": 4}'], 4096, "row 1: invalid JSON (Expecting ',' delimiter)"),
            ([json.dumps(dict(BASE_ROW, direction=None))[:-len(', "direction": null}')],
              '"direction": "max"} , ' + json.dumps(BASE_ROW)], 4096, "row 1: invalid JSON (Expecting ',' delimiter)"),
            ([dict(BASE_ROW, task="x{y"), "  " + json.dumps(BASE_ROW)], 4096,
             dict(labels=(("x{y", "mlm", "f1", "maximize"), ("t", "mlm", "f1", "maximize")), label=([0, 1], "i"))),
            (MIXED_CELLS, 2, dict(scales=(sf.ScaleSpec.from_dims(1, 32),), code=([0] * 6, "i"),
                                  labels=(("5", "mlm", "f1", "minimize"),), label=([0] * 6, "i"))),
            ([dict(BASE_ROW, layers=v) for v in (1, "1", True)], 4096, "row 3: field 'layers' must be an integer"),
            ([dict(BASE_ROW, layers=v) for v in (1, True)], 1, "row 2: field 'layers' must be an integer"),
        ],
        ids=["one-and-one-point-zero", "true-among-ones", "huge-seeds", "first-seen-in-later-chunks", "blank-chunks",
             "object-across-lines", "record-across-lines", "brace-in-string-and-indent", "cells-that-check-alike",
             "true-layers-among-ones", "true-layers-after-one"],
    )
    def test_column_codes(self, tmp_path, monkeypatch, rows, chunk, expected):
        monkeypatch.setattr(sf.records, "_CHUNK", chunk)
        path = tmp_path / "runs.jsonl"
        path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows), encoding="utf-8")
        if isinstance(expected, str):
            with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
                sf.ingest(path)
            return
        table = sf.ingest(path)
        got = {name: getattr(table, name) for name in expected}
        assert {k: (v.tolist(), v.dtype.kind) if isinstance(v, np.ndarray) else v for k, v in got.items()} == expected

    def test_chunk_failing_only_its_column_checks_is_an_internal_error(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [BASE_ROW, BASE_ROW])

        def stricter_than_the_row_check(cells):
            raise DataError("value must be a number")

        monkeypatch.setattr(sf.records, "_values", stricter_than_the_row_check)
        with pytest.raises(RuntimeError, match="failed its column checks but each of its rows passes"):
            sf.ingest(path)


class TestGrouping:
    def test_table_is_not_equal_to_another_type(self):
        table = sf.RunSet.from_records([make_record()])
        assert table.__eq__(table.values) is NotImplemented
        assert table != table.values.tolist()

    def test_run_set_of_two_labels_rejected(self, tmp_path):
        sf.emit([make_record(task="a"), make_record(task="b")], tmp_path / "runs.jsonl")
        t = sf.ingest(tmp_path / "runs.jsonl")
        with pytest.raises(DataError, match=r"^a run set holds one \(task, family, metric, direction\)$"):
            sf.RunSet(t.scales, t.code, t.values, t.seeds, t.tokens, t.labels, t.label)

    def test_from_records_needs_one_group(self):
        with pytest.raises(DataError, match="^cannot build a run set from zero records$"):
            sf.RunSet.from_records([])
        records = [make_record(task="b"), make_record(task="a")]
        disagree = r"^records disagree on \(task, family, metric\): \(a, mlm, f1\) vs \(b, mlm, f1\)$"
        with pytest.raises(DataError, match=disagree):
            sf.RunSet.from_records(records)

    def test_forty_row_file_m8_t5(self, tmp_path):
        path = tmp_path / "forty.jsonl"
        sf.emit(
            [
                make_record(layers=L, hidden=32 * L, value=10.0 + L + 0.1 * s, finetune_seed=s)
                for L in range(1, 9)
                for s in range(5)
            ],
            path,
        )
        records = sf.ingest(path)
        assert len(records) == 40
        groups = sf.group(records)
        assert len(groups) == 1
        runset = groups[("t", "mlm", "f1")]
        assert len(runset.scales) == 8
        assert runset.sizes.tolist() == [5] * 8

    def test_two_tasks_two_runsets(self):
        records = [make_record(task="a"), make_record(task="b")]
        assert len(sf.group(records)) == 2

    def test_empty_input(self):
        assert sf.group([]) == {}

    def test_nine_tasks_two_families(self):
        records = [
            make_record(task=f"task{i}", family=fam, value=1.0 + i)
            for i in range(9)
            for fam in ("mlm", "pmi")
        ]
        groups = sf.group(records)
        assert len(groups) == 18
        assert sum(len(rs) for rs in groups.values()) == len(records)

    def test_partition_preserves_every_record(self):
        records = [
            make_record(task=f"t{i % 3}", family=f"f{i % 2}", value=1.0 + i, finetune_seed=i)
            for i in range(24)
        ]
        groups = sf.group(records)
        regrouped = [r for rs in groups.values() for r in rs.records]
        assert sorted(regrouped, key=repr) == sorted(records, key=repr)

    def test_mixed_direction_rejected(self):
        records = [make_record(), make_record(direction="minimize", finetune_seed=1)]
        with pytest.raises(DataError, match="mixed direction"):
            sf.group(records)

    def test_ordering_is_insertion_independent(self):
        records = [
            make_record(layers=L, hidden=32 * L, value=v, pretrain_seed=p, finetune_seed=s)
            for L in (3, 1, 2)
            for p in (1, 0)
            for s in (1, 0)
            for v in (5.0, 4.0)
        ]
        shuffled = records[:]
        random.Random(0).shuffle(shuffled)
        assert sf.RunSet.from_records(records) == sf.RunSet.from_records(shuffled)

    @pytest.mark.parametrize(
        "pre, fin",
        [
            ((0, 1, 2), (0, 1, 2)),  # one folded key, with ties that the values and tokens order
            ((-(2**63), 2**63 - 1), (0, 1)),  # a seed range of 2**64: no fold
            ((0, 2**62), (0, 3)),  # folding either seed would overflow
            ((0, 2**61 - 2), (-1, 0)),  # a seed range whose product with the ranks of 4 (key, scale) pairs is under 2**63
            ((2**62, 2**62 + 1), (-3, -2)),  # narrow ranges far from 0: folded from their lows
            ((0, 2**70), (5, 2**64)),  # Python ints, ranked first
        ],
        ids=["ties", "full-range", "wide", "just-fits", "offset", "python-ints"],
    )
    def test_group_orders_rows_as_a_key_sort_does(self, pre, fin):
        def key(r):
            return (r.task, r.family, r.metric, r.scale.params, r.scale.layers or -1, r.pretrain_seed,
                    r.finetune_seed, r.value, -1 if r.tokens is None else r.tokens)

        records = [
            make_record(layers=L, hidden=32 * L, task=t, value=v, pretrain_seed=p, finetune_seed=f, tokens=tok)
            for L in (2, 1) for t in ("b", "a") for p in pre for f in fin for v in (2.0, 1.0) for tok in (None, 7)
        ]
        random.Random(1).shuffle(records)
        groups = sf.group(records)
        assert [r for rs in groups.values() for r in rs.records] == sorted(records, key=key)

    @pytest.mark.parametrize(
        "field, value, stored",
        [
            ("finetune_seed", 0.5, "row 1: field 'finetune_seed' must be an integer, got 0.5"),
            ("tokens", 2.7, "row 1: field 'tokens' must be an integer, got 2.7"),
            ("pretrain_seed", math.nan, "row 1: field 'pretrain_seed' must be an integer, got nan"),
            ("tokens", math.inf, "row 1: field 'tokens' must be an integer, got inf"),
            ("pretrain_seed", True, "row 1: field 'pretrain_seed' must be an integer"),
            ("finetune_seed", np.int64(7), 7),
            ("finetune_seed", 2**70, 2**70),
            ("tokens", np.uint8(9), 9),
            ("pretrain_seed", " 3 ", 3),
            ("finetune_seed", 3.0, 3),
        ],
    )
    def test_in_memory_seeds_and_tokens_must_be_integers(self, field, value, stored):
        # A record's cells are read as a file row's are: a bool is no integer.
        record = make_record(**{field: value})  # a RunRecord takes any such cell
        if isinstance(stored, str):
            with pytest.raises(DataError, match=f"^{re.escape(stored)}$"):
                sf.RunSet.from_records([record])
            return
        (back,) = sf.RunSet.from_records([record]).records
        assert getattr(back, field) == stored and type(getattr(back, field)) is int

    def test_runset_points_sorted_by_params(self):
        runset = sf.RunSet.from_records(
            [make_record(layers=L, hidden=32 * L, value=1.0 + L) for L in (5, 1, 3)]
        )
        xs = [x for x, _ in runset.points()]
        assert xs == sorted(xs)


def same_params_pair():
    # from_params(12288) and from_dims(1, 32) are distinct scales with one
    # parameter count; their seeds interleave if the sort ignores depth
    return sf.RunSet.from_records(
        [make_record(layers=None, params=12288, value=2.0 + s, finetune_seed=s) for s in (1, 0)]
        + [make_record(layers=1, hidden=32, value=1.0 + s, finetune_seed=s) for s in (1, 0)]
    )


class TestColumns:
    def test_columns_match_records(self):
        runset = same_params_pair()
        recs = runset.records
        assert runset.scales == (sf.ScaleSpec.from_params(12288), sf.ScaleSpec.from_dims(1, 32))
        assert runset.params.tolist() == [float(r.scale.params) for r in recs]
        assert runset.values.tolist() == [r.value for r in recs]
        assert np.array_equal(runset.layers, [math.nan, math.nan, 1.0, 1.0], equal_nan=True)
        assert [runset.scales[k] for k in runset.code] == [r.scale for r in recs]
        assert runset.points().tolist() == [[12288.0, r.value] for r in recs]
        with pytest.raises(ValueError, match="read-only"):
            runset.params[0] = 1.0

    def test_scale_groups_are_contiguous_for_shared_params(self):
        runset = same_params_pair()
        assert runset.code.tolist() == [0, 0, 1, 1]
        assert runset.sizes.tolist() == [2, 2]
        assert [r.finetune_seed for r in runset.records] == [0, 1, 0, 1]

    def test_filter_takes_a_mask(self):
        runset = same_params_pair()
        kept = runset.filter(runset.code == 1)
        assert kept.scales == (sf.ScaleSpec.from_dims(1, 32),)
        assert kept.records == runset.records[2:]
        with pytest.raises(DataError, match="matches no records"):
            runset.filter(np.zeros(len(runset), dtype=bool))
        with pytest.raises(DataError, match="one entry per record"):
            runset.filter([True])


class TestWithinLayers:
    def test_inclusive_range(self):
        runset = sf.RunSet.from_records(
            [make_record(layers=L, hidden=32 * L, value=1.0 + L) for L in (1, 2, 3, 4)]
        )
        assert runset.within_layers(2, 3).tolist() == [False, True, True, False]
        assert runset.within_layers(3).tolist() == [False, False, True, True]

    @pytest.mark.parametrize("lo, hi", [(8, 7), (0, 2)], ids=["reversed", "zero"])
    def test_bad_range_rejected(self, lo, hi):
        runset = sf.RunSet.from_records([make_record(layers=8, hidden=256)])
        with pytest.raises(DataError, match="1 <= lo <= hi"):
            runset.within_layers(lo, hi)

    def test_records_without_layer_counts_rejected(self):
        with pytest.raises(DataError, match="lack layer counts"):
            same_params_pair().within_layers(1)


SCALES = (
    sf.ScaleSpec.from_dims(1, 32),
    sf.ScaleSpec.from_dims(2, 64),
    sf.ScaleSpec.from_params(12288),
    sf.ScaleSpec.from_params(999),
)

record_rows = st.lists(
    st.tuples(
        st.sampled_from(SCALES),
        st.sampled_from(["a", "b"]),
        st.sampled_from(["loss", "f1"]),
        st.integers(0, 3),
        st.integers(0, 3),
        st.floats(1e-300, 1e300),
        st.none() | st.integers(0, 10**12),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=record_rows, fmt=st.sampled_from(["jsonl", "csv"]))
def test_emit_ingest_group_round_trip(rows, fmt):
    records = [
        sf.RunRecord(
            scale=scale,
            task="t",
            family=family,
            pretrain_seed=pre,
            finetune_seed=fin,
            metric=metric,
            value=value,
            direction="minimize" if metric == "loss" else "maximize",
            tokens=tokens,
        )
        for scale, family, metric, pre, fin, value, tokens in rows
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"runs.{fmt}"
        sf.emit(records, path)
        back = sf.ingest(path)
    assert list(back) == records
    before, after = sf.group(records), sf.group(back)
    assert after == before
    for key, runset in after.items():
        other = before[key]
        assert runset.scales == other.scales
        for name in ("sizes", "code", "params", "values", "layers"):
            assert np.array_equal(getattr(runset, name), getattr(other, name), equal_nan=True)
