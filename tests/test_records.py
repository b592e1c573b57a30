import json
import math
import random
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
        assert spec.aspect_ratio == 32.0

    def test_params_override(self):
        spec = sf.ScaleSpec.from_dims(12, 768, params=85_000_000)
        assert spec.params == 85_000_000

    def test_bert_base_aspect_ratio(self):
        assert sf.ScaleSpec.from_dims(12, 768).aspect_ratio == 64.0

    def test_params_only(self):
        spec = sf.ScaleSpec.from_params(12_288)
        assert spec.layers is None and spec.hidden is None
        assert spec.aspect_ratio is None

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            sf.ScaleSpec.from_dims(0, 32)
        with pytest.raises(DataError):
            sf.ScaleSpec.from_params(0)

    def test_ladder(self):
        ladder = sf.scale_ladder(32, range(1, 9))
        assert [s.layers for s in ladder] == list(range(1, 9))
        assert all(s.hidden == 32 * s.layers for s in ladder)
        assert sum(s.params for s in ladder) == 15_925_248


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
        with pytest.warns(UserWarning, match="defaulted to 0"):
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
        ]
        sf.emit(records, path)
        assert list(sf.ingest(path)) == records

    def test_bad_format(self, tmp_path):
        path = tmp_path / "runs.txt"
        path.write_text("{}\n")
        with pytest.raises(DataError, match="cannot infer format"):
            sf.ingest(path)

    def test_nan_value_rejected(self):
        with pytest.raises(DataError, match="finite"):
            make_record(value=float("nan"))


CSV_HEADER = ",".join(sf.records.RECORD_FIELDS)
GOOD_CELLS = "1,32,,t,mlm,0,0,f1,50.0,max,"


def csv_outcome(path, lines):
    path.write_text("\n".join([CSV_HEADER, *lines]) + "\n", encoding="utf-8")
    try:
        return [(r.scale, r.pretrain_seed, r.finetune_seed, r.value, r.tokens) for r in sf.ingest(path)]
    except DataError as exc:
        return str(exc)


class TestIngestEdgeCases:
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

    def test_chunk_failing_only_its_column_checks_is_an_internal_error(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [BASE_ROW, BASE_ROW])

        def stricter_than_the_row_check(cells):
            raise DataError("value must be a number")

        monkeypatch.setattr(sf.records, "_values", stricter_than_the_row_check)
        with pytest.raises(RuntimeError, match="failed its column checks but each of its rows passes"):
            sf.ingest(path)


class TestGrouping:
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
