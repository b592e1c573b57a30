import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import pytest

import scalefit as sf
from scalefit.cli import _parser, render_report, run

from conftest import TRUE_ALPHA, TRUE_LOG_C, ar32_synth


@pytest.fixture()
def runs_file(tmp_path):
    runset, _ = ar32_synth(900)
    path = tmp_path / "runs.jsonl"
    sf.emit(runset.records, path)
    return str(path)


@pytest.fixture()
def two_family_file(tmp_path):
    a, _ = ar32_synth(901, direction="maximize", family="mlm", metric="f1", task="t")
    b, _ = ar32_synth(
        902,
        direction="maximize",
        family="pmi",
        metric="f1",
        task="t",
        log_c=TRUE_LOG_C + 0.02,
    )
    path = tmp_path / "two.jsonl"
    sf.emit(list(a.records) + list(b.records), path)
    return str(path)


@pytest.fixture()
def steep_file(tmp_path, capsys):
    # alpha = 30: the law overflows float64 in linear space and far out of range
    path = str(tmp_path / "steep.jsonl")
    argv = ["synth", "--alpha", "30", "--log-c", "3", "--sigma-fin", "0.01", "--seed", "1"]
    assert run([*argv, "--out", path]) == 0
    capsys.readouterr()
    return path


def as_json(result):
    """A library result as a report prints it: a dataclass through JSON and back."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured


class TestExitCodes:
    def test_fit_happy_path(self, runs_file, capsys):
        code, captured = run_json(
            capsys,
            ["fit", "--input", runs_file, "--task", "synthetic", "--family", "synthetic",
             "--metric", "score"],
        )
        assert code == 0
        report = json.loads(captured.out)
        assert report["command"] == "fit"
        assert report["schema_version"] == "2"
        assert 0.07 <= report["results"]["fit"]["alpha"] <= 0.09

    def test_missing_input_is_usage_error(self, capsys):
        code, captured = run_json(capsys, ["fit"])
        assert code == 1
        assert "usage error" in captured.err
        assert captured.out == ""

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_missing_file_is_data_error(self, capsys):
        code, captured = run_json(capsys, ["fit", "--input", "/nonexistent/x.jsonl"])
        assert code == 2
        assert "error:" in captured.err

    def test_select_metric_mismatch_names_both(self, tmp_path, capsys):
        a, _ = ar32_synth(903, direction="maximize", family="mlm", metric="f1")
        b, _ = ar32_synth(904, direction="maximize", family="pmi", metric="accuracy")
        path = tmp_path / "mismatch.jsonl"
        sf.emit(list(a.records) + list(b.records), path)
        code, captured = run_json(
            capsys,
            ["select", "--input", str(path), "--family-a", "mlm", "--family-b", "pmi",
             "--target-params", "84934656", "--seed", "1"],
        )
        assert code == 2
        assert "f1" in captured.err and "accuracy" in captured.err

    def test_ambiguous_selection_is_data_error(self, two_family_file, capsys):
        code, captured = run_json(capsys, ["fit", "--input", two_family_file])
        assert code == 2
        assert "ambiguous" in captured.err

    def test_seed_required_for_bootstrap(self, runs_file, capsys):
        code, captured = run_json(capsys, ["bootstrap", "--input", runs_file])
        assert code == 1

    def test_seed_required_for_synth(self, tmp_path, capsys):
        code, _ = run_json(
            capsys,
            ["synth", "--alpha", "0.08", "--log-c", "3.0",
             "--out", str(tmp_path / "x.jsonl")],
        )
        assert code == 1

    def test_negative_seed_is_data_error_for_bootstrap(self, runs_file, capsys):
        code, captured = run_json(capsys, ["bootstrap", "--input", runs_file, "--seed", "-1"])
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seed must be in [0, 2**64), got -1\n"

    def test_negative_seed_synth_writes_nothing(self, tmp_path, capsys):
        argv = ["synth", "--alpha", "0.08", "--log-c", "3.0", "--seed", "-5"]
        code, captured = run_json(capsys, [*argv, "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert captured.err == "error: seed must be in [0, 2**64), got -5\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_prediction_is_data_error(self, steep_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, captured = run_json(
                capsys,
                ["predict", "--input", steep_file, "--target-params", "1000000000000000",
                 "--B", "50", "--seed", "1"],
            )
        assert code == 2
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_overflowing_linear_r2_is_data_error(self, steep_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, captured = run_json(capsys, ["fit", "--input", steep_file, "--r2-space", "linear"])
        assert code == 2
        assert captured.out == ""
        assert "linear-space goodness of fit overflows float64" in captured.err

    def test_non_finite_report_refused(self):
        with pytest.raises(ValueError):
            render_report({"command": "x", "inputs": {}, "results": {"y": math.inf}})

    @pytest.mark.parametrize("module", ["scalefit", "scalefit.cli"])
    def test_module_entry_point_without_argv(self, module):
        src = str(Path(sf.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", module], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: ")

    def test_band_requires_seed_for_plot(self, runs_file, tmp_path, capsys):
        code, captured = run_json(
            capsys,
            ["plot", "--input", runs_file, "--out", str(tmp_path / "p.svg"), "--band"],
        )
        assert code == 1
        assert "--seed" in captured.err


    @pytest.mark.parametrize("layers", ["8-7", "0-2"])
    def test_plot_rejects_bad_heldout_range(self, runs_file, tmp_path, capsys, layers):
        out = tmp_path / "p.svg"
        code, captured = run_json(
            capsys, ["plot", "--input", runs_file, "--out", str(out), "--heldout-layers", layers]
        )
        assert code == 2
        assert "1 <= lo <= hi" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--min-depth", "0"], "--min-depth must be at least 1, got 0"),
            (["plot", "--out", "p.svg", "--min-depth", "-1"], "--min-depth must be at least 1, got -1"),
            (["diagnose", "fit-outlier", "--holdout-layers", "0", "--observed", "1.0", "--seed", "1"],
             "--holdout-layers must be at least 1, got 0"),
        ],
        ids=["fit-min-depth", "plot-min-depth", "fit-outlier-holdout-layers"],
    )
    def test_depth_flag_below_one_names_the_flag(self, runs_file, tmp_path, capsys, argv, message):
        argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
        code, captured = run_json(capsys, [*argv, "--input", runs_file])
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("layers", ["1-2-3", "a-b"])
    def test_holdout_rejects_malformed_range(self, runs_file, capsys, layers):
        argv = ["holdout", "--input", runs_file, "--train-layers", layers, "--test-layers", "7-8"]
        code, captured = run_json(capsys, argv)
        assert code == 1
        assert captured.err == f"usage error: --train-layers expects 'A-B' or a single integer, got {layers!r}\n"

    def test_no_matching_group_lists_the_available(self, runs_file, capsys):
        code, captured = run_json(capsys, ["fit", "--input", runs_file, "--family", "nope"])
        assert code == 2
        assert captured.err == (
            "error: no run group matches task=None family='nope' metric=None; available: synthetic/synthetic/score\n"
        )

    @pytest.mark.parametrize(
        "name, text",
        [("empty.jsonl", ""), ("blank.jsonl", "\n  \n\n"), ("header.csv", ",".join(sf.records.RECORD_FIELDS) + "\n")],
    )
    @pytest.mark.parametrize(
        "argv",
        [["fit"], ["holdout", "--train-layers", "1-6", "--test-layers", "7-8"], ["plot", "--out", "p.svg"],
         ["select", "--family-a", "a", "--family-b", "b", "--target-layers", "9", "--target-hidden", "288",
          "--seed", "1"],
         ["flops", "--baseline-layers", "2", "--baseline-hidden", "64"]],
        ids=["fit", "holdout", "plot", "select", "flops-baseline"],
    )
    def test_an_input_without_records_says_so(self, tmp_path, monkeypatch, capsys, name, text, argv):
        monkeypatch.chdir(tmp_path)
        Path(name).write_text(text, encoding="utf-8")
        code, captured = run_json(capsys, [*argv, "--input", name])
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: the input holds no records\n"
        assert not Path("p.svg").exists()

    def test_flops_of_an_input_without_records_counts_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        code, captured = run_json(capsys, ["flops", "--input", str(path)])
        assert code == 0
        results = json.loads(captured.out)["results"]
        assert (results["scales"], results["total_params"], results["total_flops"]) == ([], 0, 0)

    @pytest.mark.parametrize(
        "layers, widths, message",
        [(9, (), "no records with layers=9 to hold out"), (8, (512,), "layers=8 matches 2 distinct scales")],
        ids=["no-records", "two-widths"],
    )
    def test_fit_outlier_holdout_must_match_one_scale(self, tmp_path, capsys, layers, widths, message):
        runset, _ = ar32_synth(900)
        extra = [
            dataclasses.replace(r, scale=sf.ScaleSpec.from_dims(8, width))
            for width in widths for r in runset.records if r.scale.layers == 8
        ]
        path = tmp_path / "runs.jsonl"
        sf.emit([*runset.records, *extra], path)
        argv = ["diagnose", "fit-outlier", "--input", str(path), "--holdout-layers", str(layers),
                "--observed", "1.0", "--seed", "1"]
        code, captured = run_json(capsys, argv)
        assert code == 2
        assert captured.err == f"error: {message}\n"

    def test_plot_heldout_needs_layer_counts(self, tmp_path, capsys):
        runset, _ = ar32_synth(906)
        path = tmp_path / "params_only.jsonl"
        params_only = [
            dataclasses.replace(r, scale=sf.ScaleSpec.from_params(r.scale.params))
            for r in runset.records
        ]
        sf.emit(params_only, path)
        out = tmp_path / "p.svg"
        argv = ["plot", "--input", str(path), "--out", str(out)]
        assert run_json(capsys, argv)[0] == 0
        code, captured = run_json(capsys, [*argv, "--heldout-layers", "7-8"])
        assert code == 2
        assert "lack layer counts" in captured.err

    def test_synth_refuses_unreadable_out(self, tmp_path, capsys):
        out = tmp_path / "S"
        code, captured = run_json(
            capsys,
            ["synth", "--alpha", "-0.1", "--log-c", "2", "--seed", "1", "--out", str(out)],
        )
        assert code == 1
        assert "--out must end in .jsonl or .ndjson" in captured.err
        assert list(tmp_path.iterdir()) == []


def _row(**fields):
    base = dict(task="t", family="f", metric="m", value=1.0, direction="min", layers=1, hidden=32)
    base.update(fields)
    return json.dumps({k: v for k, v in base.items() if v is not None})


class TestBadNumericInput:
    """Bad numbers exit 2 with a one-line error naming the row, never a traceback."""

    @pytest.mark.parametrize(
        "row, message",
        [
            (_row(layers=0), "row 2: layers must be positive, got 0"),
            (_row(layers=None, hidden=None, params=0), "row 2: params must be positive, got 0"),
            ('{"task": "t", "family": "f", "metric": "m", "direction": "min", "params": 12288, '
             '"value": 1' + "0" * 400 + "}", "row 2: field 'value' does not fit in float64"),
            ('{"task": "t", "family": "f", "metric": "m", "direction": "min", "value": 1.0, '
             '"params": 1' + "0" * 400 + "}", "row 2: params does not fit in float64"),
            (_row(layers=10**400, params=12288), "row 2: layers does not fit in float64"),
        ],
        ids=["layers-0", "params-0", "value-1e400", "params-1e400", "layers-1e400"],
    )
    def test_bad_row_names_the_row(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(_row() + "\n" + row + "\n", encoding="utf-8")
        code, captured = run_json(capsys, ["fit", "--input", str(path)])
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_huge_target_params(self, runs_file, capsys):
        code, captured = run_json(
            capsys, ["predict", "--input", runs_file, "--target-params", "1" + "0" * 400, "--seed", "1"]
        )
        assert code == 2
        assert captured.err == "error: params does not fit in float64\n"

    def test_huge_flops_params(self, capsys):
        code, captured = run_json(capsys, ["flops", "--params", "1" + "0" * 400, "--tokens", "1"])
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: params does not fit in float64\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha", "100", "--log-c", "2"], "overflows float64"),
            (["--alpha", "-0.1", "--log-c", "2", "--sigma-pre", "nan"], "must be finite"),
            (["--alpha", "-0.1", "--log-c", "2", "--sigma-fin", "inf"], "must be finite"),
            (["--alpha", "nan", "--log-c", "2"], "must be finite"),
            (["--alpha", "-0.1", "--log-c=-inf"], "must be finite"),
            (["--alpha", "-0.1", "--log-c", "2", "--layers", "3-1"], "--layers must satisfy 1 <= lo <= hi"),
            (["--alpha", "-0.1", "--log-c", "2", "--layers", "0-2"], "--layers must satisfy 1 <= lo <= hi"),
        ],
        ids=["overflow", "sigma-pre-nan", "sigma-fin-inf", "alpha-nan", "log-c-inf", "layers-reversed",
             "layers-0"],
    )
    def test_synth_writes_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.jsonl"
        code, captured = run_json(capsys, ["synth", *flags, "--seed", "1", "--out", str(out)])
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


class TestOversizedCsvCell:
    """A CSV cell over the csv module's field limit exits 2 naming its line."""

    HEADER = "layers,hidden,task,family,metric,value,direction\n"
    BIG = "9" * 200_000

    @pytest.mark.parametrize(
        "second, message",
        [("1,32,t,f,m,1.0,min", "row 3: field larger than field limit (131072)"),
         ("0,32,t,f,m,1.0,min", "row 2: layers must be positive, got 0"),
         ("1,32,caf\udce9,f,m,1.0,min", "row 2: not valid UTF-8")],  # byte 0xe9 alone
        ids=["good-row-first", "earlier-bad-row-wins", "earlier-bad-byte-wins"],
    )
    def test_fit(self, tmp_path, capsys, second, message):
        path = tmp_path / "big.csv"
        text = self.HEADER + second + "\n1,32,t,f,m," + self.BIG + ",min\n"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        code, captured = run_json(capsys, ["fit", "--input", str(path)])
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_diagnose_earlystop(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("step,eval_loss\n0,1.0\n1," + self.BIG + "\n", encoding="utf-8")
        code, captured = run_json(capsys, ["diagnose", "earlystop", "--curve", str(path), "--patience", "3"])
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: row 3: field larger than field limit (131072)\n"


class TestLongCells:
    """A long bad cell or key is echoed cut to 40 characters, so the error line stays short."""

    CSV_HEADER = "layers,hidden,task,family,pretrain_seed,finetune_seed,metric,value,direction\n"
    CSV_GOOD = "1,32,t,f,0,0,m,1.0,min\n"

    def fit_error(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, captured = run_json(capsys, ["fit", "--input", str(path)])
        assert code == 2
        assert captured.out == ""
        assert len(captured.err) < 200
        return captured.err

    def test_long_csv_seed(self, tmp_path, capsys):
        text = self.CSV_HEADER + self.CSV_GOOD + "1,32,t,f,0," + "1" * 5000 + ",m,1.0,min\n"
        err = self.fit_error(tmp_path, capsys, "long-seed.csv", text)
        assert err == "error: row 3: field 'finetune_seed' must be an integer, got '" + "1" * 39 + "...\n"

    def test_long_csv_header_key(self, tmp_path, capsys):
        text = self.CSV_HEADER.replace("direction", "d" * 5000) + self.CSV_GOOD
        err = self.fit_error(tmp_path, capsys, "long-key.csv", text)
        assert err == "error: row 1: unknown field '" + "d" * 39 + "... in CSV header\n"

    def test_huge_jsonl_integer_is_invalid_json(self, tmp_path, capsys):
        # past Python's int-string conversion limit, json.loads raises a plain ValueError
        huge = _row()[:-1] + ', "tokens": 1' + "0" * 5000 + "}"
        err = self.fit_error(tmp_path, capsys, "huge-int.jsonl", _row() + "\n" + huge + "\n")
        assert err.startswith("error: row 2: invalid JSON (")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_earlystop_nonfinite_min_decrease_exits_2(tmp_path, capsys, value):
    path = tmp_path / "curve.csv"
    path.write_text("step,eval_loss\n0,1.0\n1,0.9\n", encoding="utf-8")
    argv = ["diagnose", "earlystop", "--curve", str(path), "--patience", "3", "--min-decrease", value]
    code, captured = run_json(capsys, argv)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: min_decrease must be finite, got {value}\n"


class TestDeeplyNestedJson:
    """A JSONL line nested past the recursion limit exits 2 naming its row."""

    def test_fit(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        good = '{"layers": 1, "hidden": 32, "task": "t", "family": "f", "metric": "m", "value": 1.0, "direction": "min"}'
        path.write_text(good + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
        code, captured = run_json(capsys, ["fit", "--input", str(path)])
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: row 2: invalid JSON (nested too deeply)\n"


class TestUndecodableInput:
    """A byte that is not UTF-8 exits 2 naming its line, unless a bad row
    comes ahead of it, in a record file or a loss curve; a CSV header
    behind a byte order mark exits 2 saying so."""

    GOOD = '{"layers": 1, "hidden": 32, "task": "t", "family": "f", "metric": "m", "value": 1.0, "direction": "min"}'
    HEADER = "layers,hidden,task,family,metric,value,direction"

    @pytest.mark.parametrize("good_rows", [1, 500], ids=["first-buffer", "past-the-first-buffer"])
    @pytest.mark.parametrize(
        "fmt, eol, task",
        [
            ("jsonl", "\n", '"caf\xe9"'),
            *(("csv", eol, "caf\xe9") for eol in ("\n", "\r\n", "\r")),
            *(("csv", eol, f'"caf\xe9{eol}more"') for eol in ("\n", "\r\n")),
        ],
        ids=["jsonl", "csv-lf", "csv-crlf", "csv-cr", "csv-lf-two-line-cell", "csv-crlf-two-line-cell"],
    )
    def test_bad_byte_names_its_line(self, tmp_path, capsys, fmt, eol, task, good_rows):
        # the bad row's task cell holds the byte; a two-line cell holds it on its first line
        if fmt == "jsonl":
            head, good, bad = "", self.GOOD + eol, self.GOOD.replace('"t"', task) + eol
        else:  # a good row spans two lines, its quoted cell holding a line break
            head, good, bad = self.HEADER + eol, f'1,32,"t{eol}u",f,m,1.0,min{eol}', f"1,32,{task},f,m,1.0,min{eol}"
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes((head + good * good_rows + bad + good).encode("latin-1"))
        code, captured = run_json(capsys, ["fit", "--input", str(path)])
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: row {(head + good * good_rows).count(eol) + 1}: not valid UTF-8\n"

    @pytest.mark.parametrize("good_rows, gap", [(1, 0), (200, 5)], ids=["bad-row-2-byte-on-3", "bad-row-201-byte-on-207"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv", "curve"])
    def test_bad_row_ahead_of_a_bad_byte_is_named_first(self, tmp_path, capsys, fmt, good_rows, gap):
        # a bad row, then a byte that is not UTF-8 a few lines on, in the
        # first 8 KiB or past them: the bad row is named
        if fmt == "jsonl":
            head, good = "", self.GOOD + "\n"
            bad_value, bad_byte = good.replace("1.0", "-1.0"), good.replace('"t"', '"caf\xe9"')
        elif fmt == "csv":
            head, good = self.HEADER + "\n", "1,32,t,f,m,1.0,min\n"
            bad_value, bad_byte = good.replace("1.0", "-1.0"), good.replace(",t,", ",caf\xe9,")
        else:  # a loss curve
            head, good = "step,eval_loss\n", "0,1.0\n"
            bad_value, bad_byte = "1,abc\n", "2,0.\xe99\n"
        lead = good * good_rows
        if fmt == "curve" and good_rows > 1:  # rows of 49 bytes, so 200 of them pass the first 8 KiB; steps increase
            lead = "".join(f"{step:03d},1.{'0' * 42}\n" for step in range(good_rows))
        path = tmp_path / ("bad.csv" if fmt == "curve" else f"bad.{fmt}")
        path.write_bytes((head + lead + bad_value + good * gap + bad_byte).encode("latin-1"))
        row = (head + lead).count("\n") + 1
        argv, message = ["fit", "--input", str(path)], "value must be positive"
        if fmt == "curve":
            argv = ["diagnose", "earlystop", "--curve", str(path), "--patience", "2"]
            message = "expected 'step,eval_loss' integers/floats"
        code, captured = run_json(capsys, argv)
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: row {row}: {message}\n"

    def test_bad_byte_in_a_loss_curve(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"step,eval_loss\n0,1.0\n1,0.\xe99\n")
        code, captured = run_json(capsys, ["diagnose", "earlystop", "--curve", str(path), "--patience", "2"])
        assert (code, captured.out, captured.err) == (2, "", "error: row 3: not valid UTF-8\n")

    @pytest.mark.parametrize("curve", [False, True], ids=["records", "loss-curve"])
    def test_byte_order_mark_in_a_csv_header(self, tmp_path, capsys, curve):
        path = tmp_path / "bom.csv"
        if curve:
            path.write_text("\ufeffstep,eval_loss\n0,1.0\n", encoding="utf-8")
            argv = ["diagnose", "earlystop", "--curve", str(path), "--patience", "2"]
        else:
            path.write_text("\ufeff" + self.HEADER + "\n1,32,t,f,m,1.0,min\n", encoding="utf-8")
            argv = ["fit", "--input", str(path)]
        code, captured = run_json(capsys, argv)
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: row 1: CSV header starts with a UTF-8 byte order mark (U+FEFF)\n"


class TestLabelsXmlCannotCarry:
    """A label holding a character XML 1.0 cannot carry exits 2 naming its
    row, in every writer; a plot of good labels is XML."""

    @pytest.mark.parametrize("command", ["plot", "fit --format table"])
    def test_control_character_exits_2(self, tmp_path, capsys, command):
        path, out = tmp_path / "ctl.jsonl", tmp_path / "p.svg"
        rows = [_row(task="a\x01b", layers=n, hidden=32 * n) for n in (1, 2, 3)]
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        argv = {"plot": ["plot", "--input", str(path), "--out", str(out)],
                "fit --format table": ["fit", "--input", str(path), "--format", "table"]}[command]
        code, captured = run_json(capsys, argv)
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: row 1: field 'task' holds U+0001, which XML cannot carry\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, label, message",
        [
            ("--task", "", "missing field 'task'"),
            ("--task", "  ", "missing field 'task'"),
            ("--family", "a\x01b", "field 'family' holds U+0001, which XML cannot carry"),
            ("--metric", "caf\udce9", "field 'metric' is not valid Unicode"),
        ],
        ids=["empty-task", "blank-task", "control-family", "surrogate-metric"],
    )
    def test_synth_label_a_record_file_cannot_hold_exits_2(self, tmp_path, capsys, flag, label, message):
        argv = ["synth", "--alpha", "0.08", "--log-c", "3.0", "--seed", "1", flag, label,
                "--out", str(tmp_path / "x.jsonl")]
        code, captured = run_json(capsys, argv)
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_band_plot_is_xml(self, tmp_path, capsys):
        runset, _ = ar32_synth(907)
        path, out = tmp_path / "runs.jsonl", tmp_path / "p.svg"
        sf.emit([dataclasses.replace(r, task='<a & "b">') for r in runset.records], path)
        argv = ["plot", "--input", str(path), "--out", str(out), "--band", "--B", "40", "--seed", "3"]
        code, _ = run_json(capsys, argv)
        assert code == 0
        root = ElementTree.parse(out).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert '<a & "b">/' in "".join(root.itertext())


class TestScaleFlags:
    """``--target-*`` and ``--baseline-*`` groups: params, or layers with hidden, never both."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--baseline-hidden", "256"],
            ["--baseline-layers", "4"],
            ["--baseline-params", "1000", "--baseline-layers", "4", "--baseline-hidden", "128"],
        ],
        ids=["hidden-only", "layers-only", "params-and-dims"],
    )
    def test_flops_baseline_misuse_is_usage_error(self, runs_file, capsys, flags):
        code, captured = run_json(capsys, ["flops", "--input", runs_file, *flags])
        assert code == 1
        assert captured.out == ""
        assert "--baseline-" in captured.err

    def test_flops_baseline_needs_input(self, capsys):
        argv = ["flops", "--params", "100", "--tokens", "5", "--baseline-layers", "12",
                "--baseline-hidden", "768"]
        code, captured = run_json(capsys, argv)
        assert code == 1
        assert "baseline needs --input" in captured.err

    def test_flops_baseline_params(self, runs_file, capsys):
        code, captured = run_json(
            capsys, ["flops", "--input", runs_file, "--baseline-params", "84934656"]
        )
        assert code == 0
        report = json.loads(captured.out)
        assert report["inputs"]["baseline_params"] == 84934656
        assert report["results"]["savings_ratio"] == 84934656 / 15_925_248

    @pytest.mark.parametrize(
        "flags",
        [["--target-params", "1000", "--target-layers", "3"], ["--target-hidden", "96"], []],
        ids=["params-and-layers", "hidden-only", "none"],
    )
    def test_predict_target_misuse_is_usage_error(self, runs_file, capsys, flags):
        code, captured = run_json(capsys, ["predict", "--input", runs_file, "--seed", "1", *flags])
        assert code == 1
        assert "--target-" in captured.err


BOOTSTRAP_KEYS = {"B": 40, "lo": 10.0, "hi": 90.0, "mode": "naive", "seed": 3}
BOOTSTRAP_FLAGS = ["--B", "40", "--lo", "10", "--hi", "90", "--mode", "naive", "--seed", "3"]


class TestEchoedInputs:
    """Every setting that shapes a bootstrap band is echoed in the report's inputs."""

    def inputs(self, capsys, argv):
        code, captured = run_json(capsys, argv)
        assert code == 0, captured.err
        return json.loads(captured.out)["inputs"]

    def assert_bootstrap_keys(self, inputs):
        assert {k: inputs[k] for k in BOOTSTRAP_KEYS} == BOOTSTRAP_KEYS

    def test_bootstrap(self, runs_file, capsys):
        self.assert_bootstrap_keys(
            self.inputs(capsys, ["bootstrap", "--input", runs_file, *BOOTSTRAP_FLAGS])
        )

    def test_predict(self, runs_file, capsys):
        argv = ["predict", "--input", runs_file, "--target-params", "84934656", *BOOTSTRAP_FLAGS]
        self.assert_bootstrap_keys(self.inputs(capsys, argv))

    def test_predict_inputs_tell_percentiles_apart(self, runs_file, capsys):
        argv = ["predict", "--input", runs_file, "--target-params", "84934656", "--B", "200",
                "--seed", "3"]
        default = self.inputs(capsys, argv)
        narrow = self.inputs(capsys, [*argv, "--lo", "10", "--hi", "90"])
        assert (default["lo"], default["hi"]) == (2.5, 97.5)
        assert (narrow["lo"], narrow["hi"]) == (10.0, 90.0)

    def test_select(self, two_family_file, capsys):
        argv = ["select", "--input", two_family_file, "--family-a", "mlm", "--family-b", "pmi",
                "--target-params", "84934656", *BOOTSTRAP_FLAGS]
        inputs = self.inputs(capsys, argv)
        self.assert_bootstrap_keys(inputs)
        assert (inputs["task"], inputs["metric"]) == ("t", "f1")

    def test_fit_outlier(self, runs_file, capsys):
        argv = ["diagnose", "fit-outlier", "--input", runs_file, "--holdout-layers", "8",
                "--observed", "1.0", *BOOTSTRAP_FLAGS]
        self.assert_bootstrap_keys(self.inputs(capsys, argv))

    def test_plot_band(self, runs_file, tmp_path, capsys):
        argv = ["plot", "--input", runs_file, "--out", str(tmp_path / "p.svg"), "--band",
                *BOOTSTRAP_FLAGS]
        self.assert_bootstrap_keys(self.inputs(capsys, argv))

    def test_plot_without_band_echoes_only_seed(self, runs_file, tmp_path, capsys):
        argv = ["plot", "--input", runs_file, "--out", str(tmp_path / "p.svg"), "--seed", "3"]
        inputs = self.inputs(capsys, argv)
        assert inputs["seed"] == 3
        assert not {"B", "lo", "hi", "mode"} & set(inputs)


class TestAgainstLibrary:
    def test_fit_matches_library(self, runs_file, capsys):
        code, captured = run_json(capsys, ["fit", "--input", runs_file])
        assert code == 0
        report = json.loads(captured.out)
        runset = sf.group(sf.ingest(runs_file))[("synthetic", "synthetic", "score")]
        assert report["results"]["fit"] == as_json(sf.fit_runset(runset))

    def test_fit_min_depth_and_space_match_library(self, runs_file, capsys):
        code, captured = run_json(
            capsys, ["fit", "--input", runs_file, "--min-depth", "2", "--r2-space", "linear"]
        )
        assert code == 0
        report = json.loads(captured.out)
        runset = sf.group(sf.ingest(runs_file))[("synthetic", "synthetic", "score")]
        expected = sf.fit_runset(runset, min_layers=2, space="linear")
        assert report["results"]["fit"] == as_json(expected)

    def test_bootstrap_matches_library(self, runs_file, capsys):
        runset = sf.group(sf.ingest(runs_file))[("synthetic", "synthetic", "score")]
        for mode in ("hierarchical", "naive"):
            argv = ["bootstrap", "--input", runs_file, "--B", "80", "--seed", "17", "--mode", mode]
            cfg = sf.BootstrapConfig(n_replicates=80, mode=mode, rng_seed=17)
            band = sf.bootstrap_band(runset, cfg)
            expected = as_json(band)
            code, captured = run_json(capsys, [*argv, "--replicates"])
            assert code == 0
            printed = json.loads(captured.out)["results"]["band"]
            assert printed == expected
            assert printed["replicate_slopes"] == list(band.replicate_slopes)
            assert printed["replicate_intercepts"] == list(band.replicate_intercepts)
            code, captured = run_json(capsys, argv)
            assert code == 0
            del expected["replicate_slopes"], expected["replicate_intercepts"]
            assert json.loads(captured.out)["results"]["band"] == expected

    def test_holdout_matches_library(self, runs_file, capsys):
        code, captured = run_json(
            capsys,
            ["holdout", "--input", runs_file, "--train-layers", "1-6", "--test-layers", "7-8"],
        )
        assert code == 0
        report = json.loads(captured.out)
        runset = sf.group(sf.ingest(runs_file))[("synthetic", "synthetic", "score")]
        assert report["results"] == as_json(sf.holdout_eval(runset, (1, 6), (7, 8)))

    def test_predict_matches_library(self, runs_file, capsys):
        code, captured = run_json(
            capsys,
            ["predict", "--input", runs_file, "--target-layers", "12", "--target-hidden",
             "768", "--B", "60", "--seed", "3", "--actual", "90.0"],
        )
        assert code == 0
        report = json.loads(captured.out)
        runset = sf.group(sf.ingest(runs_file))[("synthetic", "synthetic", "score")]
        cfg = sf.BootstrapConfig(n_replicates=60, rng_seed=3)
        expected = sf.extrapolate(runset, sf.ScaleSpec.from_dims(12, 768), cfg, actual=90.0)
        assert report["results"] == as_json(expected)


class TestReportSchema2:
    """A bootstrap report prints the band's intervals; its replicates only on request."""

    ARGV = ["--B", "40", "--seed", "4"]

    def test_default_json_has_no_replicates(self, runs_file, capsys):
        code, captured = run_json(capsys, ["bootstrap", "--input", runs_file, *self.ARGV])
        assert code == 0
        report = json.loads(captured.out)
        assert report["schema_version"] == "2"
        assert sorted(report["results"]["band"]) == [
            "hi_pct", "intercept_ci", "lo_pct", "point_band", "slope_ci"
        ]
        assert report["inputs"]["B"] == 40
        assert "replicate" not in captured.out

    def test_default_table_has_no_replicates(self, runs_file, capsys):
        argv = ["bootstrap", "--input", runs_file, *self.ARGV, "--format", "table"]
        code, captured = run_json(capsys, argv)
        assert code == 0
        assert "results.band.slope_ci[0] = " in captured.out
        assert "schema_version = 2" in captured.out
        assert "replicate" not in captured.out

    def test_replicates_table_lists_every_replicate(self, runs_file, capsys):
        argv = ["bootstrap", "--input", runs_file, *self.ARGV, "--format", "table", "--replicates"]
        code, captured = run_json(capsys, argv)
        assert code == 0
        lines = captured.out.splitlines()
        for name in ("replicate_slopes", "replicate_intercepts"):
            listed = [line for line in lines if line.startswith(f"results.band.{name}[")]
            assert len(listed) == 40
        assert "replicates_used" not in captured.out

    def test_replicates_only_adds_the_arrays(self, runs_file, capsys):
        argv = ["bootstrap", "--input", runs_file, *self.ARGV]
        _, default = run_json(capsys, argv)
        _, full = run_json(capsys, [*argv, "--replicates"])
        short, long = json.loads(default.out), json.loads(full.out)
        band = long["results"].pop("band")
        assert short["results"].pop("band") == {
            k: v for k, v in band.items() if not k.startswith("replicate_")
        }
        assert short == long

    def test_flag_is_bootstrap_only(self, runs_file, capsys):
        argv = ["predict", "--input", runs_file, "--target-params", "84934656", *self.ARGV]
        assert run([*argv, "--replicates"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestDeterminism:
    def test_bootstrap_report_bytes_identical(self, runs_file, capsys):
        argv = ["bootstrap", "--input", runs_file, "--B", "50", "--seed", "9"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert first.out == second.out

    def test_synth_outputs_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code, _ = run_json(
                capsys,
                ["synth", "--alpha", "0.08", "--log-c", "3.0", "--sigma-fin", "0.01",
                 "--seed", "5", "--out", str(out)],
            )
            assert code == 0
            outs.append((out.read_bytes(), (tmp_path / (name + ".truth.json")).read_bytes()))
        assert outs[0] == outs[1]

    def test_plot_bytes_identical(self, runs_file, tmp_path, capsys):
        blobs = []
        for name in ("p1.svg", "p2.svg"):
            out = tmp_path / name
            code, _ = run_json(
                capsys,
                ["plot", "--input", runs_file, "--out", str(out), "--band", "--B", "40",
                 "--seed", "6"],
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert b"<polygon" in blobs[0]


class TestSubcommands:
    def test_flops_params_tokens(self, capsys):
        code, captured = run_json(capsys, ["flops", "--params", "12288", "--tokens", "1000000"])
        assert code == 0
        report = json.loads(captured.out)
        assert report["results"]["estimate"]["flops"] == 73_728_000_000
        assert "note" in report["results"]

    @pytest.mark.parametrize(
        "flags",
        [["--params", "1", "--tokens", "1"], ["--tokens", "1"], ["--params", "1"]],
        ids=["params-and-tokens", "tokens", "params"],
    )
    def test_flops_both_sources_rejected(self, runs_file, capsys, flags):
        code, captured = run_json(capsys, ["flops", *flags, "--input", runs_file])
        assert code == 1
        assert captured.out == ""
        assert captured.err == "usage error: give either --params/--tokens or --input, not both\n"

    @pytest.mark.parametrize(
        "flags, message",
        [(["--params", "1"], "--tokens is required with --params"), ([], "flops needs --params/--tokens or --input")],
        ids=["params-without-tokens", "no-source"],
    )
    def test_flops_needs_a_whole_source(self, capsys, flags, message):
        code, captured = run_json(capsys, ["flops", *flags])
        assert code == 1
        assert captured.err == f"usage error: {message}\n"

    def test_flops_from_records_with_baseline(self, runs_file, capsys):
        code, captured = run_json(
            capsys,
            ["flops", "--input", runs_file, "--baseline-layers", "12",
             "--baseline-hidden", "768"],
        )
        assert code == 0
        report = json.loads(captured.out)
        assert report["results"]["total_params"] == 15_925_248
        assert report["results"]["savings_ratio"] == pytest.approx(5.333333333, rel=1e-9)
        assert report["results"]["total_flops"] is None  # no token counts in fixture

    def test_flops_total_is_exact_with_token_counts(self, tmp_path, capsys):
        runset, _ = ar32_synth(903, seeds_per_scale=2)
        tokens = [2**70 + i for i in range(len(runset))]  # 6ND far beyond int64
        path = tmp_path / "tokens.csv"
        sf.emit([dataclasses.replace(r, tokens=t) for r, t in zip(runset.records, tokens)], path)
        code, captured = run_json(capsys, ["flops", "--input", str(path)])
        assert code == 0
        expected = sum(6 * r.scale.params * t for r, t in zip(runset.records, tokens))
        assert json.loads(captured.out)["results"]["total_flops"] == expected

    def test_select_happy_path(self, two_family_file, capsys):
        code, captured = run_json(
            capsys,
            ["select", "--input", two_family_file, "--family-a", "mlm", "--family-b", "pmi",
             "--target-params", "84934656", "--B", "60", "--seed", "21",
             "--actual-a", "85.0", "--actual-b", "86.5"],
        )
        assert code == 0
        report = json.loads(captured.out)
        results = report["results"]
        assert results["predicted_gap"] > 0
        assert results["sign_agreement"] is True
        assert results["reliable"] is True

    def test_diagnose_earlystop_single(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        path.write_text(
            "step,eval_loss\n0,1.0\n1,0.8\n2,0.79\n3,0.79\n4,0.79\n5,0.79\n", encoding="utf-8"
        )
        code, captured = run_json(
            capsys, ["diagnose", "earlystop", "--curve", str(path), "--patience", "3"]
        )
        assert code == 0
        report = json.loads(captured.out)
        assert report["results"]["early_stop"]["stop_index"] == 5
        assert report["results"]["early_stop"]["best_index"] == 2

    def test_diagnose_earlystop_comparison(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        rows = [3.0, 2.5, 2.5, 2.5, 2.5, 2.5, 2.0, 1.5, 1.4]
        path.write_text(
            "step,eval_loss\n" + "".join(f"{i},{v}\n" for i, v in enumerate(rows)),
            encoding="utf-8",
        )
        code, captured = run_json(
            capsys,
            ["diagnose", "earlystop", "--curve", str(path), "--patience", "8", "3"],
        )
        assert code == 0
        report = json.loads(captured.out)
        policies = report["results"]["policies"]
        assert [p["policy"]["patience"] for p in policies] == [3, 8]
        assert policies[1]["loss_at_best"] < policies[0]["loss_at_best"]

    def test_diagnose_fit_outlier(self, tmp_path, capsys):
        runset, truth = ar32_synth(905)
        path = tmp_path / "runs.jsonl"
        sf.emit(runset.records, path)
        observed = truth.value_at(sf.param_count(8, 256)) * 1.5
        code, captured = run_json(
            capsys,
            ["diagnose", "fit-outlier", "--input", str(path), "--holdout-layers", "8",
             "--observed", str(observed), "--B", "100", "--seed", "77"],
        )
        assert code == 0
        report = json.loads(captured.out)
        assert report["results"]["flag"] == "suspect_undertrained"

    def test_synth_fit_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        code, captured = run_json(
            capsys,
            ["synth", "--alpha", "0.08", "--log-c", str(TRUE_LOG_C), "--seed", "8",
             "--out", str(out)],
        )
        assert code == 0
        report = json.loads(captured.out)
        assert report["results"]["records_written"] == 40
        truth = json.loads((tmp_path / "gen.jsonl.truth.json").read_text())
        assert truth["alpha"] == TRUE_ALPHA
        code, captured = run_json(capsys, ["fit", "--input", str(out)])
        assert code == 0
        fit = json.loads(captured.out)["results"]["fit"]
        assert fit["alpha"] == pytest.approx(TRUE_ALPHA, abs=1e-9)

    def test_table_format(self, runs_file, capsys):
        code, captured = run_json(capsys, ["fit", "--input", runs_file, "--format", "table"])
        assert code == 0
        assert "results.fit.alpha = " in captured.out


class TestCommandWiring:
    """Each leaf subcommand reaches its own handler and names its argv path in the report."""

    @pytest.mark.parametrize(
        "command",
        ["fit", "bootstrap", "predict", "holdout", "select", "flops", "diagnose earlystop",
         "diagnose fit-outlier", "synth", "plot"],
    )
    def test_leaf_reports_its_path(self, command, runs_file, two_family_file, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text("step,eval_loss\n0,1.0\n1,0.9\n2,0.95\n", encoding="utf-8")
        runs = ["--input", runs_file]
        boot = ["--B", "20", "--seed", "1"]
        flags = {
            "fit": runs,
            "bootstrap": [*runs, *boot],
            "predict": [*runs, "--target-params", "84934656", *boot],
            "holdout": [*runs, "--train-layers", "1-6", "--test-layers", "7-8"],
            "select": ["--input", two_family_file, "--family-a", "mlm", "--family-b", "pmi",
                       "--target-params", "84934656", *boot],
            "flops": ["--params", "1000", "--tokens", "2000"],
            "diagnose earlystop": ["--curve", str(curve), "--patience", "1"],
            "diagnose fit-outlier": [*runs, "--holdout-layers", "8", "--observed", "1.0", *boot],
            "synth": ["--alpha", "0.08", "--log-c", "3.0", "--seed", "1", "--out", str(tmp_path / "s.jsonl")],
            "plot": [*runs, "--out", str(tmp_path / "p.svg")],
        }
        code, captured = run_json(capsys, [*command.split(), *flags[command], "--format", "table"])
        assert code == 0, captured.err
        lines = captured.out.splitlines()
        assert [line for line in lines if line.startswith("command = ")] == [f"command = {command}"]


class TestParserReuse:
    def test_second_parse_inherits_nothing(self):
        assert _parser() is _parser()
        first = _parser().parse_args(
            ["diagnose", "earlystop", "--curve", "a.csv", "--patience", "3", "7", "15",
             "--min-decrease", "0.5", "--format", "table"]
        )
        second = _parser().parse_args(["diagnose", "earlystop", "--curve", "b.csv", "--patience", "4"])
        assert first.patience == [3, 7, 15]
        assert (second.curve, second.patience, second.min_decrease, second.format) == (
            "b.csv", [4], 0.0, "json"
        )
        third = _parser().parse_args(["fit", "--input", "c.jsonl"])
        assert not hasattr(third, "patience")
        assert third.min_depth is None


class TestReportSerialization:
    def test_roundtrip(self):
        fit = sf.fit_line([(1, 3), (2, 6), (4, 12)])
        report = {"command": "fit", "inputs": {"input": "x.jsonl"}, "results": {"fit": fit}}
        text = render_report(report)
        parsed = json.loads(text)
        assert parsed == {**report, "results": {"fit": as_json(fit)}}
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text

    @pytest.mark.parametrize("value, name", [(object(), "object"), (range(2), "range")])
    def test_value_json_cannot_encode(self, value, name):
        with pytest.raises(TypeError, match=f"^cannot serialize <class '{name}'>$"):
            render_report({"command": "x", "inputs": {}, "results": {"y": value}})

    def test_key_sorted_output(self):
        report = {"command": "z", "inputs": {"b": 1, "a": 2}, "results": {"y": 1, "x": 2}}
        text = render_report(report)
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"x"') < text.index('"y"')
