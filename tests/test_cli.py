import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import scalefit as sf
from scalefit.cli import Report, _parser, render_report, run

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
        assert report["schema_version"] == "1"
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
            render_report(Report(command="x", inputs={}, results={"y": math.inf}))

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
        ],
        ids=["layers-0", "params-0", "value-1e400", "params-1e400"],
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
        ],
        ids=["overflow", "sigma-pre-nan", "sigma-fin-inf", "alpha-nan", "log-c-inf"],
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
         ("0,32,t,f,m,1.0,min", "row 2: layers must be positive, got 0")],
        ids=["good-row-first", "earlier-bad-row-wins"],
    )
    def test_fit(self, tmp_path, capsys, second, message):
        path = tmp_path / "big.csv"
        path.write_text(self.HEADER + second + "\n1,32,t,f,m," + self.BIG + ",min\n", encoding="utf-8")
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
        code, captured = run_json(
            capsys, ["bootstrap", "--input", runs_file, "--B", "80", "--seed", "17"]
        )
        assert code == 0
        report = json.loads(captured.out)
        runset = sf.group(sf.ingest(runs_file))[("synthetic", "synthetic", "score")]
        cfg = sf.BootstrapConfig(n_replicates=80, rng_seed=17)
        assert report["results"]["band"] == as_json(sf.bootstrap_band(runset, cfg))

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

    def test_flops_both_sources_rejected(self, runs_file, capsys):
        code, _ = run_json(
            capsys, ["flops", "--params", "1", "--tokens", "1", "--input", runs_file]
        )
        assert code == 1

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
        report = Report(command="fit", inputs={"input": "x.jsonl"}, results={"fit": fit})
        text = render_report(report)
        parsed = json.loads(text)
        assert parsed == as_json(report)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text

    def test_key_sorted_output(self):
        report = Report(command="z", inputs={"b": 1, "a": 2}, results={"y": 1, "x": 2})
        text = render_report(report)
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"x"') < text.index('"y"')
