import dataclasses
import gc
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.diagnose import REL_TOL
from scalefit.errors import DataError
from scalefit.records import open_csv

from conftest import TARGET, ar32_synth, chunk_readers, early_stop_replay


def curve(losses, steps=None):
    if steps is None:
        steps = range(len(losses))
    return sf.LossCurve(steps=tuple(steps), losses=tuple(losses))


WORKED_LOSSES = (1.0, 0.8, 0.79, 0.79, 0.79, 0.79)


class TestEarlyStop:
    def test_worked_example(self):
        result = sf.early_stop(curve(WORKED_LOSSES), sf.EarlyStopPolicy(patience=3))
        assert result.stop_index == 5
        assert result.best_index == 2
        assert result.stopped is True

    def test_strictly_decreasing_never_stops(self):
        losses = [1.0 / (i + 1) for i in range(10)]
        for patience in (1, 3, 9):
            result = sf.early_stop(curve(losses), sf.EarlyStopPolicy(patience=patience))
            assert result.stopped is False
            assert result.stop_index == 9
            assert result.best_index == 9

    def test_immediate_plateau(self):
        result = sf.early_stop(curve([1.0, 1.0]), sf.EarlyStopPolicy(patience=1))
        assert result.stop_index == 1
        assert result.best_index == 0
        assert result.stopped is True

    def test_tie_counts_as_non_improving(self):
        # an improvement of exactly min_decrease does not qualify
        result = sf.early_stop(
            curve([1.0, 0.9, 0.8]), sf.EarlyStopPolicy(patience=1, min_decrease=0.1)
        )
        assert result.stopped is True
        assert result.stop_index == 1
        assert result.best_index == 1  # argmin tracking is separate from the counter

    def test_loss_scale_invariance(self):
        rng = sf.substream(55, 0)
        losses = list(rng.uniform(0.5, 2.0, 30))
        policy = sf.EarlyStopPolicy(patience=3)
        base = sf.early_stop(curve(losses), policy)
        for c in (0.5, 4.0):  # powers of two rescale exactly
            scaled = sf.early_stop(curve([v * c for v in losses]), policy)
            assert (scaled.stop_index, scaled.best_index, scaled.stopped) == (
                base.stop_index,
                base.best_index,
                base.stopped,
            )

    def test_step_translation_invariance(self):
        losses = list(WORKED_LOSSES)
        policy = sf.EarlyStopPolicy(patience=2)
        base = sf.early_stop(curve(losses), policy)
        moved = sf.early_stop(curve(losses, steps=[s + 1000 for s in range(len(losses))]), policy)
        assert (moved.stop_index, moved.best_index) == (base.stop_index, base.best_index)

    def test_patience_monotonicity(self):
        rng = sf.substream(56, 0)
        for trial in range(20):
            losses = list(rng.uniform(0.5, 2.0, 40))
            prev_stop = -1
            prev_best = float("inf")
            for patience in range(1, 9):
                res = sf.early_stop(curve(losses), sf.EarlyStopPolicy(patience=patience))
                assert res.stop_index >= prev_stop
                assert losses[res.best_index] <= prev_best
                prev_stop = res.stop_index
                prev_best = losses[res.best_index]

    def test_policy_validation(self):
        with pytest.raises(DataError):
            sf.EarlyStopPolicy(patience=0)
        with pytest.raises(DataError):
            sf.EarlyStopPolicy(patience=1, min_decrease=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_min_decrease_rejected(self, value):
        with pytest.raises(DataError, match="^min_decrease must be"):
            sf.EarlyStopPolicy(patience=1, min_decrease=value)


@settings(max_examples=150, deadline=None)
@given(
    losses=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=40),
    patience=st.integers(1, 10),
    extra=st.integers(1, 10),
    min_decrease=st.sampled_from([0.0, 0.01, 0.5]),
)
def test_early_stop_invariants(losses, patience, extra, min_decrease):
    c = curve(losses)
    short = sf.early_stop(c, sf.EarlyStopPolicy(patience, min_decrease))
    longer = sf.early_stop(c, sf.EarlyStopPolicy(patience + extra, min_decrease))
    for res in (short, longer):
        assert res.best_index <= res.stop_index
    assert longer.stop_index >= short.stop_index


# Losses from a few values a little apart, so that ties, plateaus and
# improvements by less than min_decrease are common, and from anywhere.
STEP_LOSSES = st.sampled_from([3.0, 2.0, 1.995, 1.99, 1.5, 1.0, 0.995, 0.5, 0.49]) | st.floats(0.01, 10.0)


@settings(max_examples=400, deadline=None)
@given(
    losses=st.lists(STEP_LOSSES, min_size=1, max_size=60),
    patiences=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    min_decrease=st.sampled_from([0.0, 0.01, 0.5]),
)
def test_early_stop_matches_the_numpy_replay(losses, patiences, min_decrease):
    c = curve(losses)
    policies = [sf.EarlyStopPolicy(p, min_decrease) for p in patiences]
    for policy in policies:
        got = sf.early_stop(c, policy)
        assert got == early_stop_replay(c, policy)
        assert type(got.best_loss) is float
    rows = sf.compare_policies(c, policies)
    expected = [early_stop_replay(c, p) for p in sorted(policies, key=lambda p: p.patience)]
    assert [(r.stop_index, r.best_index, r.stopped, r.loss_at_best) for r in rows] == [
        (e.stop_index, e.best_index, e.stopped, e.best_loss) for e in expected
    ]


PLATEAU_THEN_DROP = (3.0, 2.5, 2.5, 2.5, 2.5, 2.5, 2.0, 1.5, 1.4)


class TestComparePolicies:
    def test_larger_patience_reaches_lower_loss(self):
        rows = sf.compare_policies(
            curve(PLATEAU_THEN_DROP),
            [sf.EarlyStopPolicy(patience=3), sf.EarlyStopPolicy(patience=8)],
        )
        small, large = rows
        assert small.stopped is True and small.loss_at_best == 2.5
        assert large.stopped is False and large.loss_at_best == 1.4
        assert large.loss_at_best < small.loss_at_best

    def test_single_policy_equals_early_stop(self):
        policy = sf.EarlyStopPolicy(patience=3)
        (row,) = sf.compare_policies(curve(WORKED_LOSSES), [policy])
        res = sf.early_stop(curve(WORKED_LOSSES), policy)
        assert (row.stop_index, row.best_index, row.stopped) == (
            res.stop_index,
            res.best_index,
            res.stopped,
        )

    def test_empty_policy_list(self):
        assert sf.compare_policies(curve(WORKED_LOSSES), []) == []

    def test_rows_sorted_by_patience(self):
        rows = sf.compare_policies(
            curve(PLATEAU_THEN_DROP),
            [sf.EarlyStopPolicy(patience=p) for p in (7, 1, 4)],
        )
        assert [r.policy.patience for r in rows] == [1, 4, 7]

    def test_outcome_fields_are_the_report_keys(self):
        names = [f.name for f in dataclasses.fields(sf.PolicyOutcome)]
        assert names == ["policy", "stop_index", "best_index", "loss_at_best", "stopped"]

    def test_outcome_derives_from_its_result(self):
        policy = sf.EarlyStopPolicy(patience=3)
        (row,) = sf.compare_policies(curve(PLATEAU_THEN_DROP), [policy])
        res = sf.early_stop(curve(PLATEAU_THEN_DROP), policy)
        assert (row.policy, row.stop_index, row.best_index, row.loss_at_best, row.stopped) == (
            policy, res.stop_index, res.best_index, res.best_loss, res.stopped
        )


def verdict(observed, band=(2.0, 3.0)):
    scale = sf.ScaleSpec.from_params(1000)
    return sf.ConvergenceVerdict(scale=scale, observed=observed, predicted=2.5, band=band)


class TestConvergenceVerdict:
    LO, HI = 2.0, 3.0

    def test_band_edges_widened_by_rel_tol_are_consistent(self):
        assert verdict(self.HI * (1.0 + REL_TOL)).flag == "consistent"
        assert verdict(self.LO * (1.0 - REL_TOL)).flag == "consistent"

    def test_just_outside_either_edge_is_flagged(self):
        above = math.nextafter(self.HI * (1.0 + REL_TOL), math.inf)
        below = math.nextafter(self.LO * (1.0 - REL_TOL), 0.0)
        assert verdict(above).flag == "suspect_undertrained"
        assert verdict(below).flag == "suspect_overfit_fit"


class TestLossCurve:
    def test_one_loss_per_step(self):
        with pytest.raises(DataError, match="^steps and losses must have equal length$"):
            sf.LossCurve(steps=(1, 2), losses=(1.0,))

    def test_loader(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("step,eval_loss\n0,1.0\n100,0.8\n200,0.79\n", encoding="utf-8")
        loaded = sf.load_loss_curve(path)
        assert loaded.steps == (0, 100, 200)
        assert loaded.losses == (1.0, 0.8, 0.79)

    def test_header_required(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("0,1.0\n100,0.8\n", encoding="utf-8")
        with pytest.raises(DataError, match="step,eval_loss"):
            sf.load_loss_curve(path)

    def test_bad_row_reported(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("step,eval_loss\n0,1.0\nxyz,0.8\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 3"):
            sf.load_loss_curve(path)

    # A quoted cell spanning lines 3-4, a whitespace-only row on line 5.
    SPANNING = 'step,eval_loss\n0,1.0\n"100\n",0.8\n  ,  \n200,0.79\n'

    def test_multiline_cell_and_whitespace_row(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(self.SPANNING, encoding="utf-8")
        loaded = sf.load_loss_curve(path)
        assert loaded.steps == (0, 100, 200)
        assert loaded.losses == (1.0, 0.8, 0.79)

    @pytest.mark.parametrize(
        "text, row",
        [(SPANNING + "xyz,0.7\n", 7), ('step,eval_loss\n0,1.0\n1,"x\ny\n', 4)],
        ids=["after-spanning-cell", "quote-open-to-end-of-file"],
    )
    def test_bad_row_named_by_its_last_line(self, tmp_path, text, row):
        path = tmp_path / "curve.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=rf"^row {row}: expected 'step,eval_loss' integers/floats$"):
            sf.load_loss_curve(path)

    @pytest.mark.parametrize("chunk", [1, 4096])
    @pytest.mark.parametrize(
        "text, message",
        [("step,eval_loss\n1,2.0\n2,-1.0\n", "row 3: losses must be positive and finite, got -1.0"),
         ("step,eval_loss\n1,2.0\n3,1.0\n3,0.5\n", "row 4: steps must be strictly increasing, got 3 then 3"),
         ("step,eval_loss\n1,2.0\n  ,  \n\n2,nan\n", "row 5: losses must be positive and finite, got nan"),
         ("step,eval_loss\n1,2.0\n2,-1.0\n3,1.0\nx,1\n", "row 3: losses must be positive and finite, got -1.0"),
         ("step,eval_loss\n1,-1.0\n2,1.0\n2,1.0\n", "row 2: losses must be positive and finite, got -1.0"),
         ("step,eval_loss\n1,2.0\n1,nan\n", "row 3: steps must be strictly increasing, got 1 then 1")],
        ids=["loss", "step", "after-skipped-rows", "loss-before-unparsable-row", "loss-before-step",
             "step-and-loss-in-one-row"],
    )
    def test_value_fault_named_by_its_row(self, tmp_path, monkeypatch, text, message, chunk):
        monkeypatch.setattr(sf.records, "_CHUNK", chunk)
        path = tmp_path / "curve.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=rf"^{message}$"):
            sf.load_loss_curve(path)

    def test_a_bad_row_mid_file_leaves_the_collector_on(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sf.records, "_CHUNK", 2)
        path = tmp_path / "curve.csv"
        path.write_text("step,eval_loss\n1,2.0\n2,1.5\n3,1.0\n3,0.5\n", encoding="utf-8")
        gc.enable()
        with pytest.raises(DataError, match="^row 5: steps must be strictly increasing"):
            sf.load_loss_curve(path)
        assert gc.isenabled()

    def test_steps_strictly_increasing(self):
        with pytest.raises(DataError, match="strictly increasing"):
            curve([1.0, 0.9], steps=[5, 5])

    @pytest.mark.parametrize(
        "steps, losses, message",
        [
            ((1, 3, 3, 2), (1.0,) * 4, "steps must be strictly increasing, got 3 then 3"),
            ((0, 2**70, 2**70 + 1, 2**70), (1.0,) * 4, f"steps must be strictly increasing, got {2**70 + 1} then {2**70}"),
            ((1, 2, 3), (1.0, -0.5, math.nan), "losses must be positive and finite, got -0.5"),
            ((1, 2, 3), (1.0, math.inf, 0.0), "losses must be positive and finite, got inf"),
            ((1, 1), (math.nan, 1.0), "steps must be strictly increasing, got 1 then 1"),
        ],
        ids=["tie", "big-ints", "negative-then-nan", "inf-then-zero", "steps-first"],
    )
    def test_first_offender_named(self, steps, losses, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            sf.LossCurve(steps=steps, losses=losses)

    def test_nonempty(self):
        with pytest.raises(DataError):
            curve([])

    def test_positive_losses(self):
        with pytest.raises(DataError):
            curve([1.0, -0.5])


def row_by_row_curve(path):
    """The loss curve loader as one loop over the rows: the reference.  Each
    row is checked in full before the next, in this order: it parses, its
    step exceeds the step before it, and its loss is positive and finite."""
    steps, losses = [], []
    with open_csv(path) as (header, chunks):
        if header is None or [h.strip() for h in header[:2]] != ["step", "eval_loss"]:
            raise DataError(f"{path.name}: expected CSV header 'step,eval_loss'")
        for where, rows in chunks:
            for number, row in zip(where.tolist(), rows):
                if not any(map(str.strip, row)):
                    continue
                try:
                    step, loss = int(row[0]), float(row[1])
                except (ValueError, IndexError):
                    raise DataError(f"row {number}: expected 'step,eval_loss' integers/floats") from None
                if steps and step <= steps[-1]:
                    raise DataError(f"row {number}: steps must be strictly increasing, got {steps[-1]} then {step}")
                if not (loss > 0 and math.isfinite(loss)):
                    raise DataError(f"row {number}: losses must be positive and finite, got {loss}")
                steps.append(step)
                losses.append(loss)
    return sf.LossCurve(steps=tuple(steps), losses=tuple(losses))


def curve_outcome(load, path):
    try:
        return load(path)
    except DataError as exc:
        return str(exc)


# Rows besides the generated ones: blank, short, long, quoted, and cells
# that np.loadtxt reads otherwise than int() and float(), or not at all.
CURVE_ROWS = ["0,1.0", " 10 , 0.9 ", "", "  ,  ", "20,0.8,extra", '"30\n",0.7', "1_000,5e-1", "2000,",
              "5000,-1.0", "6000,nan", "7000,0", "\u0661\u0662,0.5", "2.0,0.5", "1e3,0.5", "+12,0.5", " 5 ,0.5",
              f"{2**63},0.5", "40,0.5\x00", "50,0.5\r", "\x1c60,0.5"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 2, 3, 4096]))
def test_loss_curve_columns_match_the_row_loop(tmp_path, seed, chunk):
    rng = random.Random(seed)
    path = tmp_path / "curve.csv"
    kinds = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf.records, "_CHUNK", chunk)
        mp.setattr(sf.records, "_PARSED_LINES", 1)  # np.loadtxt parses chunks of any length
        for _ in range(40):
            rows = [f"{10 * i},{rng.uniform(0.5, 2)!r}" for i in range(rng.randint(0, 9))]
            for _ in range(rng.randint(0, 2)):
                rows.insert(rng.randint(0, len(rows)), rng.choice(CURVE_ROWS))
            path.write_text("step,eval_loss\n" + "".join(r + "\n" for r in rows), encoding="utf-8", newline="")
            got = curve_outcome(sf.load_loss_curve, path)
            assert got == curve_outcome(row_by_row_curve, path), rows
            kinds.add(type(got))
    assert kinds == {sf.LossCurve, str}


# A good curve of six points in chunks of two lines, the header alone in
# the first, and each case's change to one line: (line, text).
CURVE_LINES = ["step,eval_loss"] + [f"{10 * i},{1.0 - 0.1 * i!r}" for i in range(6)]
CURVE_FALLBACKS = {
    "nul": (3, "10,0.9\x00"),
    "over-the-field-limit": (3, "10," + "9" * 200_000),
    "crlf": (None, None),
    "arabic-indic-digits": (3, "\u0661\u0662,0.9"),
    "underscore": (3, "1_0,0.9"),
    "integer-written-as-float": (3, "10.0,0.9"),
    "exponent": (3, "1e1,0.9"),
    "empty-step": (3, ",0.9"),
    "plus-sign": (3, "+10,0.9"),
    "spaces": (3, " 10 ,0.9"),
    "past-int64": (7, f"{2**63},0.5"),
    "file-separator": (3, "\x1c10,0.9"),
    "letter-past-u00ff": (3, "\u01fe,0.9"),  # numpy would read 462
    "blank-line-before-a-bad-row": (3, "\n20,-1.0"),  # a blank line 3, a bad loss on line 4
    "quoted-cell-spanning-chunks": (6, '40,"0.6\n"'),  # lines 6-7: the last of one chunk and the next
}


@pytest.mark.parametrize("case", CURVE_FALLBACKS)
def test_loss_curve_fallbacks_match_the_row_loop(tmp_path, monkeypatch, case):
    line, text = CURVE_FALLBACKS[case]
    lines = list(CURVE_LINES)
    if line is not None:
        lines[line - 1] = text
    ending = "\r\n" if case == "crlf" else "\n"
    path = tmp_path / "curve.csv"
    path.write_text("".join(line + ending for line in lines), encoding="utf-8", newline="")
    expected = curve_outcome(row_by_row_curve, path)
    monkeypatch.setattr(sf.records, "_CHUNK", 2)
    seen = chunk_readers(monkeypatch)
    assert curve_outcome(sf.load_loss_curve, path) == expected
    # Of the chunks (lines 2, 3-4, 5-6 and 7), csv.reader reads the changed
    # line's and the rest of the file, unless np.loadtxt reads that line as
    # int() and float() do; np.loadtxt reads the others.
    start = 7 if line is None else line - 1 + line % 2 + case.startswith("blank")  # numbered by its rows
    same = case in ("crlf", "plus-sign", "spaces")
    csv_read = lambda first: not same and first >= start
    assert seen == [(first, "csv" if csv_read(first) else "parsed") for first, _ in seen]
    assert seen[-1][0] >= start - 1  # a csv.Error in a chunk's first row yields none of it


def test_a_loadtxt_warning_sends_the_chunk_to_csv_reader(tmp_path, monkeypatch):
    path = tmp_path / "curve.csv"
    path.write_text("".join(line + "\n" for line in CURVE_LINES), encoding="utf-8")
    expected = sf.load_loss_curve(path)
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("conversion through a float is deprecated", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    seen = chunk_readers(monkeypatch)
    assert sf.load_loss_curve(path) == expected
    assert seen == [(2, "csv")]


class TestFlagUndertrained:
    def test_on_law_observation_is_consistent(self):
        runset, truth = ar32_synth(130, sigma_fin=0.0)
        cfg = sf.BootstrapConfig(n_replicates=100, rng_seed=31)
        verdict = sf.flag_undertrained(runset, TARGET, truth.value_at(TARGET.params), cfg)
        assert verdict.flag == "consistent"

    def test_above_band_is_undertrained(self):
        runset, _ = ar32_synth(131)
        cfg = sf.BootstrapConfig(n_replicates=150, rng_seed=32)
        probe = sf.flag_undertrained(runset, TARGET, 1.0, cfg)  # fetch the band
        lo, hi = probe.band
        verdict = sf.flag_undertrained(runset, TARGET, hi * 1.2, cfg)
        assert verdict.band == (lo, hi)
        assert verdict.flag == "suspect_undertrained"

    def test_below_band_is_overfit_fit(self):
        runset, _ = ar32_synth(132)
        cfg = sf.BootstrapConfig(n_replicates=150, rng_seed=33)
        probe = sf.flag_undertrained(runset, TARGET, 1.0, cfg)
        lo, _ = probe.band
        verdict = sf.flag_undertrained(runset, TARGET, lo * 0.8, cfg)
        assert verdict.flag == "suspect_overfit_fit"

    def test_maximized_metric_rejected(self):
        runset, _ = ar32_synth(133, direction="maximize")
        cfg = sf.BootstrapConfig(n_replicates=50, rng_seed=34)
        with pytest.raises(DataError, match="minimized"):
            sf.flag_undertrained(runset, TARGET, 1.0, cfg)

    @pytest.mark.parametrize("observed", [0.0, math.nan])
    def test_observed_must_be_positive_and_finite(self, observed):
        runset, _ = ar32_synth(136)
        cfg = sf.BootstrapConfig(n_replicates=50, rng_seed=36)
        with pytest.raises(DataError, match="^observed value must be positive and finite$"):
            sf.flag_undertrained(runset, TARGET, observed, cfg)

    def test_runset_must_exclude_held_out_scale(self):
        runset, _ = ar32_synth(134)
        cfg = sf.BootstrapConfig(n_replicates=50, rng_seed=35)
        held = runset.scales[-1]
        with pytest.raises(DataError, match="exclude"):
            sf.flag_undertrained(runset, held, 1.0, cfg)

    def test_inflated_loss_flag_rate(self, sim_undertrained):
        assert sim_undertrained["flag_rate"] >= 0.90
