import math
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit import svg
from scalefit.errors import DataError

from conftest import ar32_synth, plot_runset_per_point, render_plot_per_point


def three_point_spec():
    group = sf.ScatterGroup(label="seed 0", points=((10.0, 2.0), (100.0, 4.0), (1000.0, 8.0)))
    return sf.PlotSpec(title="demo", x_label="params", y_label="loss", groups=(group,))


# The whole document render_plot gives for pinned_spec(), so any change to
# the bytes of a plot shows here.  Coordinates are printed to two decimals
# and the flat fit is exact, so the text does not depend on the numpy build.
PINNED_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="720" height="540" viewBox="0 0 720 540">
<rect x="0" y="0" width="720" height="540" fill="#ffffff"/>
<line x1="98.15" y1="48.00" x2="98.15" y2="476.00" stroke="#dddddd" stroke-width="1"/>
<text x="98.15" y="494.00" font-size="11" text-anchor="middle" font-family="sans-serif">1e1</text>
<line x1="249.38" y1="48.00" x2="249.38" y2="476.00" stroke="#dddddd" stroke-width="1"/>
<text x="249.38" y="494.00" font-size="11" text-anchor="middle" font-family="sans-serif">1e2</text>
<line x1="400.62" y1="48.00" x2="400.62" y2="476.00" stroke="#dddddd" stroke-width="1"/>
<text x="400.62" y="494.00" font-size="11" text-anchor="middle" font-family="sans-serif">1e3</text>
<line x1="551.85" y1="48.00" x2="551.85" y2="476.00" stroke="#dddddd" stroke-width="1"/>
<text x="551.85" y="494.00" font-size="11" text-anchor="middle" font-family="sans-serif">1e4</text>
<line x1="80.00" y1="385.68" x2="570.00" y2="385.68" stroke="#dddddd" stroke-width="1"/>
<text x="74.00" y="389.68" font-size="11" text-anchor="end" font-family="sans-serif">1e-1</text>
<line x1="80.00" y1="138.32" x2="570.00" y2="138.32" stroke="#dddddd" stroke-width="1"/>
<text x="74.00" y="142.32" font-size="11" text-anchor="end" font-family="sans-serif">1e0</text>
<rect x="80.00" y="48.00" width="490.00" height="428.00" fill="none" stroke="#333333" stroke-width="1"/>
<line x1="98.15" y1="138.32" x2="551.85" y2="138.32" stroke="#d62728" stroke-width="1.5"/>
<circle cx="98.15" cy="63.85" r="3.00" fill="#1f77b4"/>
<circle cx="249.38" cy="138.32" r="3.00" fill="#1f77b4"/>
<circle cx="400.62" cy="212.78" r="3.00" fill="#1f77b4"/>
<circle cx="551.85" cy="460.15" r="4.00" fill="none" stroke="#ff7f0e" stroke-width="1.5"/>
<rect x="582.00" y="56.00" width="10" height="10" fill="#1f77b4" stroke="#1f77b4"/>
<text x="598.00" y="65.00" font-size="11" font-family="sans-serif">seed &lt;0&gt;</text>
<rect x="582.00" y="72.00" width="10" height="10" fill="none" stroke="#ff7f0e"/>
<text x="598.00" y="81.00" font-size="11" font-family="sans-serif">held out &amp; late</text>
<text x="360.00" y="32.00" font-size="15" text-anchor="middle" font-family="sans-serif">loss &lt;vs&gt; params &amp; depth</text>
<text x="325.00" y="524.00" font-size="13" text-anchor="middle" font-family="sans-serif">params (N &gt; 0)</text>
<text x="18" y="262.00" font-size="13" text-anchor="middle" font-family="sans-serif" transform="rotate(-90 18 262.00)">loss &amp; &lt;eval&gt;</text>
</svg>
"""


def pinned_spec():
    return sf.PlotSpec(
        title="loss <vs> params & depth",
        x_label="params (N > 0)",
        y_label="loss & <eval>",
        groups=(
            sf.ScatterGroup(label="seed <0>", points=((10.0, 2.0), (100.0, 1.0), (1000.0, 0.5))),
            sf.ScatterGroup(label="held out & late", points=((10000.0, 0.05),), held_out=True),
        ),
        # a flat law, exp(0) * x**0 == 1.0 exactly
        fit=sf.FitResult(alpha=0.0, beta=0.0, r_squared=1.0, ss_res=0.0, ss_tot=0.0, n_points=3),
    )


class TestRenderPlot:
    def test_three_markers(self):
        svg = sf.render_plot(three_point_spec())
        assert svg.count("<circle") == 3
        ET.fromstring(svg)  # well-formed XML

    def test_sleeve_vertex_count_is_twice_grid(self):
        runset, _ = ar32_synth(700)
        fit = sf.fit_line(runset.points())
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=60, rng_seed=1))
        spec = sf.plot_runset(runset, fit=fit, band=band)
        svg = sf.render_plot(spec)
        polygon = next(line for line in svg.splitlines() if line.startswith("<polygon"))
        points_attr = polygon.split('points="')[1].split('"')[0]
        assert len(points_attr.split()) == 2 * len(band.point_band)

    def test_no_sleeve_without_band(self):
        svg = sf.render_plot(three_point_spec())
        assert "<polygon" not in svg

    def test_render_is_deterministic(self):
        runset, _ = ar32_synth(701)
        fit = sf.fit_line(runset.points())
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=40, rng_seed=2))
        spec = sf.plot_runset(runset, fit=fit, band=band)
        assert sf.render_plot(spec) == sf.render_plot(spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(DataError, match="at least one series"):
            sf.render_plot(sf.PlotSpec())

    def test_nonpositive_points_rejected(self):
        group = sf.ScatterGroup(label="bad", points=((1.0, -2.0),))
        with pytest.raises(DataError):
            sf.render_plot(sf.PlotSpec(groups=(group,)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    def test_non_finite_points_rejected(self, bad, axis):
        point = [(bad, 2.0), (1.0, bad)][axis]
        group = sf.ScatterGroup(label="bad", points=((10.0, 3.0), point))
        with pytest.raises(DataError, match="^log-log plot requires finite positive coordinates$"):
            sf.render_plot(sf.PlotSpec(groups=(group,)))

    @pytest.mark.parametrize("points", [((1.0, 5e-324), (10.0, 1e-323)), ((5e-324, 1.0), (1.0, 2.0))],
                             ids=["subnormal-y", "subnormal-x"])
    def test_subnormal_points_rejected(self, points):
        # a tick value m * 10.0**k at a subnormal magnitude underflows to 0
        group = sf.ScatterGroup(label="tiny", points=points)
        with pytest.raises(DataError, match=r"^log-log plot requires coordinates of at least 2\.2250738585072014e-308$"):
            sf.render_plot(sf.PlotSpec(groups=(group,)))

    @pytest.mark.parametrize("factor", [1.0 + 1e-15, 2.0, 1e5])
    def test_smallest_normal_points_draw(self, factor):
        tiny = sys.float_info.min
        group = sf.ScatterGroup(label="tiny", points=((1.0, tiny), (10.0, tiny * factor)))
        root = ET.fromstring(sf.render_plot(sf.PlotSpec(groups=(group,))))
        y_ticks = [line.get("y1") for line in root.iter("{http://www.w3.org/2000/svg}line") if line.get("x1") == "80.00"]
        assert len(y_ticks) >= 2 and len(set(y_ticks)) == len(y_ticks)

    def test_decade_tick_labels_present(self):
        svg = sf.render_plot(three_point_spec())
        assert ">1e1<" in svg and ">1e3<" in svg

    def test_axis_within_a_decade_gets_labels(self):
        # the loss range of the ladder benchmark's runs, 1.72 to 3.94
        group = sf.ScatterGroup(label="runs", points=((1e4, 1.72), (1e6, 3.94)))
        svg = sf.render_plot(sf.PlotSpec(groups=(group,)))
        y_labels = re.findall(r'text-anchor="end" font-family="sans-serif">([^<]*)<', svg)
        assert y_labels == ["2e0", "3e0", "4e0"]

    @pytest.mark.parametrize(
        "lo, hi, labels",
        [
            (-1.1, 1.2, ["1e-1", "1e0", "1e1"]),  # two or more decades: the decades alone
            (-0.3, 0.6, ["1e0", "2e0", "3e0"]),  # one decade: the multiples of it
            (1.08, 1.5, ["2e1", "3e1"]),
            (-3.2, -2.8, [f"{m}e-4" for m in range(7, 16)]),  # 1e-3 alone is one tick
        ],
    )
    def test_ticks(self, lo, hi, labels):
        ticks = svg._ticks(lo, hi)
        assert [label for _, label in ticks] == labels
        assert all(lo <= math.log10(value) <= hi for value, _ in ticks)

    @pytest.mark.parametrize("base", [1.0, 2.3e-9, 9.99e5, 1e-300, 5.5e300])
    def test_narrow_ranges_get_labels_of_at_most_12_characters(self, base):
        # 12 characters of font size 11 fit the 80 px left margin
        for span in np.logspace(-15, 0, 301):
            ticks = svg._ticks(*svg._log_range([base, base * (1 + span)]))
            assert len(ticks) >= 2
            assert max(len(label) for _, label in ticks) <= 12, (base, span, ticks)

    def test_held_out_markers_are_open(self):
        runset, _ = ar32_synth(702)
        spec = sf.plot_runset(runset, heldout_layers=(7, 8))
        svg = sf.render_plot(spec)
        assert 'fill="none" stroke="#' in svg
        held = [g for g in spec.groups if g.held_out]
        assert len(held) == 1
        assert len(held[0].points) == 10  # 2 scales x 5 runs

    def test_markers_match_a_per_point_rendering(self):
        runset, _ = ar32_synth(703, sigma_pre=0.02, seeds_per_scale=3)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=40, rng_seed=3))
        spec = sf.plot_runset(runset, band=band, heldout_layers=(7, 8))
        assert len(spec.groups) == 2 and spec.groups[1].held_out
        assert spec == plot_runset_per_point(runset, band=band, heldout_layers=(7, 8))
        assert sf.render_plot(spec) == render_plot_per_point(spec)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(1, 8),
                st.sampled_from([0, 1, 5, -3, 2**63, 2**70]),  # past int64 the seeds are held as Python ints
                st.floats(0.05, 50.0),
            ),
            min_size=1,
            max_size=40,
        ),
        held=st.none() | st.tuples(st.integers(1, 8), st.integers(0, 8)).map(lambda t: (t[0], t[0] + t[1])),
        with_fit=st.booleans(),
        with_band=st.booleans(),
    )
    def test_array_path_renders_the_per_point_bytes(self, band_703, rows, held, with_fit, with_band):
        records = [
            sf.RunRecord(sf.ScaleSpec.from_dims(layers, 32 * layers), "t", "f", seed, i, "loss", value, "minimize")
            for i, (layers, seed, value) in enumerate(rows)
        ]
        runset = sf.RunSet.from_records(records)
        fit = sf.FitResult(alpha=-0.05, beta=1.0, r_squared=1.0, ss_res=0.0, ss_tot=0.0, n_points=2) if with_fit else None
        band = band_703 if with_band else None
        spec = sf.plot_runset(runset, fit=fit, band=band, heldout_layers=held)
        reference = plot_runset_per_point(runset, fit=fit, band=band, heldout_layers=held)
        assert spec == reference
        assert sf.render_plot(spec) == render_plot_per_point(reference)

    def test_whole_document_is_pinned(self):
        assert sf.render_plot(pinned_spec()) == PINNED_SVG

    def test_points_are_a_read_only_array_however_given(self):
        pairs = ((10.0, 2.0), (100, 4.0))
        from_tuples = sf.ScatterGroup(label="a", points=pairs)
        from_array = sf.ScatterGroup(label="a", points=np.array(pairs))
        assert from_tuples == from_array and from_tuples != sf.ScatterGroup(label="a", points=pairs[:1])
        assert from_tuples != sf.ScatterGroup(label="a", points=pairs, held_out=True)
        assert from_tuples.points.dtype == np.float64 and from_tuples.points.shape == (2, 2)
        assert not from_array.points.flags.writeable
        assert sf.ScatterGroup(label="empty", points=()).points.shape == (0, 2)
        assert from_tuples.__eq__("a") is NotImplemented

    @pytest.mark.parametrize("points", [(1.0, 2.0), ((1.0, 2.0, 3.0),), (((1.0, 2.0),),)])
    def test_points_must_be_pairs(self, points):
        with pytest.raises(DataError, match=r"^points must be \(x, y\) pairs$"):
            sf.ScatterGroup(label="bad", points=points)

    def test_escaping(self):
        group = sf.ScatterGroup(label="a<b&c", points=((10.0, 2.0),))
        svg = sf.render_plot(sf.PlotSpec(title="x>y", groups=(group,)))
        assert "a&lt;b&amp;c" in svg
        ET.fromstring(svg)


@pytest.fixture(scope="module")
def band_703():
    runset, _ = ar32_synth(703, sigma_pre=0.02, seeds_per_scale=3)
    return sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=40, rng_seed=3))


class TestWritePlot:
    def test_file_roundtrip(self, tmp_path):
        out = tmp_path / "plot.svg"
        data = sf.write_plot(three_point_spec(), out)
        assert data == out.read_bytes() == sf.render_plot(three_point_spec()).encode("utf-8")
