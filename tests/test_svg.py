import xml.etree.ElementTree as ET

import pytest

import scalefit as sf
from scalefit import svg
from scalefit.errors import DataError

from conftest import ar32_synth


def three_point_spec():
    group = sf.ScatterGroup(label="seed 0", points=((10.0, 2.0), (100.0, 4.0), (1000.0, 8.0)))
    return sf.PlotSpec(title="demo", x_label="params", y_label="loss", groups=(group,))


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

    def test_decade_tick_labels_present(self):
        svg = sf.render_plot(three_point_spec())
        assert ">1e1<" in svg and ">1e3<" in svg

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
        xs = [x for g in spec.groups for x, _ in g.points] + [x for x, _, _ in band.point_band]
        ys = [y for g in spec.groups for _, y in g.points] + [v for _, lo, hi in band.point_band for v in (lo, hi)]
        ax = svg._Axes(svg._log_range(xs), svg._log_range(ys))
        expected = []
        for color, g in zip(svg._PALETTE, spec.groups):
            for x, y in g.points:
                cx, cy = svg._fmt(ax.px(x)), svg._fmt(ax.py(y))
                if g.held_out:
                    expected.append(f'<circle cx="{cx}" cy="{cy}" r="4.00" fill="none" stroke="{color}" stroke-width="1.5"/>')
                else:
                    expected.append(f'<circle cx="{cx}" cy="{cy}" r="3.00" fill="{color}"/>')
        assert [line for line in sf.render_plot(spec).splitlines() if line.startswith("<circle")] == expected

    def test_escaping(self):
        group = sf.ScatterGroup(label="a<b&c", points=((10.0, 2.0),))
        svg = sf.render_plot(sf.PlotSpec(title="x>y", groups=(group,)))
        assert "a&lt;b&amp;c" in svg
        ET.fromstring(svg)


class TestWritePlot:
    def test_file_roundtrip(self, tmp_path):
        out = tmp_path / "plot.svg"
        data = sf.write_plot(three_point_spec(), out)
        assert data == out.read_bytes() == sf.render_plot(three_point_spec()).encode("utf-8")
