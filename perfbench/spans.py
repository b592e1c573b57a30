"""Span recording at scalefit's layer boundaries, and per-layer metrics.

The tracer replaces each binding in ``BINDINGS`` with a wrapper that
appends ``[name, start_ns, end_ns, parent, detail]`` to an in-memory list,
where ``parent`` indexes the enclosing span (-1 for a root).  Bindings are
patched where the caller looks them up (``scalefit.cli.ingest``, not only
``scalefit.records.ingest``), because ``from x import y`` copies the
reference.  A binding that no longer exists is reported as a tracing gap.
Nothing here runs during the untraced measurements.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _band_cfg(args, kwargs, result):
    return kwargs["cfg"] if "cfg" in kwargs else args[1]


def _scanned(args, kwargs, result):
    return result.stop_index + 1


def _length(args, kwargs, result):
    return len(result)


def _group_sizes(args, kwargs, result):
    return {len(g) for g in result}


# (module, attribute, span name, detail extractor).  The first part of a
# span name is the layer it is charged to.
BINDINGS = (
    ("scalefit.cli", "run", "cli.run", None),
    ("scalefit.cli", "build_parser", "cli.parse", None),
    ("scalefit.cli", "_Parser.parse_args", "cli.parse", None),
    ("scalefit.cli", "render_report", "cli.render", _length),
    ("scalefit.cli", "ingest", "records.ingest", _length),
    ("scalefit.cli", "group", "records.group", None),
    ("scalefit.records", "RunSet.scales", "records.views", None),
    ("scalefit.records", "RunSet.group_sizes", "records.views", None),
    ("scalefit.records", "RunSet.scale_groups", "records.views", _group_sizes),
    ("scalefit.records", "RunSet.points", "records.views", None),
    ("scalefit.records", "RunSet.filter", "records.filter", None),
    ("scalefit.records", "emit", "records.emit", None),
    ("scalefit.synth", "generate", "synth.generate", None),
    ("scalefit.cli", "fit_runset", "powerlaw.fit_runset", None),
    ("scalefit.powerlaw", "fit_line", "powerlaw.fit", None),
    ("scalefit.predict", "fit_line", "powerlaw.fit", None),
    ("scalefit.diagnose", "fit_line", "powerlaw.fit", None),
    ("scalefit.powerlaw", "goodness_of_fit", "powerlaw.goodness_of_fit", None),
    ("scalefit.cli", "bootstrap_band", "bootstrap.band", _band_cfg),
    ("scalefit.predict", "bootstrap_band", "bootstrap.band", _band_cfg),
    ("scalefit.diagnose", "bootstrap_band", "bootstrap.band", _band_cfg),
    ("scalefit.predict", "default_grid", "bootstrap.grid", None),
    ("scalefit.diagnose", "default_grid", "bootstrap.grid", None),
    ("scalefit.bootstrap", "BootstrapBand.interval_at", "bootstrap.interval_at", None),
    ("scalefit.bootstrap", "substream", "rng.substream", None),
    ("scalefit.synth", "substream", "rng.substream", None),
    ("scalefit.cli", "extrapolate", "predict.extrapolate", None),
    ("scalefit.predict", "extrapolate", "predict.extrapolate", None),
    ("scalefit.cli", "holdout_eval", "predict.holdout_eval", None),
    ("scalefit.cli", "select_model", "predict.select_model", None),
    ("scalefit.cli", "flag_undertrained", "diagnose.flag", None),
    ("scalefit.cli", "load_loss_curve", "diagnose.load_curve", None),
    ("scalefit.cli", "early_stop", "diagnose.early_stop", _scanned),
    ("scalefit.diagnose", "early_stop", "diagnose.early_stop", _scanned),
    ("scalefit.cli", "compare_policies", "diagnose.compare_policies", None),
    ("scalefit.cli", "plot_runset", "svg.plot_runset", None),
    ("scalefit.cli", "write_plot", "svg.write_plot", None),
    ("scalefit.svg", "render_plot", "svg.render", _length),
    ("scalefit.cli", "savings_ratio", "compute.savings_ratio", None),
)

# Layers that command wall time is split between; their shares sum to 1.
COMMAND_LAYERS = ("records", "powerlaw", "bootstrap", "rng", "predict", "diagnose", "svg", "compute", "cli")


class Tracer:
    """Patches the bindings on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self.gaps: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if detail is not None:
                span[4] = detail(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, detail in BINDINGS:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.gaps.append(f"{module_name}.{path}")
                continue
            if isinstance(original, property):
                patched = property(self._wrap(original.fget, name, detail))
            else:
                patched = self._wrap(original, name, detail)
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def self_ns(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def _sum(values):
    return float(sum(values))


def layer_metrics(cmd: Tracer, setup: Tracer, passes: int) -> tuple:
    """Per-layer metrics of a traced loop of ``passes`` mix passes, and facts
    about what ran: the bootstrap modes and the record-group sizes seen.

    Times and call counts are per pass of the command mix, so runs that fit
    a different number of passes into their seconds stay comparable.
    Shares are self time over the summed wall time of ``cli.run``.
    """
    self_ns = cmd.self_ns()
    by_name: dict = {}
    for span, own in zip(cmd.spans, self_ns):
        entry = by_name.setdefault(span[0], {"self": 0, "total": 0, "calls": 0, "details": []})
        entry["self"] += own
        entry["total"] += span[2] - span[1]
        entry["calls"] += 1
        if span[4] is not None:
            entry["details"].append(span[4])
    empty = {"self": 0, "total": 0, "calls": 0, "details": []}

    def get(name):
        return by_name.get(name, empty)

    def self_ms(*names):
        return _sum(get(n)["self"] for n in names) / 1e6 / passes

    def calls(*names):
        return _sum(get(n)["calls"] for n in names) / passes

    def prefixed(layer):
        return [n for n in by_name if n.split(".")[0] == layer]

    def per_s(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    setup_self = dict.fromkeys(("records.emit", "synth.generate"), 0)
    for span, own in zip(setup.spans, setup.self_ns()):
        if span[0] in setup_self:
            setup_self[span[0]] += own

    wall = get("cli.run")["total"]
    band = get("bootstrap.band")
    replicates = _sum(cfg.n_replicates for cfg in band["details"])
    ingest = get("records.ingest")
    early = get("diagnose.early_stop")
    m = {
        "records.ingest.self_ms": self_ms("records.ingest"),
        "records.ingest.calls": calls("records.ingest"),
        "records.ingest.rows_per_s": per_s(_sum(ingest["details"]), ingest["self"]),
        "records.group.self_ms": self_ms("records.group"),
        "records.views.self_ms": self_ms("records.views"),
        "records.views.calls": calls("records.views"),
        "records.emit.self_ms": setup_self["records.emit"] / 1e6,
        "synth.generate.self_ms": setup_self["synth.generate"] / 1e6,
        "powerlaw.fit.self_ms": self_ms(*prefixed("powerlaw")),
        "powerlaw.fit.calls": calls("powerlaw.fit"),
        "bootstrap.band.self_ms": self_ms("bootstrap.band"),
        "bootstrap.band.calls": calls("bootstrap.band"),
        "bootstrap.replicates": replicates / passes,
        "bootstrap.us_per_replicate": band["total"] / 1e3 / replicates if replicates else 0.0,
        "bootstrap.interval_at.self_ms": self_ms("bootstrap.interval_at"),
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.self_ms": self_ms("rng.substream"),
        "predict.self_ms": self_ms(*prefixed("predict")),
        "predict.calls": calls(*prefixed("predict")),
        "diagnose.flag.self_ms": self_ms("diagnose.flag"),
        "diagnose.load_curve.self_ms": self_ms("diagnose.load_curve"),
        "diagnose.early_stop.self_ms": self_ms("diagnose.early_stop"),
        "diagnose.early_stop.points_per_s": per_s(_sum(early["details"]), early["self"]),
        "svg.render.self_ms": self_ms("svg.render"),
        "svg.bytes": _mean(get("svg.render")["details"]),
        "cli.parse.self_ms": self_ms("cli.parse"),
        "cli.render.self_ms": self_ms("cli.render"),
        "cli.report_bytes": _mean(get("cli.render")["details"]),
        "cli.self_ms": self_ms("cli.run"),
        "compute.self_ms": self_ms(*prefixed("compute")),
    }
    for layer in COMMAND_LAYERS:
        m[f"{layer}.share"] = _sum(get(n)["self"] for n in prefixed(layer)) / wall if wall else 0.0
    m["trace.gaps"] = float(len(cmd.gaps))
    facts = {
        "band_modes": {cfg.mode for cfg in band["details"]},
        "group_sizes": set().union(*get("records.views")["details"]),
    }
    return m, facts


def _mean(values):
    return _sum(values) / len(values) if values else 0.0
