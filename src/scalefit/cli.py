"""Command-line frontend.

Every subcommand is a thin composition of library calls; results are
emitted as a key-sorted JSON report on stdout (or a flat table behind
``--format table``), with diagnostics on stderr only.  Exit codes: 0
success, 1 usage error, 2 data or validation error.  Randomized
subcommands require an explicit ``--seed`` so reruns are reproducible by
construction.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .bootstrap import MODES, BootstrapConfig, bootstrap_band
from .compute import ComputeEstimate, flops, savings_ratio
# Commands read a loss curve through scalefit.cache.read_curve;
# load_loss_curve stays a name of this module because perfbench/spans.py
# patches scalefit.cli.load_loss_curve.
from .diagnose import (
    EarlyStopPolicy,
    compare_policies,
    early_stop,
    flag_undertrained,
    load_loss_curve,
)
from .errors import DataError
from .powerlaw import RESIDUAL_SPACES, fit_runset
from .predict import extrapolate, holdout_eval, select_model
# Commands read their input through _table; ingest stays a name of this
# module because perfbench/spans.py patches scalefit.cli.ingest.
from .records import DIRECTIONS, FORMATS, RecordTable, RunSet, ScaleSpec, emit, group, ingest, scale_ladder
from .svg import plot_runset, write_plot
from .synth import NOISE_MODELS, SynthSpec, generate

SCHEMA_VERSION = "2"

FLOPS_NOTE = "evaluation passes triggered by early stopping are not counted"
NO_RECORDS = "the input holds no records"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise UsageError(message)


def _json_default(obj):
    """``json.dumps`` hook: a dataclass instance as the dict of its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_report(report: dict, fmt: str = "json") -> str:
    """Strict JSON (a non-finite float raises ValueError) or a flat table."""
    text = json.dumps(report, default=_json_default, sort_keys=True, indent=2, allow_nan=False)
    if fmt == "json":
        return text + "\n"
    lines: list[str] = []

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix} = {obj}")

    walk("", json.loads(text))
    return "\n".join(lines) + "\n"


def _parse_layer_range(text: str, flag: str) -> tuple[int, int]:
    """The inclusive range ``(lo, hi)`` of ``A-B`` or ``A``; it must satisfy 1 <= lo <= hi."""
    parts = text.split("-")
    try:
        if len(parts) > 2:
            raise ValueError
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise UsageError(f"{flag} expects 'A-B' or a single integer, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise DataError(f"{flag} must satisfy 1 <= lo <= hi, got {text!r}")
    return lo, hi


def _depth(value: int | None, flag: str) -> int | None:
    """A depth flag's value, which must be at least 1 where given."""
    if value is not None and value < 1:
        raise DataError(f"{flag} must be at least 1, got {value}")
    return value


def _pick(groups: dict, task, family, metric) -> RunSet:
    if not groups:
        raise DataError(NO_RECORDS)
    matches = [
        rs
        for (t, f, m), rs in groups.items()
        if (task is None or t == task) and (family is None or f == family) and (metric is None or m == metric)
    ]
    if len(matches) == 1:
        return matches[0]
    available = ", ".join("/".join(k) for k in groups)
    if not matches:
        raise DataError(
            f"no run group matches task={task!r} family={family!r} metric={metric!r}; "
            f"available: {available}"
        )
    raise DataError(
        f"selection is ambiguous (task={task!r} family={family!r} metric={metric!r}); "
        f"available: {available}"
    )


def _table(args) -> RecordTable:
    """The records of ``--input``, as ``ingest`` reads them: parsed, or
    loaded from the on-disk cache of :mod:`scalefit.cache` if the same
    bytes were parsed before."""
    from . import cache  # here, so that importing the CLI loads no more than it did

    # stacklevel 2: a seed-default warning names the command's line calling this
    return cache.read_table(args.input, args.input_format, stacklevel=2)


def _load_runset(args) -> RunSet:
    return _pick(group(_table(args)), args.task, args.family, args.metric)


def _scale(args, prefix: str, required: bool = True) -> ScaleSpec | None:
    """The scale of ``--{prefix}-params`` or ``--{prefix}-layers/-hidden``, or None if optional."""
    params, layers, hidden = (getattr(args, f"{prefix}_{d}") for d in ("params", "layers", "hidden"))
    if params is not None:
        if layers is not None or hidden is not None:
            raise UsageError(f"give either --{prefix}-params or --{prefix}-layers/--{prefix}-hidden")
        return ScaleSpec.from_params(params)
    if layers is None and hidden is None and not required:
        return None
    if layers is None or hidden is None:
        raise UsageError(f"{prefix} needs --{prefix}-layers and --{prefix}-hidden, or --{prefix}-params")
    return ScaleSpec.from_dims(layers, hidden)


def _bootstrap_config(args) -> tuple[BootstrapConfig, dict]:
    """The bootstrap config of ``args``, and the report inputs naming every setting that shapes a band."""
    cfg = BootstrapConfig(
        n_replicates=args.B, lo_pct=args.lo, hi_pct=args.hi, mode=args.mode, rng_seed=args.seed
    )
    return cfg, dict(B=cfg.n_replicates, lo=cfg.lo_pct, hi=cfg.hi_pct, mode=cfg.mode, seed=cfg.rng_seed)


def _runset_inputs(args, runset: RunSet, **extra) -> dict:
    """The report inputs naming the input file and the run group picked from it."""
    return dict(
        input=args.input, task=runset.task, family=runset.family, metric=runset.metric, **extra
    )


def _default(func, name: str):
    """The default of ``func``'s parameter ``name``."""
    return inspect.signature(func).parameters[name].default


def _add_input_options(p, selectors: bool = True) -> None:
    p.add_argument("--input", required=True, help="JSONL or CSV records file")
    p.add_argument("--input-format", choices=FORMATS, default=None)
    if selectors:
        p.add_argument("--task", default=None)
        p.add_argument("--family", default=None)
        p.add_argument("--metric", default=None)


def _add_scale_options(p, prefix: str) -> None:
    for dim in ("layers", "hidden", "params"):
        p.add_argument(f"--{prefix}-{dim}", type=int, default=None)


def _add_bootstrap_options(p, seed_required: bool = True) -> None:
    p.add_argument("--B", type=int, default=BootstrapConfig.n_replicates, help="bootstrap replicates")
    p.add_argument("--lo", type=float, default=BootstrapConfig.lo_pct)
    p.add_argument("--hi", type=float, default=BootstrapConfig.hi_pct)
    p.add_argument("--mode", choices=MODES, default=BootstrapConfig.mode)
    seed_help = "RNG seed (required)" if seed_required else "RNG seed (required with --band)"
    p.add_argument("--seed", type=int, required=seed_required, help=seed_help)


# ---------------------------------------------------------------- handlers
# Each returns its report's (inputs, results); build_parser names the report.


def _cmd_fit(args) -> tuple[dict, object]:
    runset = _load_runset(args)
    fit = fit_runset(runset, min_layers=_depth(args.min_depth, "--min-depth"), space=args.r2_space)
    inputs = _runset_inputs(args, runset, min_depth=args.min_depth, r2_space=args.r2_space)
    return inputs, {"fit": fit}


def _cmd_bootstrap(args) -> tuple[dict, object]:
    runset = _load_runset(args)
    cfg, boot_inputs = _bootstrap_config(args)
    band = bootstrap_band(runset, cfg)
    fit = fit_runset(runset)
    inputs = _runset_inputs(args, runset, **boot_inputs)
    # The band's fields; the 2*B replicates only when asked for.  The
    # replicate count is inputs.B.
    view = _json_default(band)
    if not args.replicates:
        del view["replicate_slopes"], view["replicate_intercepts"]
    return inputs, {"fit": fit, "band": view}


def _cmd_predict(args) -> tuple[dict, object]:
    runset = _load_runset(args)
    target = _scale(args, "target")
    cfg, boot_inputs = _bootstrap_config(args)
    report = extrapolate(runset, target, cfg, actual=args.actual)
    inputs = _runset_inputs(args, runset, target_params=target.params, actual=args.actual, **boot_inputs)
    return inputs, report


def _cmd_holdout(args) -> tuple[dict, object]:
    runset = _load_runset(args)
    train = _parse_layer_range(args.train_layers, "--train-layers")
    test = _parse_layer_range(args.test_layers, "--test-layers")
    report = holdout_eval(runset, train, test)
    inputs = _runset_inputs(args, runset, train_layers=list(train), test_layers=list(test))
    return inputs, report


def _cmd_select(args) -> tuple[dict, object]:
    groups = group(_table(args))
    runset_a = _pick(groups, args.task, args.family_a, args.metric)
    runset_b = _pick(groups, args.task, args.family_b, args.metric)
    target = _scale(args, "target")
    cfg, boot_inputs = _bootstrap_config(args)
    report = select_model(
        runset_a,
        runset_b,
        target,
        cfg,
        r2_threshold=args.r2_threshold,
        actual_a=args.actual_a,
        actual_b=args.actual_b,
    )
    inputs = {
        "input": args.input,
        "task": runset_a.task,
        "metric": runset_a.metric,
        "family_a": args.family_a,
        "family_b": args.family_b,
        "r2_threshold": args.r2_threshold,
        "target_params": target.params,
        "actual_a": args.actual_a,
        "actual_b": args.actual_b,
        **boot_inputs,
    }
    return inputs, report


def _cmd_flops(args) -> tuple[dict, object]:
    if args.input is not None and (args.params is not None or args.tokens is not None):
        raise UsageError("give either --params/--tokens or --input, not both")
    baseline = _scale(args, "baseline", required=False)
    if args.params is not None:
        if args.tokens is None:
            raise UsageError("--tokens is required with --params")
        if baseline is not None:
            raise UsageError("a baseline needs --input")
        est = ComputeEstimate(args.params, args.tokens)
        inputs = {"params": args.params, "tokens": args.tokens}
        return inputs, {"estimate": est, "note": FLOPS_NOTE}
    if args.input is None:
        raise UsageError("flops needs --params/--tokens or --input")

    table = _table(args)
    if baseline is not None and not len(table):
        raise DataError(NO_RECORDS)
    scale_list = sorted(table.scales, key=lambda s: s.params)
    total_flops = None
    if (table.tokens >= 0).all():  # exact: 6ND overflows int64
        params = [table.scales[k].params for k in table.code.tolist()]
        total_flops = sum(map(flops, params, table.tokens.tolist()))
    results = {
        "scales": scale_list,
        "total_params": sum(s.params for s in scale_list),
        "total_flops": total_flops,
        "note": FLOPS_NOTE,
    }
    inputs = {"input": args.input}
    if baseline is not None:
        results["baseline_params"] = baseline.params
        results["savings_ratio"] = savings_ratio(scale_list, baseline, "equal_tokens")
        inputs["baseline_params"] = baseline.params
    return inputs, results


def _cmd_diagnose_earlystop(args) -> tuple[dict, object]:
    policies = [EarlyStopPolicy(patience=p, min_decrease=args.min_decrease) for p in args.patience]
    from . import cache  # here, so that importing the CLI loads no more than it did

    curve = cache.read_curve(args.curve)  # as load_loss_curve reads it: parsed, or loaded from the cache
    inputs = {
        "curve": args.curve,
        "patience": list(args.patience),
        "min_decrease": args.min_decrease,
    }
    if len(policies) == 1:
        results: object = {"early_stop": early_stop(curve, policies[0])}
    else:
        results = {"policies": compare_policies(curve, policies)}
    return inputs, results


def _cmd_diagnose_fit_outlier(args) -> tuple[dict, object]:
    runset = _load_runset(args)
    layers = _depth(args.holdout_layers, "--holdout-layers")
    held = runset.within_layers(layers, layers)
    codes = np.unique(runset.code[held])
    if codes.size == 0:
        raise DataError(f"no records with layers={args.holdout_layers} to hold out")
    if codes.size > 1:
        raise DataError(f"layers={args.holdout_layers} matches {codes.size} distinct scales")
    held_scale = runset.scales[codes[0]]
    rest = runset.filter(~held)
    cfg, boot_inputs = _bootstrap_config(args)
    verdict = flag_undertrained(rest, held_scale, args.observed, cfg)
    inputs = _runset_inputs(
        args,
        runset,
        holdout_layers=args.holdout_layers,
        observed=args.observed,
        **boot_inputs,
    )
    return inputs, verdict


def _cmd_synth(args) -> tuple[dict, object]:
    if Path(args.out).suffix.lower() not in FORMATS["jsonl"]:
        raise UsageError(f"--out must end in {' or '.join(FORMATS['jsonl'])}, got {args.out!r}")
    layers = _parse_layer_range(args.layers, "--layers")
    spec = SynthSpec(
        true_alpha=args.alpha,
        true_log_c=args.log_c,
        scales=tuple(scale_ladder(args.aspect_ratio, range(layers[0], layers[1] + 1))),
        seeds_per_scale=args.seeds_per_scale,
        sigma_pre=args.sigma_pre,
        sigma_fin=args.sigma_fin,
        rng_seed=args.seed,
        direction=args.direction,
        noise=args.noise,
        task=args.task,
        family=args.family,
        metric=args.metric,
    )
    runset, truth = generate(spec)
    emit(runset, args.out, "jsonl")
    truth_out = args.truth_out if args.truth_out else args.out + ".truth.json"
    Path(truth_out).write_text(
        json.dumps(truth, default=_json_default, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    names = "alpha log_c aspect_ratio seeds_per_scale sigma_pre sigma_fin seed direction noise".split()
    inputs = {"layers": list(layers), **{name: getattr(args, name) for name in names}}
    results = {
        "out": args.out,
        "truth_out": truth_out,
        "records_written": len(runset),
        "truth": truth,
    }
    return inputs, results


def _cmd_plot(args) -> tuple[dict, object]:
    runset = _load_runset(args)
    heldout = (
        _parse_layer_range(args.heldout_layers, "--heldout-layers")
        if args.heldout_layers
        else None
    )
    fit_set = runset if heldout is None else runset.filter(~runset.within_layers(*heldout))
    fit = fit_runset(fit_set, min_layers=_depth(args.min_depth, "--min-depth"))
    band, boot_inputs = None, {"seed": args.seed}
    if args.band:
        if args.seed is None:
            raise UsageError("--seed is required with --band")
        cfg, boot_inputs = _bootstrap_config(args)
        band = bootstrap_band(fit_set, cfg)
    spec = plot_runset(runset, fit=fit, band=band, heldout_layers=heldout)
    digest = hashlib.sha256(write_plot(spec, args.out)).hexdigest()
    inputs = _runset_inputs(
        args,
        runset,
        out=args.out,
        band=bool(args.band),
        heldout_layers=list(heldout) if heldout else None,
        **boot_inputs,
    )
    return inputs, {"out": args.out, "sha256": digest, "groups": len(spec.groups)}


# ----------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="scalefit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    leaves = []

    def leaf(subparsers, command: str, help: str, handler) -> _Parser:
        """Declare the subcommand at argv path ``command``; its report is named ``command``."""
        p = subparsers.add_parser(command.split()[-1], help=help)
        p.set_defaults(handler=handler, report_command=command)
        leaves.append(p)
        return p

    p = leaf(sub, "fit", "fit a power law to one run group", _cmd_fit)
    _add_input_options(p)
    p.add_argument("--min-depth", type=int, default=None, help="keep only layers >= d")
    p.add_argument("--r2-space", choices=RESIDUAL_SPACES, default=_default(fit_runset, "space"))

    p = leaf(sub, "bootstrap", "bootstrap confidence band for a fit", _cmd_bootstrap)
    _add_input_options(p)
    _add_bootstrap_options(p)
    p.add_argument(
        "--replicates", action="store_true", help="also print the replicate slopes and intercepts"
    )

    p = leaf(sub, "predict", "extrapolate to a target scale", _cmd_predict)
    _add_input_options(p)
    _add_scale_options(p, "target")
    p.add_argument("--actual", type=float, default=None)
    _add_bootstrap_options(p)

    p = leaf(sub, "holdout", "train/test split over depth ranges", _cmd_holdout)
    _add_input_options(p)
    p.add_argument("--train-layers", required=True, help="inclusive range, e.g. 1-6")
    p.add_argument("--test-layers", required=True, help="inclusive range, e.g. 7-8")

    p = leaf(sub, "select", "compare two families at a target scale", _cmd_select)
    _add_input_options(p, selectors=False)
    p.add_argument("--task", default=None)
    p.add_argument("--metric", default=None)
    p.add_argument("--family-a", required=True)
    p.add_argument("--family-b", required=True)
    p.add_argument("--r2-threshold", type=float, default=_default(select_model, "r2_threshold"))
    _add_scale_options(p, "target")
    p.add_argument("--actual-a", type=float, default=None)
    p.add_argument("--actual-b", type=float, default=None)
    _add_bootstrap_options(p)

    p = leaf(sub, "flops", "parameter and FLOP accounting", _cmd_flops)
    p.add_argument("--params", type=int, default=None)
    p.add_argument("--tokens", type=int, default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--input-format", choices=FORMATS, default=None)
    _add_scale_options(p, "baseline")

    p = sub.add_parser("diagnose", help="convergence diagnostics")
    dsub = p.add_subparsers(dest="diagnose_command", required=True, parser_class=_Parser)

    p = leaf(
        dsub, "diagnose earlystop", "replay early stopping over a loss curve", _cmd_diagnose_earlystop
    )
    p.add_argument("--curve", required=True, help="CSV with header step,eval_loss")
    p.add_argument("--patience", type=int, nargs="+", required=True)
    p.add_argument("--min-decrease", type=float, default=EarlyStopPolicy.min_decrease)

    p = leaf(
        dsub, "diagnose fit-outlier", "flag a held-out scale against the band", _cmd_diagnose_fit_outlier
    )
    _add_input_options(p)
    p.add_argument("--holdout-layers", type=int, required=True)
    p.add_argument("--observed", type=float, required=True)
    _add_bootstrap_options(p)

    p = leaf(sub, "synth", "generate synthetic records with known truth", _cmd_synth)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--log-c", type=float, required=True)
    p.add_argument("--aspect-ratio", type=int, default=32)
    p.add_argument("--layers", default="1-8", help="inclusive range, e.g. 1-8")
    p.add_argument("--seeds-per-scale", type=int, default=5)
    p.add_argument("--sigma-pre", type=float, default=SynthSpec.sigma_pre)
    p.add_argument("--sigma-fin", type=float, default=SynthSpec.sigma_fin)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--direction", choices=DIRECTIONS, default=SynthSpec.direction)
    p.add_argument("--noise", choices=NOISE_MODELS, default=SynthSpec.noise)
    for label in ("task", "family", "metric"):
        p.add_argument(f"--{label}", default=getattr(SynthSpec, label))
    p.add_argument("--out", required=True, help=f"JSONL output path ({' or '.join(FORMATS['jsonl'])})")
    p.add_argument("--truth-out", default=None, help="defaults to <out>.truth.json")

    p = leaf(sub, "plot", "render a log-log SVG plot", _cmd_plot)
    _add_input_options(p)
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--min-depth", type=int, default=None)
    p.add_argument("--heldout-layers", default=None, help="inclusive range, e.g. 7-8")
    p.add_argument("--band", action="store_true", help="draw a bootstrap sleeve")
    _add_bootstrap_options(p, seed_required=False)

    for p in leaves:  # last, so that each leaf's --help lists it after its own options
        p.add_argument("--format", choices=("json", "table"), default="json")
    return parser


@functools.cache
def _parser() -> _Parser:
    # Built on the first run, not at import, and reused: parse_args leaves
    # the tree unchanged and returns a fresh namespace each time.
    return build_parser()


def run(argv=None) -> int:
    """Parse argv, execute, and print a report; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
        inputs, results = args.handler(args)
        out = render_report(
            dict(command=args.report_command, inputs=inputs, results=results, schema_version=SCHEMA_VERSION),
            args.format,
        )
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
