"""Byte identity of the scalefit CLI across source trees.

    python3 tools/identity.py TREE [OTHER_TREE]

Each tree runs in a fresh interpreter of its own, in a temporary directory.
It writes the workload inputs of ``SEED`` with the tree's own
``perfbench/workloads.py`` (imported, never modified) and the literal
``BAD_INPUTS``, ``BAD_CURVES`` and ``RUN_SETS``, and runs every command of the
three workload mixes, plus ``extras``, in-process through the tree's
``scalefit.cli.run``.  The extras include ``--help`` of the program, of
``diagnose`` and of each subcommand, so the parser's text is compared too.
For each command it takes the sha256 of stdout, of stderr, of the exit code
and of every file the command wrote; each workload input file gets one too.
The CLI's cache of tables and loss curves (``scalefit.cache``) lives in a
directory of its own under the temporary directory, unless
``SCALEFIT_CACHE_DIR`` is set (empty, it turns the cache off), so a run
writes no user's cache, and every read of an input of at least
``MIN_BYTES`` after its first (``bulk.jsonl``, ``bulk.csv`` and
``ragged.jsonl``) or, for a loss curve, after its second (``curve.csv``)
is a hit: with the cache on, a tree's later reads are compared with the
other tree's parses.

With one tree it prints those digests, one per line.  With two it prints
every value that differs or that one side lacks, and exits 1 if there is
any: ``TREE TREE`` checks that a tree reproduces its own bytes.  Under a
differing stderr it prints each side's text too, and under a differing
stdout each side's first line that differs, both cut to 200 characters, so
that a changed output can be read, not only seen to differ, and, where both
sides are JSON, how many leaf values differ and the largest relative
difference of the numbers among them, so that the size of a change shows.  Digests
depend on the numpy build, so none is kept in the repository.  Needs only
the standard library and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1  # the workload seed, as in the benchmark's CI smoke runs

# Record files that fail ingest at a row after a good row, so that the
# failing chunk is read again row by row and the error names the bad row,
# and two files that hold no record.
_GOOD = '{"layers": 1, "hidden": 32, "task": "t", "family": "f", "pretrain_seed": 0, "finetune_seed": 0, '
_GOOD_ROW = _GOOD + '"metric": "m", "value": 1.0, "direction": "min"}\n'
_CSV_ROW = "1,32,t,f,0,0,m,1.0,min\n"
_CSV = "layers,hidden,task,family,pretrain_seed,finetune_seed,metric,value,direction\n" + _CSV_ROW
BAD_INPUTS = {
    "value.jsonl": _GOOD_ROW + _GOOD_ROW.replace("1.0", '"oops"'),
    "unknown-field.jsonl": _GOOD_ROW + _GOOD_ROW.replace("{", '{"shoe_size": 43, '),
    "not-object.jsonl": _GOOD_ROW + "[1, 2]\n",
    "broken.jsonl": _GOOD_ROW + _GOOD_ROW[:40] + "\n",
    "deep.jsonl": _GOOD_ROW + "[" * 100_000 + "\n",
    "huge-int.jsonl": _GOOD_ROW + _GOOD_ROW.replace('"value": 1.0', '"value": 1' + "0" * 5000),
    "huge-layers.jsonl": _GOOD_ROW + _GOOD_ROW.replace('"layers": 1', '"layers": 1' + "0" * 400 + ', "params": 12288'),
    "misaligned.jsonl": _GOOD_ROW + '{"a": [1\n2], "b": 3} , {"c": 4}\n',
    "record-across-lines.jsonl": _GOOD_ROW + _GOOD + '"metric": "m", "value": 1.0\n"direction": "min"} , ' + _GOOD_ROW,
    "long-row.csv": _CSV + "1,32,t,f,0,0,m,1.0,min,extra\n",
    "long-seed.csv": _CSV + "1,32,t,f,0," + "1" * 5000 + ",m,1.0,min\n",
    "multiline-cell.csv": _CSV + '1,32,"t\nu",f,0,0,m,1.0,min\n1,32,t,f,0,0,m,oops,min\n',
    "not-utf8.jsonl": _GOOD_ROW + _GOOD_ROW.replace('"t"', '"caf\udce9"'),  # byte 0xe9 alone
    "surrogate-label.jsonl": _GOOD_ROW + _GOOD_ROW.replace('"t"', '"caf\\udce9"'),  # a JSON escape of a lone surrogate
    "bom.csv": "\ufeff" + _CSV,
    "bad-byte-in-header.csv": _CSV.replace("task", "caf\udce9"),
    # A bad row, then a quoted cell whose second line holds a byte that is not UTF-8.
    "bad-row-before-bad-byte-in-two-line-cell.csv": (
        _CSV + "1,32,t,f,0,0,m,-1.0,min\n" + '1,32,"t\ncaf\udce9",f,0,0,m,1.0,min\n'
    ),
    "field-twice.csv": _CSV.replace("direction\n", "direction,layers\n").replace("min\n", "min,2\n"),
    # true and 1 are one dict key, but true is no integer
    "true-layers.jsonl": _GOOD_ROW + _GOOD_ROW.replace('"layers": 1', '"layers": true'),
    "control-label.jsonl": _GOOD_ROW + _GOOD_ROW.replace('"t"', '"a\\u0001b"'),
    "repeated-key.jsonl": _GOOD_ROW + _GOOD_ROW.replace('"min"}', '"min", "layers": 2}'),
    # A bad row ahead of a byte that is not UTF-8, in the decoder's first
    # buffer: the bad row is the first in file order.
    "bad-row-before-bad-byte.jsonl": (
        _GOOD_ROW + _GOOD_ROW.replace('"value": 1.0', '"value": -1.0') + _GOOD_ROW.replace('"t"', '"caf\udce9"')
    ),
    "bad-row-201-before-bad-byte-207.jsonl": (
        _GOOD_ROW * 200 + _GOOD_ROW.replace('"value": 1.0', '"value": -1.0') + _GOOD_ROW * 5
        + _GOOD_ROW.replace('"t"', '"caf\udce9"')
    ),
    "empty.jsonl": "",
    "header-only.csv": _CSV.splitlines(keepends=True)[0],
    # Chunks that go to csv.reader: an integer cell that numpy 1.x reads
    # through a float, a label holding NUL, and a quoted cell, each after
    # 300 good rows.
    "layers-2.0.csv": _CSV + _CSV_ROW * 300 + "2.0,64,t,f,0,0,m,1.0,min\n",
    "nul-label.csv": _CSV + _CSV_ROW * 300 + "1,32,t\x00u,f,0,0,m,1.0,min\n",
    "quoted-cell.csv": _CSV + _CSV_ROW * 300 + '1,32,"t",f,0,0,m,oops,min\n',
}
# A loss curve with a bad row ahead of a byte that is not UTF-8, two whose
# cells parse but break the curve's rules, one that breaks a rule ahead of a
# row that does not parse, one whose step is written as a float, and one of
# at least the cache's MIN_BYTES whose bad row follows 5,000 good points.
BAD_CURVES = {
    "bad-row-before-bad-byte-curve.csv": "step,eval_loss\n0,1.0\n1,abc\n2,0.\udce99\n",
    "negative-loss-curve.csv": "step,eval_loss\n1,2.0\n2,-1.0\n",
    "repeated-step-curve.csv": "step,eval_loss\n1,2.0\n3,1.0\n3,0.5\n",
    "negative-loss-before-bad-row-curve.csv": "step,eval_loss\n1,2.0\n2,-1.0\n3,1.0\nx,1\n",
    # An integer through a float, as numpy 1.x reads it, after 300 good points.
    "step-1e3-curve.csv": "step,eval_loss\n" + "".join(f"{i},1.0\n" for i in range(300)) + "1e3,0.5\n",
    "bad-row-after-5000-points-curve.csv": (
        "step,eval_loss\n" + "".join(f"{10 * i},{1 + 1 / i!r}\n" for i in range(1, 5001)) + "50010,-0.5\n"
    ),
}


def _run_set(sizes: tuple) -> str:
    """A good run set whose scale of ``layers`` layers holds ``seeds`` records, for each pair of ``sizes``."""
    return "".join(
        _GOOD_ROW.replace('"layers": 1, "hidden": 32', f'"layers": {layers}, "hidden": {32 * layers}')
        .replace('"finetune_seed": 0', f'"finetune_seed": {seed}')
        .replace('"value": 1.0', f'"value": {layers ** -0.1 * (1 + 0.01 * seed):.6f}')
        for layers, seeds in sizes
        for seed in range(seeds)
    )


def _mixed_cells() -> str:
    """A good run set whose scale and label cells take forms that check
    alike: layers 1, "1" or 1.0, params left out or given as 12 * L * H**2,
    task 5 or "5" and direction "min" or "minimize"."""
    rows = []
    for layers in range(1, 6):
        for seed in range(4):
            row = json.loads(_GOOD_ROW)
            row.update(layers=(layers, str(layers), float(layers))[(layers + seed) % 3], hidden=32 * layers,
                       task=(5, "5")[seed % 2], finetune_seed=seed, direction=("min", "minimize")[layers % 2],
                       value=round(layers ** -0.1 * (1 + 0.01 * seed), 6))
            if (layers + seed) % 2:
                row["params"] = 12 * layers * (32 * layers) ** 2
            rows.append(json.dumps(row) + "\n")
    return "".join(rows)


# The argv of each subcommand whose --help is compared.
HELP_PATHS = (
    (), ("diagnose",), ("fit",), ("bootstrap",), ("predict",), ("holdout",), ("select",), ("flops",),
    ("diagnose", "earlystop"), ("diagnose", "fit-outlier"), ("synth",), ("plot",),
)

# Label -> (file, text) of good run sets, each fitted and bootstrapped in both modes.
RUN_SETS = {
    # scales of 1 to 4 records, one of them a single record
    "mixed sizes": ("mixed.jsonl", _run_set(((1, 3), (2, 1), (3, 4), (4, 2), (5, 3)))),
    # 4 scales of 1, 1, 1 and 2 records: so many first draws are degenerate
    # that some blocks of a band redraw resamples, and others do not
    "redraws": ("redraws.jsonl", _run_set(((1, 1), (2, 1), (3, 1), (4, 2)))),
    # 1,289 records: at seed 1 the pooled naive draw of block 0 holds a half
    # that numpy rejects, so the band splices it out
    "rejected halves": ("rejected-halves.jsonl", _run_set((*((layers, 161) for layers in range(1, 8)), (8, 162)))),
    # five scales and one label, their cells given in several forms
    "mixed cells": ("mixed-cells.jsonl", _mixed_cells()),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats() -> dict:
    """Size and modification time of each file in the working directory."""
    stats = {e.name: e.stat() for e in os.scandir() if e.is_file()}
    return {name: (st.st_size, st.st_mtime_ns) for name, st in stats.items()}


def _written(before: dict) -> dict:
    """The sha256 of each file in the working directory that is new or changed since ``before``."""
    changed = sorted(name for name, stat in _stats().items() if before.get(name) != stat)
    return {name: _sha(Path(name).read_bytes()) for name in changed}


def _replace(argv: tuple, option: str, value: str) -> tuple:
    at = argv.index(option) + 1
    return (*argv[:at], value, *argv[at + 1:])


def extras(name: str, mix: dict) -> dict:
    """Commands beside the mix of workload ``name`` (``mix`` maps each kind
    of the mix to its argv), keyed by a label."""
    if name == "ladder":
        ladder = ("--input", "ladder.jsonl")
        observed = float(mix["fit-outlier"][mix["fit-outlier"].index("--observed") + 1])  # 3x the true loss
        edges = {}  # the percentile rule at its ends and at small replicate counts
        for mode in ("hierarchical", "naive"):
            boot = (*_replace(mix["bootstrap"], "--mode", mode), "--replicates")
            edges.update({
                f"bootstrap --mode {mode} --replicates --lo 0 --hi 100": (*boot, "--lo", "0", "--hi", "100"),
                f"bootstrap --mode {mode} --replicates --B 1": _replace(boot, "--B", "1"),
                f"bootstrap --mode {mode} --replicates --B 33 --lo 0.1 --hi 99.9": (
                    *_replace(boot, "--B", "33"), "--lo", "0.1", "--hi", "99.9",
                ),
            })
        # Two of its edges take the upper half of the percentile rule's
        # interpolation, b - (b - a) * (1 - t) for t >= 0.5, whose bits differ
        # there from the lower half's a + (b - a) * t.
        edges["bootstrap --B 7 --lo 2.6 --hi 97.4"] = (
            *_replace(mix["bootstrap"], "--B", "7"), "--lo", "2.6", "--hi", "97.4",
        )
        return {
            "bootstrap --replicates": (*mix["bootstrap"], "--replicates"),
            "bootstrap --mode naive --replicates": (*_replace(mix["bootstrap"], "--mode", "naive"), "--replicates"),
            **edges,
            "fit --min-depth 3": ("fit", *ladder, "--family", "mlm", "--min-depth", "3"),
            "fit --r2-space linear": ("fit", *ladder, "--family", "clm", "--r2-space", "linear"),
            "holdout --format table": (
                "holdout", *ladder, "--family", "clm", "--train-layers", "1-6", "--test-layers", "7-8",
                "--format", "table",
            ),
            "plot --heldout-layers": (
                "plot", *ladder, "--family", "clm", "--out", "heldout-clm.svg", "--heldout-layers", "7-8",
            ),
            "select --actual-a --actual-b": (*mix["select"], "--actual-a", "4.5", "--actual-b", "4.0"),
            "select --r2-threshold 0.999": (*mix["select"], "--r2-threshold", "0.999"),
            "fit-outlier consistent": _replace(mix["fit-outlier"], "--observed", repr(observed / 3)),
            "fit-outlier overfit": _replace(mix["fit-outlier"], "--observed", repr(observed / 9)),
        }
    if name == "bulk":
        curve = ("diagnose", "earlystop", "--curve", "curve.csv")
        return {
            "fit --r2-space linear (JSONL)": ("fit", "--input", "bulk.jsonl", "--r2-space", "linear"),
            "fit --r2-space linear (CSV)": ("fit", "--input", "bulk.csv", "--r2-space", "linear"),
            "plot --heldout-layers (CSV)": (
                "plot", "--input", "bulk.csv", "--out", "heldout-bulk.svg", "--heldout-layers", "31-40",
            ),
            "earlystop --patience 5": (*curve, "--patience", "5"),
            "earlystop --patience 1 --min-decrease 0.001": (
                *curve, "--patience", "1", "--min-decrease", "0.001",
            ),
            "earlystop --patience 5 50 --format table": (*curve, "--patience", "5", "50", "--format", "table"),
        }
    if name == "ragged":
        return {
            "bootstrap-naive --replicates": (*mix["bootstrap-naive"], "--replicates"),
            "bootstrap-naive --format table": (*mix["bootstrap-naive"], "--format", "table"),
        }
    if name == "synth":
        law = ("synth", "--alpha", "0.08", "--log-c", "3.0", "--seed", str(SEED))
        return {
            "synth": (
                *law, "--seeds-per-scale", "5", "--sigma-pre", "0.01", "--sigma-fin", "0.02",
                "--out", "synth.jsonl",
            ),
            "synth --noise uniform": (
                *law, "--layers", "2-12", "--seeds-per-scale", "7", "--sigma-fin", "0.05", "--noise", "uniform",
                "--direction", "maximize", "--out", "uniform.jsonl", "--truth-out", "uniform.truth.json",
            ),
            "synth overflow": (
                "synth", "--alpha", "100", "--log-c", "700", "--seed", "1", "--out", "overflow.jsonl",
            ),
            "synth --task ''": (*law, "--task", "", "--out", "empty-task.jsonl"),
        }
    if name in RUN_SETS:
        boot = ("bootstrap", "--input", RUN_SETS[name][0], "--B", "200", "--seed", str(SEED), "--replicates")
        modes = {f"bootstrap --mode {m} --replicates": (*boot, "--mode", m) for m in ("hierarchical", "naive")}
        return {"fit": ("fit", "--input", RUN_SETS[name][0]), **modes}
    if name == "help":
        return {" ".join(("scalefit", *path, "--help")): (*path, "--help") for path in HELP_PATHS}
    if name == "bad input":
        curves = {file: ("diagnose", "earlystop", "--curve", file, "--patience", "2") for file in BAD_CURVES}
        return {**{file: ("fit", "--input", file) for file in BAD_INPUTS}, **curves}
    return {}


def _run(cli, argv: tuple) -> tuple:
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare, not a failed check
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def collect(tree: Path) -> tuple[dict, dict]:
    """Label -> sha256 of every output of every command, run on ``tree``,
    and each command's stdout and stderr label -> its text."""
    sys.dont_write_bytecode = True  # leave the tree as it was
    tree = tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from scalefit import cli

    digests, texts = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ.setdefault("SCALEFIT_CACHE_DIR", os.path.join(tmp, "cache"))  # a directory: _stats lists files
        for file, text in {**BAD_INPUTS, **BAD_CURVES, **dict(RUN_SETS.values())}.items():
            Path(file).write_text(text, encoding="utf-8", errors="surrogateescape")
        for name in (*workloads.WORKLOADS, "synth", *RUN_SETS, "bad input", "help"):
            mix = {}
            if name in workloads.WORKLOADS:
                workload = workloads.WORKLOADS[name](SEED)
                before = _stats()
                workload.write_inputs()
                digests.update({f"{name} input {file}": sha for file, sha in _written(before).items()})
                mix = {cmd.kind: cmd.argv for cmd in workload.commands}
            for label, argv in {**mix, **extras(name, mix)}.items():
                before = _stats()
                code, out, err = _run(cli, argv)
                key = f"{name} {label}:"
                digests[f"{key} argv"] = _sha(json.dumps(argv).encode())
                digests[f"{key} exit"] = _sha(str(code).encode())
                for stream, text in (("stdout", out), ("stderr", err)):
                    digests[f"{key} {stream}"] = _sha(text.encode(errors="surrogatepass"))  # also text that holds a lone surrogate
                    texts[f"{key} {stream}"] = text
                digests.update({f"{key} file {file}": sha for file, sha in _written(before).items()})
        os.chdir(tree)
    return digests, texts


def _leaves(value, path: tuple = ()):
    """(path, value) of each leaf of a parsed JSON value."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*path, key))
    else:
        yield path, value


def _json_difference(a: str, b: str) -> str | None:
    """How many leaf values of two JSON texts differ, a leaf that one side
    lacks included, and the largest relative difference of the numbers
    among them; None unless both texts are JSON."""
    try:
        x, y = (dict(_leaves(json.loads(text))) for text in (a, b))
    except ValueError:
        return None
    typed = lambda leaves, key: (type(leaves[key]), leaves[key]) if key in leaves else None
    differ = [key for key in {**x, **y} if typed(x, key) != typed(y, key)]
    numbers = [(x[k], y[k]) for k in differ if {type(x.get(k)), type(y.get(k))} <= {int, float}]
    largest = max((abs(p - q) / max(abs(p), abs(q)) for p, q in numbers), default=None)
    shown = "no two numbers among them" if largest is None else f"largest relative difference {largest:.3g}"
    return f"{len(differ)} JSON leaf values differ, {shown}"


def _first_difference(a: str, b: str) -> tuple[str, str]:
    """The first line of ``a`` and of ``b`` that differ, "" for a side that has ended."""
    lines = itertools.zip_longest(a.splitlines(), b.splitlines(), fillvalue="")
    return next(((x, y) for x, y in lines if x != y), ("", ""))


def _digests(tree: Path) -> tuple[dict, dict]:
    """``collect`` run on ``tree`` in a fresh interpreter."""
    argv = [sys.executable, __file__, "--collect", str(tree.resolve())]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the run failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two source trees")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    if args.collect:
        print(json.dumps(collect(*args.trees)))
        return 0
    runs = [_digests(tree) for tree in args.trees]
    if len(runs) == 1:
        for key, sha in runs[0][0].items():
            print(f"{sha[:16]}  {key}")
        return 0
    (a, a_texts), (b, b_texts) = runs
    keys = list(dict.fromkeys([*a, *b]))
    differ = [key for key in keys if a.get(key) != b.get(key)]
    for key in differ:
        print(f"DIFFERS {key}: {a.get(key, 'missing')[:16]} vs {b.get(key, 'missing')[:16]}")
        shown = [texts.get(key) for texts in (a_texts, b_texts)]
        counted = None
        if key.endswith("stdout") and None not in shown:
            counted = _json_difference(*shown)
            shown = _first_difference(*shown)
        for tree, text in zip(args.trees, shown):
            if text is not None:
                print(f"    {tree}: {text[:200]!r}")
        if counted is not None:
            print(f"    {counted}")
    trees = " vs ".join(map(str, args.trees))
    print(f"{len(keys) - len(differ)} of {len(keys)} values identical ({trees}, seed {SEED})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
