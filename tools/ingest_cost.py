"""Ingest, group, curve and plot cost of one source tree, or of two, timed in process.

    python3 tools/ingest_cost.py TREE [OTHER_TREE] [--seed S] [--rounds R]

A fresh interpreter per tree writes the ``bulk`` and ``ladder`` workload
inputs of seed ``S`` into a temporary directory of that tree's own, with the
tree's ``perfbench/workloads.py`` (imported, never modified), as
``tools/identity.py`` does.  Then each of ``R`` rounds runs every tree, the
trees taking turns to go first, in two fresh interpreters one after the
other.  The first times, with the tree's ``scalefit``:

- ``ingest`` of ``bulk.jsonl`` and of ``bulk.csv``, best of 5;
- ``load_loss_curve("curve.csv")``, the 200k-point curve, best of 5;
- ``ingest`` of ``holes.csv`` (``holes_ms``) and of ``nonascii.csv``
  (``nonascii_ms``), best of 5, taking turns: ``bulk.csv`` with the params
  cell of line 4,086 of each 4,096 lines left empty (params defaults to
  12LH², the value the cell held), so that every chunk holds an integer
  cell ``np.loadtxt`` cannot read, with 10 lines after it; and
  ``bulk.csv`` with the task of line 6 not ASCII (``tâche``), so that
  ``np.loadtxt`` does not take the first chunk.  From the first chunk it
  does not take, ``csv.reader`` reads the file;
- ``group`` of the ``bulk.csv`` table, best of 5;
- ``fit_runset`` of the ``bulk.csv`` run set, best of 5, as ``fit`` runs
  it (``fit_ms``) and with ``min_layers=4, space="linear"`` as
  ``fit-depth-linear`` runs it (``fit_depth_ms``);
- ``render_plot(plot_runset(runset, fit=fit))`` of the ``bulk.csv`` run set
  and its fit, as the ``plot`` command draws it, best of 5;
- ``group(ingest("ladder.jsonl"))`` and ``group(ingest("ladder.csv"))``,
  the same 80 records written as CSV by this script: the fastest of 20
  blocks of 200 calls, per call;
- with the CLI's cache (``scalefit.cache``) in a temporary directory,
  ``read_table`` of ``bulk.jsonl`` and of ``bulk.csv`` and ``read_curve``
  of ``curve.csv`` on a hit, the key and the load (``jsonl_hit_ms``,
  ``csv_hit_ms``, ``curve_hit_ms``), best of 5, taking turns; what a miss
  that stores ``bulk.jsonl`` and ``curve.csv`` does beyond its parse
  (``jsonl_miss_extra_ms``, ``curve_miss_extra_ms``): its steps timed
  alone, ``_file_key`` twice, then the entry's columns and ``_store`` into
  an empty directory; and what the first read of a curve's bytes does
  beyond its parse (``curve_first_extra_ms``): ``_file_key`` once, then
  ``_admitted`` noting the key in an empty directory; best of 5, taking
  turns.  Each prints ``nan`` where the tree lacks it: all six before the
  cache, all but the table hits before loss curves joined it, and
  ``curve_first_extra_ms`` before a curve was stored on its bytes' second
  read.

The second, which imports no ``scalefit``, times the bare chunked parse
loops of the same files, best of 5 each, taking turns: ``json.loads`` of
each 4,096 lines of ``bulk.jsonl`` joined as one JSON array; and
``csv.reader`` read 4,096 rows at a time, and ``np.loadtxt`` of each 4,096
lines with the types ``ingest`` parses them as (int64 integers, float64
values, labels and tokens as ``U16``: its first str width), of
``bulk.csv`` and of ``curve.csv``.  ``xbare`` is the ratio of each file's
reading to the bare loop of the parser that reads it in full:
``json.loads`` for JSONL, ``np.loadtxt`` for CSV records and curves; the
``csv.reader`` loops, the floor of the parse before ``np.loadtxt`` read
CSV, stay beside them.

Every timing is adjusted to the host speed that ``perfbench/speed.py``'s
gauge (of the checkout holding this script, imported, never modified)
measures around and during it, as the benchmark adjusts its own.  It prints
one line per run, then each tree's median over the rounds and, with two
trees, each median of ``OTHER_TREE`` over that of ``TREE``.  Only the
alternating runs compare.  Beside each ratio it prints the A/A band: the
least and the greatest ratio between the trees, round by round, of the
bare ``json.loads`` and ``np.loadtxt`` loops, which run the same code in
both trees, in processes that run nothing else.  A ratio outside the band
is marked ``outside``; one inside it cannot be told from the noise of the
run.  ``tools/ingest_cost.py . .`` (one tree twice) is the self-check.
Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from speed import Gauge  # noqa: E402  one gauge, this checkout's, for every tree

del sys.path[0]

CHUNK = 4096  # the rows ingest parses at a time
# The timings of one round of a tree, in the order printed.
TIMINGS = ("jsonl_ms", "jsonl_bare_ms", "csv_ms", "csv_bare_ms", "csv_loadtxt_ms", "curve_ms", "curve_bare_ms",
           "curve_loadtxt_ms", "holes_ms", "nonascii_ms", "group_ms", "fit_ms", "fit_depth_ms", "plot_ms",
           "ladder_ms", "ladder_csv_ms", "jsonl_hit_ms", "csv_hit_ms", "curve_hit_ms", "jsonl_miss_extra_ms",
           "curve_miss_extra_ms", "curve_first_extra_ms")
# Each timing that has a bare parse loop to compare with, and that loop's timing.
PARSED = {"jsonl": "jsonl_bare_ms", "csv": "csv_loadtxt_ms", "curve": "curve_loadtxt_ms"}
# The bare loops run the same code in both trees: their ratios between the
# trees, round by round, span the A/A band of a run.
CONTROLS = tuple(PARSED.values())
# The type np.loadtxt parses each column of a bulk.csv or curve.csv header as.
TYPES = {
    **dict.fromkeys(("layers", "hidden", "params", "pretrain_seed", "finetune_seed", "step"), np.int64),
    **dict.fromkeys(("value", "eval_loss"), np.float64),
    **dict.fromkeys(("task", "family", "metric", "direction", "tokens"), "U16"),
}


def _best(*calls, repeat: int) -> list[float]:
    """The least of ``repeat`` speed-adjusted wall times of each of
    ``calls``, in milliseconds; the calls take turns, so that a slow spell
    of the host slows each of them alike."""
    gauge, times = Gauge(), [[] for _ in calls]
    for _ in range(repeat):
        for call, spent in zip(calls, times):
            spent.append(gauge.time(call)[1])
    return [min(spent) * 1e3 for spent in times]


def _bare_jsonl(path: str) -> None:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        while lines := list(itertools.islice(fh, CHUNK)):
            json.loads("[" + ",".join(lines) + "]")


def _bare_csv(path: str) -> None:
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        while list(itertools.islice(reader, CHUNK)):
            pass


def _bare_loadtxt(path: str) -> None:
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        dtype = np.dtype([(name, TYPES[name]) for name in next(csv.reader(fh))])
        while lines := list(itertools.islice(fh, CHUNK)):
            np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _use(tree: Path) -> None:
    """Import ``scalefit`` and ``workloads`` from ``tree`` alone."""
    sys.dont_write_bytecode = True  # leave the tree as it was
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]


def _bulk_variant(name: str, field: str, cell: str, changed) -> None:
    """Write ``bulk.csv`` as ``name``, with ``field`` of each line number
    that ``changed`` is true of set to ``cell``."""
    with open("bulk.csv", encoding="utf-8", newline="") as fh, open(name, "w", encoding="utf-8", newline="") as out:
        column = next(csv.reader([fh.readline()])).index(field)
        fh.seek(0)
        for number, line in enumerate(fh, 1):
            if changed(number):
                cells = line.split(",")
                cells[column] = cell
                line = ",".join(cells)
            out.write(line)


def write_inputs(tree: Path, seed: int) -> None:
    """Write the ``bulk`` and ``ladder`` inputs of ``seed`` into the working
    directory, and ``holes.csv``, ``nonascii.csv`` and ``ladder.csv`` made
    from them."""
    _use(tree)
    import workloads

    for name in ("bulk", "ladder"):
        workloads.WORKLOADS[name](seed).write_inputs()
    _bulk_variant("holes.csv", "params", "", lambda number: number % CHUNK == CHUNK - 10)
    _bulk_variant("nonascii.csv", "task", "t\u00e2che", lambda number: number == 6)
    with open("ladder.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    fields = list(dict.fromkeys(field for record in records for field in record))
    with open("ladder.csv", "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(["" if record.get(f) is None else record[f] for f in fields] for record in records)


def measure(tree: Path) -> dict:
    """The ``TIMINGS`` of ``tree``'s ``scalefit`` on the inputs in the working directory."""
    _use(tree)
    import scalefit as sf

    got = {}
    (got["jsonl_ms"],) = _best(lambda: sf.ingest("bulk.jsonl"), repeat=5)
    (got["csv_ms"],) = _best(lambda: sf.ingest("bulk.csv"), repeat=5)
    (got["curve_ms"],) = _best(lambda: sf.load_loss_curve("curve.csv"), repeat=5)
    got["holes_ms"], got["nonascii_ms"] = _best(lambda: sf.ingest("holes.csv"), lambda: sf.ingest("nonascii.csv"),
                                                repeat=5)
    table = sf.ingest("bulk.csv")
    (got["group_ms"],) = _best(lambda: sf.group(table), repeat=5)
    (runset,) = sf.group(table).values()
    got["fit_ms"], got["fit_depth_ms"] = _best(lambda: sf.fit_runset(runset),
                                               lambda: sf.fit_runset(runset, min_layers=4, space="linear"), repeat=5)
    fit = sf.fit_runset(runset)
    (got["plot_ms"],) = _best(lambda: sf.render_plot(sf.plot_runset(runset, fit=fit)), repeat=5)
    for name, path in (("ladder_ms", "ladder.jsonl"), ("ladder_csv_ms", "ladder.csv")):
        (block,) = _best(lambda: [sf.group(sf.ingest(path)) for _ in range(200)], repeat=20)
        got[name] = block / 200
    got.update(_cached(sf))
    return got


def _cached(sf) -> dict:
    """The cache's hit timings of ``bulk.jsonl``, ``bulk.csv`` and
    ``curve.csv``, and the steps of their misses beyond the parse; NaN for
    each that the tree's cache lacks."""
    names = ("jsonl_hit_ms", "csv_hit_ms", "curve_hit_ms", "jsonl_miss_extra_ms", "curve_miss_extra_ms",
             "curve_first_extra_ms")
    got = dict.fromkeys(names, math.nan)
    try:
        from scalefit import cache
    except ImportError:  # a tree from before the cache
        return got
    curves = hasattr(cache, "read_curve")  # and the miss steps' functions, which came with it
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["SCALEFIT_CACHE_DIR"] = os.path.join(tmp, "hits")
        read = [lambda: cache.read_table("bulk.jsonl"), lambda: cache.read_table("bulk.csv")]
        if curves:
            read.append(lambda: cache.read_curve("curve.csv"))
        for call in read:
            call(), call()  # misses, the last of which stores the entry, or a hit
        got.update(zip(names, _best(*read, repeat=5)))
        if not curves:
            return got
        fresh = itertools.count()

        def miss(kind: str, path: str, format: str | None, value, columns) -> None:
            # What a miss of path that stores it does beside parsing it to
            # value: hash it before and after the parse, then write its
            # entry into a new, empty directory.
            key = cache._file_key(Path(path), kind, format)
            assert cache._file_key(Path(path), kind, format) == key
            cache._store(Path(tmp, str(next(fresh)), key), *columns(value))

        def first_read() -> None:
            # What the first read of a curve's bytes does beside its parse:
            # hash it, then note its key in a new, empty directory.
            assert not cache._admitted(Path(tmp, str(next(fresh))), cache._file_key(Path("curve.csv"), "curve", "csv"))

        table, curve = cache._parse(Path("bulk.jsonl"), None), sf.load_loss_curve("curve.csv")
        steps = [lambda: miss("table", "bulk.jsonl", None, table, cache._table_columns),
                 lambda: miss("curve", "curve.csv", "csv", curve, cache._curve_columns)]
        if hasattr(cache, "_admitted"):
            steps.append(first_read)
        got.update(zip(names[3:], _best(*steps, repeat=5)))
    return got


def bare() -> dict:
    """The bare parse loops' ``TIMINGS`` on the inputs in the working directory."""
    got = {}
    (got["jsonl_bare_ms"],) = _best(lambda: _bare_jsonl("bulk.jsonl"), repeat=5)
    got["csv_bare_ms"], got["csv_loadtxt_ms"] = _best(lambda: _bare_csv("bulk.csv"),
                                                      lambda: _bare_loadtxt("bulk.csv"), repeat=5)
    got["curve_bare_ms"], got["curve_loadtxt_ms"] = _best(lambda: _bare_csv("curve.csv"),
                                                          lambda: _bare_loadtxt("curve.csv"), repeat=5)
    return got


def _child(*argv: str, cwd: str) -> str:
    """Stdout of this script run with ``argv`` in a fresh interpreter in ``cwd``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)}: the run failed\n{proc.stderr}")
    return proc.stdout


def _line(label: str, got: dict) -> str:
    cells = [f"{name} {got[name]:8.3f}" for name in TIMINGS]
    ratios = [f"{fmt} xbare {got[f'{fmt}_ms'] / got[bare]:.2f}" for fmt, bare in PARSED.items()]
    return f"{label}  " + "  ".join(cells + ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two source trees")
    parser.add_argument("--seed", type=int, default=1, help="workload seed of the inputs (default 1)")
    parser.add_argument("--rounds", type=int, default=5, help="runs of each tree (default 5)")
    parser.add_argument("--write", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--bare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [tree.resolve() for tree in args.trees]
    if args.write:
        write_inputs(trees[0], args.seed)
        return 0
    if args.measure:
        print(json.dumps(measure(trees[0])))
        return 0
    if args.bare:
        print(json.dumps(bare()))
        return 0
    runs = [[] for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, str(i)) for i in range(len(trees))]
        for tree, cwd in zip(trees, dirs):
            os.mkdir(cwd)
            _child(str(tree), "--write", "--seed", str(args.seed), cwd=cwd)
        for round_ in range(args.rounds):
            turn = round_ % len(trees)
            for i in [*range(turn, len(trees)), *range(turn)]:
                got = json.loads(_child(str(trees[i]), "--measure", cwd=dirs[i]))
                got.update(json.loads(_child(str(trees[i]), "--bare", cwd=dirs[i])))
                runs[i].append(got)
                print(_line(f"round {round_ + 1} {trees[i]}:", runs[i][-1]), flush=True)
    medians = [{name: statistics.median(run[name] for run in tree_runs) for name in TIMINGS} for tree_runs in runs]
    for tree, median in zip(trees, medians):
        print(_line(f"median {tree}:", median))
    if len(trees) == 2:
        a, b = medians
        controls = [y[name] / x[name] for x, y in zip(*runs) for name in CONTROLS]
        low, high = min(controls), max(controls)
        print(f"{trees[1]} / {trees[0]} (seed {args.seed}, {args.rounds} rounds), each median's ratio beside the "
              f"A/A band of the bare-loop ratios, {', '.join(CONTROLS)}, round by round:")
        for name in TIMINGS:
            ratio = b[name] / a[name]
            outside = "" if math.isnan(ratio) or low <= ratio <= high else "  outside"
            print(f"  {name:16} {ratio:6.3f}  band {low:.3f}-{high:.3f}{outside}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
