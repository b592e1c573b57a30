"""The CLI's on-disk cache of ingested tables and loss curves (``scalefit.cache``).

A miss and a hit print what a parse prints, byte for byte, warnings
included; an entry is stored only for a regular file that parsed cleanly
into int64 columns and hashed the same before and after its parse, and an
entry that fails a check is parsed again and overwritten.  Record tables
and loss curves take the same paths, but for a curve's first read of new
bytes, which only notes their key; most tests run each kind.  ``conftest.py``
points the cache at a directory of the session; each test here uses one of
its own.
"""

import csv
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalefit as sf
from scalefit import cache, cli

from conftest import TRUE_LOG_C, ar32_synth


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    directory = tmp_path / "cache"
    monkeypatch.setenv("SCALEFIT_CACHE_DIR", str(directory))
    return directory


# The function each kind of entry is parsed by, as ``scalefit.cache`` calls it.
PARSERS = {"table": "_parse", "curve": "load_loss_curve"}


@pytest.fixture()
def parses(monkeypatch):
    """The arguments of each parse of a records file or a loss curve: one per miss, none per hit."""
    calls = []
    for name in PARSERS.values():
        def counted(*args, parse=getattr(cache, name)):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(cache, name, counted)
    return calls


def entries(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if cache._ENTRY.fullmatch(p.name)) if directory.is_dir() else []


def outcome(capsys, argv) -> tuple:
    """Exit code, stdout, stderr and warnings (text, category, location) of one in-process command."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def uncached(capsys, monkeypatch, argv) -> tuple:
    with monkeypatch.context() as m:
        m.setenv("SCALEFIT_CACHE_DIR", "")
        return outcome(capsys, argv)


def write_inputs() -> None:
    """Two families' records whose every ninth row lacks its pretrain seed,
    as ``runs.jsonl``, its copy ``copy.jsonl``, ``runs.csv`` and, holding
    the CSV bytes, ``csv-bytes.jsonl``; 80 seeds a scale make each file at
    least ``cache.MIN_BYTES``.  And ``curve.csv``, a loss curve of 6,000
    points that falls with a wiggle, also at least ``cache.MIN_BYTES``."""
    a, _ = ar32_synth(901, family="mlm", seeds_per_scale=80)
    b, _ = ar32_synth(902, family="pmi", log_c=TRUE_LOG_C + 0.02, seeds_per_scale=80)
    sf.emit([*a.records, *b.records], "full.jsonl")
    sf.emit([*a.records, *b.records], "full.csv")
    lines = Path("full.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [json.loads(line) for line in lines]
    for row in rows[::9]:
        del row["pretrain_seed"]
    text = "".join(json.dumps(row) + "\n" for row in rows)
    Path("runs.jsonl").write_text(text, encoding="utf-8")
    Path("copy.jsonl").write_text(text, encoding="utf-8")
    with open("full.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    for row in table[1::9]:
        row[table[0].index("pretrain_seed")] = ""
    out = io.StringIO()
    csv.writer(out).writerows(table)
    Path("runs.csv").write_text(out.getvalue(), encoding="utf-8", newline="")
    Path("csv-bytes.jsonl").write_text(out.getvalue(), encoding="utf-8", newline="")
    points = (f"{10 * i},{2.0 + 30 / (10 + i) + 0.01 * (i * 7919 % 13) / 13}\n" for i in range(1, 6001))
    Path("curve.csv").write_text("step,eval_loss\n" + "".join(points), encoding="utf-8")
    assert min(os.path.getsize(name) for name in ("runs.jsonl", "runs.csv", "curve.csv")) >= cache.MIN_BYTES


COMMANDS = {
    "fit": ["fit", "--family", "mlm"],
    "bootstrap": ["bootstrap", "--family", "pmi", "--B", "50", "--seed", "3"],
    "select": ["select", "--family-a", "mlm", "--family-b", "pmi", "--target-layers", "12", "--target-hidden", "384",
               "--B", "50", "--seed", "3"],
    "flops": ["flops", "--baseline-layers", "8", "--baseline-hidden", "256"],
    "plot": ["plot", "--family", "mlm", "--out", "p.svg"],
}
INPUTS = {
    "jsonl": ["--input", "runs.jsonl"],
    "csv": ["--input", "runs.csv"],
    "format-over-suffix": ["--input", "csv-bytes.jsonl", "--input-format", "csv"],
}
EARLYSTOP = ["diagnose", "earlystop", "--patience", "5", "50", "--curve"]
# A file of each kind of entry, and a command that reads it.
READS = {
    "table": ("runs.jsonl", ["fit", "--family", "mlm", "--input", "runs.jsonl"]),
    "curve": ("curve.csv", [*EARLYSTOP, "curve.csv"]),
}
# The reads of new bytes of each kind that parse; the last of them stores the entry.
PARSED_READS = {"table": 1, "curve": 2}


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("command", COMMANDS)
def test_a_miss_and_a_hit_print_what_a_parse_prints(cache_dir, parses, capsys, monkeypatch, command, source):
    write_inputs()
    argv = COMMANDS[command] + INPUTS[source]
    expected = uncached(capsys, monkeypatch, argv)
    assert expected[0] == 0 and "missing seed field(s) defaulted to 0" in expected[3][0][0]
    assert len(parses) == 1 and not cache_dir.exists()
    assert outcome(capsys, argv) == expected  # a miss
    assert len(parses) == 2 and len(entries(cache_dir)) == 1
    assert cache_dir.stat().st_mode & 0o777 == 0o700
    assert outcome(capsys, argv) == expected  # a hit
    assert len(parses) == 2


@pytest.mark.parametrize("name", ["runs.jsonl", "runs.csv", "params.jsonl", "empty.jsonl", "curve.csv"])
def test_a_hit_returns_what_the_parse_returns(cache_dir, monkeypatch, name):
    monkeypatch.setattr(cache, "MIN_BYTES", 0)  # an entry of the empty file too
    write_inputs()
    rows = [json.loads(line) for line in Path("full.jsonl").read_text(encoding="utf-8").splitlines()]
    Path("params.jsonl").write_text("".join(json.dumps({k: v for k, v in row.items() if k not in ("layers", "hidden")})
                                            + "\n" for row in rows), encoding="utf-8")
    Path("empty.jsonl").write_text("", encoding="utf-8")
    if name == "curve.csv":
        parsed, noted = sf.load_loss_curve(name), cache.read_curve(name)
        assert entries(cache_dir) == []  # the first read of a curve's bytes only notes their key
        missed, hit = cache.read_curve(name), cache.read_curve(name)
        assert [path.suffix for path in entries(cache_dir)] == [".curve"]
        for curve in (noted, missed, hit):
            assert type(curve) is sf.LossCurve and curve == parsed
            assert {type(step) for step in curve.steps} == {int} and {type(loss) for loss in curve.losses} == {float}
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parsed, missed, hit = sf.ingest(name), cache.read_table(name), cache.read_table(name)
    assert len(entries(cache_dir)) == 1
    for table in (missed, hit):
        assert table == parsed
        for field in ("code", "values", "seeds", "tokens", "label"):
            column = getattr(table, field)
            assert column.dtype == getattr(parsed, field).dtype and not column.flags.writeable


def test_a_hit_under_another_name_warns_with_that_name(cache_dir, parses, capsys, monkeypatch):
    write_inputs()
    argv = ["fit", "--family", "mlm", "--input"]
    outcome(capsys, [*argv, "runs.jsonl"])
    expected = uncached(capsys, monkeypatch, [*argv, "copy.jsonl"])
    assert len(parses) == 2
    got = outcome(capsys, [*argv, "copy.jsonl"])
    assert len(parses) == 2  # a hit: the same bytes
    assert got == expected
    assert got[3][0][0].startswith("copy.jsonl: ")


@pytest.mark.parametrize("kind", READS)
def test_a_file_under_the_floor_is_parsed_on_every_read(cache_dir, parses, capsys, monkeypatch, kind):
    write_inputs()
    name, argv = READS[kind]
    size = os.path.getsize(name)
    monkeypatch.setattr(cache, "MIN_BYTES", size + 1)
    expected = uncached(capsys, monkeypatch, argv)
    assert outcome(capsys, argv) == expected and outcome(capsys, argv) == expected
    assert len(parses) == 3 and not cache_dir.exists()
    monkeypatch.setattr(cache, "MIN_BYTES", size)
    for _ in range(PARSED_READS[kind] + 1):
        assert outcome(capsys, argv) == expected
    assert len(parses) == 3 + PARSED_READS[kind] and len(entries(cache_dir)) == 1


def test_a_table_and_a_curve_of_the_same_bytes_are_two_entries(cache_dir, parses, monkeypatch):
    write_inputs()
    curve = cache.read_curve("curve.csv")
    assert cache.read_curve("curve.csv") == curve  # the second read of its bytes stores it
    table = sf.ingest("full.csv")
    with monkeypatch.context() as m:
        m.setattr(cache, "_parse", lambda path, format: (table, None))  # curve.csv's bytes parse to a table
        assert cache.read_table("curve.csv", "csv") == table
    kinds = entries(cache_dir)
    assert sorted(path.suffix for path in kinds) == [".curve", ".table"] and kinds[0].stem != kinds[1].stem
    assert cache.read_curve("curve.csv") == curve and cache.read_table("curve.csv", "csv") == table
    assert len(parses) == 2  # the curve's first two reads; the last two are hits


def test_the_format_is_part_of_the_key(cache_dir, capsys, monkeypatch):
    write_inputs()
    argv = ["fit", "--family", "mlm", "--input", "csv-bytes.jsonl"]
    assert outcome(capsys, [*argv, "--input-format", "csv"])[0] == 0
    expected = uncached(capsys, monkeypatch, argv)  # CSV bytes read as JSONL
    assert expected[0] == 2
    assert outcome(capsys, argv) == expected
    assert len(entries(cache_dir)) == 1


def _scalefit(argv, cache, **kwargs) -> subprocess.CompletedProcess:
    src = str(Path(sf.__file__).resolve().parent.parent)
    env = dict(os.environ, SCALEFIT_CACHE_DIR=cache)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "scalefit", *argv], env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_the_replayed_warning_reads_as_the_parsed_one_on_stderr(cache_dir):
    write_inputs()
    argv = ["fit", "--family", "mlm", "--input"]
    runs = [_scalefit([*argv, name], cache) for name, cache in
            (("copy.jsonl", ""), ("runs.jsonl", str(cache_dir)), ("copy.jsonl", str(cache_dir)))]
    assert len(entries(cache_dir)) == 1
    off, miss, hit = [(p.returncode, p.stdout, p.stderr) for p in runs]
    assert off[0] == 0 and "UserWarning: copy.jsonl: " in off[2]
    assert f"{os.sep.join(('scalefit', 'cli.py'))}:" in off[2].splitlines()[0]  # the command's line, as a parse reports it
    assert hit == off
    assert miss[2] == off[2].replace("copy.jsonl", "runs.jsonl")


def test_standard_input_is_parsed_and_not_stored(cache_dir):
    write_inputs()
    text = Path("runs.jsonl").read_text(encoding="utf-8")
    argv = ["fit", "--input", "/dev/stdin", "--input-format", "jsonl", "--family", "mlm"]
    off, on = (_scalefit(argv, cache, input=text) for cache in ("", str(cache_dir)))
    assert on.returncode == 0 and "UserWarning: stdin: " in on.stderr
    assert (on.returncode, on.stdout, on.stderr) == (off.returncode, off.stdout, off.stderr)
    from_file = _scalefit(["fit", "--input", "runs.jsonl", "--family", "mlm"], "")
    assert json.loads(on.stdout)["results"] == json.loads(from_file.stdout)["results"]
    assert entries(cache_dir) == []


def test_new_bytes_of_the_same_size_and_mtime_miss(cache_dir, parses, capsys, monkeypatch):
    write_inputs()
    argv = ["fit", "--family", "mlm", "--input", "runs.jsonl"]
    before = outcome(capsys, argv)
    st = os.stat("runs.jsonl")
    text = Path("runs.jsonl").read_text(encoding="utf-8")
    value = repr(json.loads(text.splitlines()[0])["value"])  # as the line holds it
    other = value[:3] + str((int(value[3]) + 1) % 10) + value[4:]  # the same length
    Path("runs.jsonl").write_text(text.replace(value, other, 1), encoding="utf-8")
    os.utime("runs.jsonl", ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (os.stat("runs.jsonl").st_size, os.stat("runs.jsonl").st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    expected = uncached(capsys, monkeypatch, argv)
    assert expected != before
    assert outcome(capsys, argv) == expected
    assert len(parses) == 3 and len(entries(cache_dir)) == 2


@pytest.mark.parametrize("kind", READS)
def test_bytes_rewritten_during_the_parse_are_not_stored_under_the_old_key(cache_dir, capsys, monkeypatch, kind):
    write_inputs()
    name, argv = READS[kind]
    expected = uncached(capsys, monkeypatch, argv)
    original = Path(name).read_text(encoding="utf-8")
    st = os.stat(name)
    if kind == "table":  # a digit of the first record's value
        value = repr(json.loads(original.splitlines()[0])["value"])
        other = original.replace(value, value[:3] + str((int(value[3]) + 1) % 10) + value[4:], 1)
    else:  # the first point's loss, 4.7... as 1.7...: the least of the curve
        point = original.splitlines()[1]
        other = original.replace(point, point.replace(",4.", ",1."), 1)
    assert len(other) == len(original) and other != original
    for _ in range(PARSED_READS[kind] - 1):  # a curve's key is noted, so that its next parse may store
        assert outcome(capsys, argv) == expected
    assert entries(cache_dir) == []
    parse = getattr(cache, PARSERS[kind])

    def rewritten_first(*args):
        # the same inode, size and mtime, other bytes, after the hash and before the parse
        Path(name).write_text(other, encoding="utf-8")
        os.utime(name, ns=(st.st_atime_ns, st.st_mtime_ns))
        return parse(*args)

    with monkeypatch.context() as m:
        m.setattr(cache, PARSERS[kind], rewritten_first)
        changed = outcome(capsys, argv)
    assert changed != expected and changed == uncached(capsys, monkeypatch, argv)
    assert entries(cache_dir) == []
    Path(name).write_text(original, encoding="utf-8")
    os.utime(name, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert outcome(capsys, argv) == expected  # a miss, then a hit
    assert outcome(capsys, argv) == expected
    assert len(entries(cache_dir)) == 1


def test_the_warning_names_each_commands_own_line(cache_dir, capsys, monkeypatch):
    write_inputs()
    lines = Path(cli.__file__).read_text(encoding="utf-8").splitlines()
    located = set()
    for command in ("fit", "select", "flops"):
        argv = COMMANDS[command] + INPUTS["jsonl"]
        for code, _, _, caught in (uncached(capsys, monkeypatch, argv), outcome(capsys, argv), outcome(capsys, argv)):
            ((_, _, filename, lineno),) = caught
            assert code == 0 and Path(filename) == Path(cli.__file__) and "_table(args)" in lines[lineno - 1]
            located.add((command, lineno))
    assert len(located) == 3 and len({lineno for _, lineno in located}) == 3


def _split(entry: Path) -> tuple[dict, dict]:
    """An entry's header and its columns as arrays."""
    data = entry.read_bytes()
    start = data.index(b"\n") + 1
    header, offset, columns = json.loads(data[:start]), start, {}
    for name, dtype, shape in header["columns"]:
        count = int(np.prod(shape))
        columns[name] = np.frombuffer(data, dtype, count, offset).reshape(shape).copy()
        offset += 8 * count
    return header, columns


def _joined(header: dict, columns: dict) -> bytes:
    text = json.dumps(header)
    return (text + " " * (-(len(text) + 1) % 8) + "\n").encode() + b"".join(c.tobytes() for c in columns.values())


def _truncated(entry):
    return entry.read_bytes()[:-8]


def _trailing_bytes(entry):
    return entry.read_bytes() + bytes(8)


def _foreign_dtype(entry):
    header, columns = _split(entry)
    header["columns"][0][1] = ">i8"
    return _joined(header, columns)


def _code_out_of_range(entry):
    header, columns = _split(entry)
    columns["code"][3] = len(header["scales"])
    return _joined(header, columns)


def _value_not_positive(entry):
    header, columns = _split(entry)
    columns["values" if "values" in columns else "losses"][5] = 0.0
    return _joined(header, columns)


def _steps_not_increasing(entry):
    header, columns = _split(entry)
    columns["steps"][7] = columns["steps"][6]
    return _joined(header, columns)


def _no_points(entry):
    header, columns = _split(entry)
    for column in header["columns"]:
        column[2] = [0]
    return _joined(header, {name: column[:0] for name, column in columns.items()})


def _not_json(entry):
    return b"{scales\n" + entry.read_bytes()


SPOILED_TABLES = [_truncated, _trailing_bytes, _foreign_dtype, _code_out_of_range, _value_not_positive, _not_json]
SPOILED_CURVES = [_truncated, _trailing_bytes, _foreign_dtype, _value_not_positive, _not_json, _steps_not_increasing,
                  _no_points]


@pytest.mark.parametrize("spoil, kind, argv", [
    *(pytest.param(spoil, "table", ["bootstrap", "--family", "pmi", "--B", "50", "--seed", "3", "--input", "runs.jsonl"],
                   id=spoil.__name__) for spoil in SPOILED_TABLES),
    *(pytest.param(spoil, "curve", READS["curve"][1], id="curve" + spoil.__name__) for spoil in SPOILED_CURVES),
])
def test_a_spoiled_entry_is_parsed_again_and_overwritten(cache_dir, parses, capsys, monkeypatch, spoil, kind, argv):
    write_inputs()
    expected = uncached(capsys, monkeypatch, argv)
    for _ in range(PARSED_READS[kind]):
        assert outcome(capsys, argv) == expected
    (entry,) = entries(cache_dir)
    good = entry.read_bytes()
    entry.write_bytes(spoil(entry))
    assert entry.read_bytes() != good
    assert outcome(capsys, argv) == expected
    assert len(parses) == 2 + PARSED_READS[kind]  # the cache-off run, the first misses, and the spoiled entry's
    assert entries(cache_dir) == [entry] and entry.read_bytes() == good


def test_a_cache_path_that_is_a_file_leaves_the_output_as_it_is(tmp_path, parses, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    Path("not-a-dir").write_text("x", encoding="utf-8")
    monkeypatch.setenv("SCALEFIT_CACHE_DIR", str(tmp_path / "not-a-dir"))
    argv = ["fit", "--family", "mlm", "--input", "runs.csv"]
    expected = uncached(capsys, monkeypatch, argv)
    assert expected[0] == 0
    assert outcome(capsys, argv) == expected
    assert outcome(capsys, argv) == expected
    assert len(parses) == 3 and Path("not-a-dir").read_text(encoding="utf-8") == "x"


@pytest.mark.parametrize("kind", READS)
def test_an_integer_past_int64_is_not_stored(cache_dir, capsys, monkeypatch, kind):
    write_inputs()
    if kind == "table":  # a seed
        lines = Path("full.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[0])
        row["finetune_seed"] = 2**70
        Path("big.jsonl").write_text("".join([json.dumps(row) + "\n", *lines[1:]]), encoding="utf-8")
        argv = ["bootstrap", "--family", "mlm", "--B", "50", "--seed", "3", "--input", "big.jsonl"]
        assert sf.ingest("big.jsonl").seeds.dtype == object
    else:  # the last step
        Path("big.csv").write_text(Path("curve.csv").read_text(encoding="utf-8") + f"{2**70},1.5\n", encoding="utf-8")
        argv = [*EARLYSTOP, "big.csv"]
        assert sf.load_loss_curve("big.csv").steps[-1] == 2**70
    expected = uncached(capsys, monkeypatch, argv)
    assert expected[0] == 0
    for _ in range(PARSED_READS[kind]):
        assert outcome(capsys, argv) == expected
    assert entries(cache_dir) == []
    for _ in range(PARSED_READS[kind]):
        outcome(capsys, READS[kind][1])  # the file it was made from is stored
    assert len(entries(cache_dir)) == 1


@pytest.mark.parametrize("kind", READS)
def test_an_input_that_fails_its_parse_is_not_stored(cache_dir, capsys, monkeypatch, kind):
    write_inputs()
    if kind == "table":
        lines = Path("full.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        Path("bad.jsonl").write_text("".join([*lines[:5], lines[5].replace('"value": ', '"value": -')]),
                                     encoding="utf-8")
        argv, error = ["fit", "--input", "bad.jsonl"], "error: row 6: value must be positive\n"
    else:  # row 5,002 repeats the step of row 5,001, and 1,000 good points follow
        lines = Path("curve.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        Path("bad.csv").write_text("".join([*lines[:5001], "50000,1.5\n", *lines[5001:]]), encoding="utf-8")
        assert lines[5000].startswith("50000,") and os.path.getsize("bad.csv") >= cache.MIN_BYTES
        argv = [*EARLYSTOP, "bad.csv"]
        error = "error: row 5002: steps must be strictly increasing, got 50000 then 50000\n"
    expected = uncached(capsys, monkeypatch, argv)
    assert expected[:3] == (2, "", error)
    for _ in range(PARSED_READS[kind]):
        assert outcome(capsys, argv) == expected
    assert entries(cache_dir) == []
    for _ in range(PARSED_READS[kind]):
        outcome(capsys, READS[kind][1])  # a good file of the kind is stored
    assert len(entries(cache_dir)) == 1


def test_a_curve_is_stored_on_the_second_read_of_its_bytes(cache_dir, parses, capsys, monkeypatch):
    write_inputs()
    name, argv = READS["curve"]
    first = Path(name).read_text(encoding="utf-8")
    text = first
    for step in (60010, 60020, 60030):  # a point more at each read, as the log of a run still training grows
        text += f"{step},1.5\n"
        Path(name).write_text(text, encoding="utf-8")
        assert outcome(capsys, argv) == uncached(capsys, monkeypatch, argv)
    assert len(parses) == 6 and entries(cache_dir) == []
    assert len((cache_dir / "seen").read_bytes().split()) == 3
    monkeypatch.setattr(cache, "SEEN_KEYS", 2)
    Path(name).write_text(first, encoding="utf-8")
    expected = uncached(capsys, monkeypatch, argv)
    assert outcome(capsys, argv) == expected  # noted; the oldest two keys are dropped
    Path(name).write_text(first + "60010,1.5\n", encoding="utf-8")
    outcome(capsys, argv)  # its key was dropped: noted again, not stored
    assert len(parses) == 9 and entries(cache_dir) == []
    assert len((cache_dir / "seen").read_bytes().split()) == 2
    Path(name).write_text(first, encoding="utf-8")
    assert outcome(capsys, argv) == expected and outcome(capsys, argv) == expected  # a miss that stores, then a hit
    assert len(parses) == 10 and [path.suffix for path in entries(cache_dir)] == [".curve"]


def test_eviction_deletes_the_least_recently_used_entries_first(cache_dir, parses, capsys, monkeypatch):
    write_inputs()
    for name in ("a", "b", "c"):
        Path(f"{name}.jsonl").write_text(Path("full.jsonl").read_text(encoding="utf-8") * (ord(name) - 96),
                                         encoding="utf-8")
    fit = lambda name: outcome(capsys, ["fit", "--family", "mlm", "--input", f"{name}.jsonl"])
    fit("a")
    (a,) = entries(cache_dir)
    fit("b")
    (b,) = set(entries(cache_dir)) - {a}
    past = time.time_ns() - 100 * 10**9
    os.utime(a, ns=(past, past))
    os.utime(b, ns=(past + 10**9, past + 10**9))  # b used after a
    fit("a")  # a hit, which makes a the most recently used
    assert len(parses) == 2
    other = cache_dir / "notes.txt"
    other.write_text("not an entry", encoding="utf-8")
    # c holds the rows of a and b, so its entry is a header short of theirs:
    # the cap holds a and c, not all three
    monkeypatch.setattr(cache, "MAX_BYTES", 2 * a.stat().st_size + b.stat().st_size)
    fit("c")
    (c,) = set(entries(cache_dir)) - {a, b}
    assert entries(cache_dir) == sorted([a, c]) and other.exists()
    assert a.stat().st_size + c.stat().st_size <= cache.MAX_BYTES
    monkeypatch.setattr(cache, "MAX_BYTES", 0)  # no entry fits
    fit("b")
    assert entries(cache_dir) == []


def test_the_cache_directory(monkeypatch, tmp_path):
    monkeypatch.delenv("SCALEFIT_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cache.cache_dir() == tmp_path / "xdg" / "scalefit"
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert cache.cache_dir() == tmp_path / "home" / ".cache" / "scalefit"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert cache.cache_dir() == tmp_path / "home" / ".cache" / "scalefit"
    monkeypatch.setenv("SCALEFIT_CACHE_DIR", "")
    assert cache.cache_dir() is None
