"""Closed-loop benchmark of the scalefit CLI.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Runs from the root of a scalefit checkout and imports the package from its
``src/`` directory.  One client in one process calls ``scalefit.cli.run``
in-process, issuing each command after the previous one returns, over whole
passes of the workload's command mix (at least two) until ``--seconds`` have
elapsed.
Every command's stdout is checked (exit code, strict JSON, slope against
the synthetic truth, intervals bracketing their estimates, and byte-identical
output for a repeated argv).  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of a separate traced loop.  End-to-end timings are adjusted to a
reference host speed (see speed.py); the log lines give them raw as well.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
INPUT_BUILDS = 3
COLD_STARTS = 21
IMPORT_PROBES = 5
SHOWN_PROBLEMS = 5


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def parse_report(text: str) -> dict:
    """Strict JSON: NaN and +/-Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


class Runner:
    """Invokes commands in-process and checks each one's output.

    The first output of an argv is checked in full and its sha256 becomes
    the reference; every later run of that argv must reproduce it exactly.
    """

    def __init__(self, cli, gauge):
        self.cli = cli
        self.gauge = gauge
        self.refs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def invoke(self, cmd) -> tuple:
        """Run one command; returns (raw seconds, adjusted seconds, stdout bytes)."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return self.cli.run(list(cmd.argv))
                except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                    return f"raised {exc!r}"

        raw, adjusted, rc = self.gauge.time(call)
        data = out.getvalue().encode()
        self.attempted += 1
        problems = self._problems(cmd, rc, data, err.getvalue())
        if problems:
            self.failed += 1
            if len(self.problems) < SHOWN_PROBLEMS:
                self.problems.append(f"{cmd.kind}: {'; '.join(problems)}")
        return raw, adjusted, len(data)

    def _problems(self, cmd, rc, data: bytes, err: str) -> list:
        problems = [] if rc == 0 else [f"exit {rc}: {err.strip()[-300:]}"]
        digest = hashlib.sha256(data).hexdigest()
        ref = self.refs.get(cmd.argv)
        if ref is None:
            content = self._check(cmd, data)
            self.refs[cmd.argv] = (digest, not content)
            return problems + content
        if digest != ref[0]:
            problems.append("stdout differs from the first run of the same argv")
        elif not ref[1]:
            problems.append("same stdout as a failed run")
        return problems

    def _check(self, cmd, data: bytes) -> list:
        try:
            report = parse_report(data.decode())
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        try:
            return cmd.check(report)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            return [f"report lacks an expected field: {exc!r}"]


class Loop:
    """Timings of one closed loop over whole passes of the mix.

    It runs at least two passes, so each command is sampled twice even when
    one pass outlasts ``seconds`` (a bulk pass takes ~14 s).  ``between``,
    if given, is called with the loop's elapsed seconds after each command;
    the time it takes does not count towards ``seconds``.  ``times`` are
    speed-adjusted seconds, ``raw`` the same commands' wall seconds.
    """

    def __init__(self, runner, commands, seconds: float, between=None):
        gc.collect()
        self.times: list = []
        self.raw: list = []
        self.sizes: list = []
        self.kinds: list = []
        self.passes = 0
        start = time.perf_counter()
        paused = 0.0
        while True:
            for cmd in commands:
                raw, adjusted, size = runner.invoke(cmd)
                self.times.append(adjusted)
                self.raw.append(raw)
                self.sizes.append(size)
                self.kinds.append(cmd.kind)
                if between is not None:
                    pause = time.perf_counter()
                    between(pause - start - paused)
                    paused += time.perf_counter() - pause
            self.passes += 1
            if self.passes >= 2 and time.perf_counter() - start - paused >= seconds:
                break

    @property
    def cmds_per_s(self) -> float:
        """Commands per second of command time, adjusted."""
        return len(self.times) / sum(self.times)

    @property
    def raw_cmds_per_s(self) -> float:
        return len(self.raw) / sum(self.raw)

    def kind_medians_ms(self) -> dict:
        by_kind: dict = {}
        for kind, t in zip(self.kinds, self.times):
            by_kind.setdefault(kind, []).append(t * 1e3)
        return {k: round(statistics.median(v), 2) for k, v in by_kind.items()}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_starts_ms(gauge, count: int) -> list:
    """(raw, adjusted) ms of fresh interpreters importing scalefit.cli, one at a time.

    The child runs on the one CPU that this thread, and with it the gauge's
    kernel, runs on: the host's CPUs slow down independently, so a kernel
    timed on another CPU does not tell the child's speed.
    """
    argv = [sys.executable, "-c", "import scalefit.cli"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})  # this thread only; the child inherits it
    try:
        samples = []
        for _ in range(count):
            raw, adjusted, _ = gauge.time(lambda: subprocess.run(argv, env=_child_env(), cwd=ROOT, check=True))
            samples.append((raw * 1e3, adjusted * 1e3))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def import_ms() -> float:
    """Median cumulative import time of scalefit.cli from -X importtime."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import scalefit.cli"],
            env=_child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        # Lines read "import time: <self us> | <cumulative us> | <module>".
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scalefit.cli":
                samples.append(int(parts[1]) / 1e3)
    return statistics.median(samples)


def build_inputs(gauge, workload, times: int) -> list:
    """Write the workload's inputs ``times`` times; (raw, adjusted) seconds of each build."""
    return [gauge.time(workload.write_inputs)[:2] for _ in range(times)]


def warm_up(runner, workload) -> tuple:
    """One untimed pass of the mix, which sets each argv's reference output;
    its (raw, adjusted) seconds."""
    runs = [runner.invoke(cmd) for cmd in workload.commands]
    return sum(r[0] for r in runs), sum(r[1] for r in runs)


def untraced(runner, workload, seconds: float) -> dict:
    builds = build_inputs(runner.gauge, workload, INPUT_BUILDS)
    warm = warm_up(runner, workload)
    cold: list = []

    def cold_start_when_due(elapsed):
        # Spread over the loop, so the median sees the same mix of fast and
        # slow host phases as the command timings do.
        if len(cold) < COLD_STARTS * min(1.0, elapsed / seconds):
            cold.extend(cold_starts_ms(runner.gauge, 1))

    loop = Loop(runner, workload.commands, seconds, between=cold_start_when_due)
    cold += cold_starts_ms(runner.gauge, COLD_STARTS - len(cold))
    p90 = statistics.quantiles(loop.times, n=10, method="inclusive")[-1]
    metrics = {
        "cmds_per_s": loop.cmds_per_s,
        "cmd_p50_ms": statistics.median(loop.times) * 1e3,
        "cmd_p90_ms": p90 * 1e3,
        "report_kb": statistics.fmean(loop.sizes) / 1024,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_start_ms": statistics.median(c[1] for c in cold),
        "setup_s": statistics.median(b[1] for b in builds) + warm[1],
    }
    kernel = runner.gauge.kernel_ms
    print(f"host speed: reference kernel {statistics.median(kernel):.3f} ms median, "
          f"{min(kernel):.3f}-{max(kernel):.3f} ms over {len(kernel)} samples")
    print(f"setup (adjusted): input builds {[round(b[1], 3) for b in builds]} s, warm-up pass {warm[1]:.3f} s")
    print(f"setup (raw): input builds {[round(b[0], 3) for b in builds]} s, warm-up pass {warm[0]:.3f} s")
    print(
        f"closed loop: {len(loop.times)} commands in {loop.passes} passes "
        f"(p50 and p90 over {len(loop.times)} samples); raw cmds_per_s {loop.raw_cmds_per_s:.4f}, "
        f"raw cmd_p50_ms {statistics.median(loop.raw) * 1e3:.3f}, "
        f"raw cold_start_ms {statistics.median(c[0] for c in cold):.3f}"
    )
    print(f"per-command median ms (adjusted): {loop.kind_medians_ms()}")
    return metrics


def traced(runner, workload, seconds: float) -> dict:
    setup = spans.Tracer()
    setup.install()
    try:
        workload.write_inputs()
    finally:
        setup.uninstall()
    warm_up(runner, workload)
    plain = Loop(runner, workload.commands, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        loop = Loop(runner, workload.commands, seconds / 2)
    finally:
        tracer.uninstall()
    values, facts = spans.layer_metrics(tracer, setup, loop.passes)
    values["import.cold_ms"] = import_ms()
    values["trace.overhead_ratio"] = plain.cmds_per_s / loop.cmds_per_s
    broken = workload.premises(values, facts)
    values["trace.premise_breaks"] = float(len(broken))
    print(f"traced loop: {len(loop.times)} commands in {loop.passes} passes; untraced {len(plain.times)}")
    print(f"tracing gaps: {tracer.gaps or 'none'}")
    for line in broken:
        print(f"PREMISE BROKEN ({workload.name}): {line}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "bulk", "ragged"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scalefit" / "__init__.py").is_file():
        print(f"perfbench: no scalefit sources under {SRC}", file=sys.stderr)
        return 2
    # Cap BLAS/OpenMP pools at the CPUs this process may use, before numpy loads.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    sys.path.insert(0, str(SRC))
    import scalefit
    import scalefit.cli

    if Path(scalefit.__file__).resolve().parent != SRC / "scalefit":
        print(f"perfbench: imported scalefit from {scalefit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports scalefit, so only once the path is set
    from speed import Gauge  # imports numpy, so only once the thread caps are set

    # BENCHMARK.json names the metrics each mode reports, and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(scalefit.cli, Gauge(sample_during=not args.trace))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        print(f"workload {workload.name}, seed {args.seed}: {workload.size}")
        if args.trace:
            values = traced(runner, workload, args.seconds)
        else:
            values = untraced(runner, workload, args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    print(f"commands attempted {runner.attempted}, failed {runner.failed}, "
          f"fail_ratio {runner.failed / runner.attempted}")
    for line in runner.problems:
        print(f"FAILED {line}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
