"""Benchmark of the twoscale CLI pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from its ``src``
tree.  The workload (see ``workloads.py``) runs through
``twoscale.cli.main(argv)`` in this single-threaded process, repeatedly for
``--seconds``, and every run's outputs are checked.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of ``spans.py`` plus the tracing overhead.

Set-up (a fresh-interpreter import, input generation and a reduced-size
warm-up pass) is repeated ``SETUP_REPEATS`` times and reported as a median.
Every time is taken at the nominal host speed of ``hostspeed.py``: each set-up
and run is scaled by the host-speed sampler's reading over that same interval,
and the metrics are medians of the scaled times.
The last stdout line is the result as one JSON object; a record with the
per-run figures, output digests and environment goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostspeed import NOMINAL_KERNEL_S, HostSpeed
from spans import Recorder, instrument
from workloads import WORKLOADS, output_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Run:
    step_s: dict
    wall_s: float
    cpu_s: float
    problems: list
    digest: str | None
    start: float  # time.monotonic() bounds of the run, for the host-speed scale
    end: float


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _call(cli, argv) -> tuple:
    """Exit code and captured output of one CLI command; None on an exception."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv), sink.getvalue()
    except SystemExit as exc:
        return exc.code, sink.getvalue()
    except Exception:
        return None, sink.getvalue() + traceback.format_exc()


def run_pipeline(cli, pipeline) -> Run:
    """Run every step, timing each; then check the outputs and digest them."""
    gc.collect()
    step_s, problems = {}, []
    start = time.monotonic()
    cpu0 = _cpu_s()
    for step in pipeline.steps:
        t0 = time.perf_counter()
        rc, log = _call(cli, step.argv)
        step_s[step.label] = time.perf_counter() - t0
        if rc != step.expected_rc:
            problems.append(f"{step.label} exited {rc}, expected {step.expected_rc}: {log.strip()[-500:]}")
            break
    cpu = _cpu_s() - cpu0
    end = time.monotonic()
    if not problems:
        try:
            problems = pipeline.check()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    digest = None if problems else output_digest(pipeline)
    return Run(step_s, sum(step_s.values()), cpu, problems, digest, start, end)


def _fresh_import() -> None:
    """Import the CLI in a fresh interpreter, as a user's first command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import twoscale.cli"], cwd=ROOT, env=env, check=True)


def set_up(cli, build, seed: int, work: Path) -> tuple:
    """Import, generate the inputs and warm up, ``SETUP_REPEATS`` times.

    Returns each set-up's time and ``time.monotonic()`` bounds, the warm-up
    runs and the full-size pipeline."""
    setups, warmups, pipeline = [], [], None
    for k in range(SETUP_REPEATS):
        start, t0 = time.monotonic(), time.perf_counter()
        _fresh_import()
        pipeline = build(seed, work / "full")
        warmups.append(run_pipeline(cli, build(seed, work / f"warmup{k}", reduced=True)))
        setups.append((time.perf_counter() - t0, start, time.monotonic()))
    return setups, warmups, pipeline


def measure(cli, pipeline, seconds: float, trace: bool) -> tuple:
    """Untraced runs for about ``seconds``; with ``trace``, each paired with a traced run.

    Another run (or pair) starts only while the last one, repeated, would end
    less than half its length past ``seconds``, so long runs overshoot little."""
    untraced, traced, layers = [], [], []

    def traced_run():
        recorder = Recorder()
        restore = instrument(recorder)
        try:
            traced.append(run_pipeline(cli, pipeline))
        finally:
            restore()
        layers.append(recorder.metrics())

    start = last = time.perf_counter()
    while True:
        # alternate which side of a pair runs first, so neither gets the warmer machine
        if trace and len(untraced) % 2:
            traced_run()
        untraced.append(run_pipeline(cli, pipeline))
        if trace and len(untraced) % 2:
            traced_run()
        now = time.perf_counter()
        if now - start + (now - last) / 2 >= seconds:
            return untraced, traced, layers
        last = now


def _git_sha() -> str:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unavailable"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "twoscale" / "cli.py").is_file():
        print(f"error: no twoscale sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import twoscale
    from twoscale import cli

    if not Path(twoscale.__file__).resolve().is_relative_to(SRC):
        print(f"error: twoscale imported from {twoscale.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        with HostSpeed() as host:
            build = WORKLOADS[args.workload]
            setups, warmups, pipeline = set_up(cli, build, args.seed, work)
            untraced, traced, layers = measure(cli, pipeline, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = warmups + untraced + traced
    failed = sum(1 for r in runs if r.problems)
    digests = {r.digest for r in untraced + traced}
    correct = failed == 0 and len(digests) == 1
    # Other tenants of a shared host slow it by tens of percent for minutes at
    # a time; scaled by the host-speed reading of their own interval, the runs
    # follow the program's cost and not the host's (figures in README.md).
    scale = {id(r): host.scale(r.start, r.end) for r in untraced + traced}
    raw = {
        "wall_s": [r.wall_s for r in untraced],
        "cpu_s": [r.cpu_s for r in untraced],
        **{f"{s.label}_s": [r.step_s.get(s.label, 0.0) for r in untraced] for s in pipeline.steps},
    }
    times = {name: [t * scale[id(r)] for t, r in zip(v, untraced)] for name, v in raw.items()}
    setup_times = [t * host.scale(start, end) for t, start, end in setups]
    summary = {name: statistics.median(v) for name, v in times.items()}
    summary.update(peak_rss_mb=peak_rss_mb, setup_s=statistics.median(setup_times),
                   failed_ratio=failed / len(runs))
    if args.trace:
        scales = [scale[id(r)] for r in traced]
        values = {name: statistics.median(m[name] * k if name.endswith("_s") else m[name]
                                          for m, k in zip(layers, scales))
                  for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(r.wall_s * scale[id(r)] for r in traced) - summary["wall_s"]
    else:
        values = summary
    reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "argv": [s.argv for s in pipeline.steps],
        "summary": summary,
        "metrics": reported,
        "host_kernel_s": {"nominal": NOMINAL_KERNEL_S,
                          "median": statistics.median(d for _, d in host.samples),
                          "samples": len(host.samples)},
        "setups": [{"setup_s": t, "scale": host.scale(start, end)} for t, start, end in setups],
        "runs": [{"kind": kind, "step_s": r.step_s, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                  "scale": host.scale(r.start, r.end), "digest": r.digest, "problems": r.problems}
                 for kind, group in (("warmup", warmups), ("untraced", untraced), ("traced", traced))
                 for r in group],
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  untraced runs {len(untraced)}  "
          f"nproc {env['nproc']}  numpy {env['numpy']}  git {env['git_sha']}")
    print(f"  host kernel    {statistics.median(d for _, d in host.samples) * 1e3:10.4f} ms  median of "
          f"{len(host.samples)} samples; times below are scaled to {NOMINAL_KERNEL_S * 1e3:g} ms")
    for name, v in times.items():
        print(f"  {name:<14} {statistics.median(v):10.4f} s   median of {len(v)} runs (fastest {min(v):.4f}); "
              f"unscaled median {statistics.median(raw[name]):.4f}, fastest {min(raw[name]):.4f}")
    print(f"  peak_rss_mb    {peak_rss_mb:10.2f} MB")
    print(f"  setup_s        {summary['setup_s']:10.4f} s   median of {SETUP_REPEATS} set-ups; "
          f"unscaled median {statistics.median(t for t, _, _ in setups):.4f}")
    print(f"  failed_ratio   {summary['failed_ratio']:10.4f}     {failed} of {len(runs)} pipeline runs")
    if args.trace:
        for name, m in reported.items():
            print(f"  {name:<36} {m['value']:14.6g} {m['unit']}")
    print(f"  digest         {sorted(d or 'none' for d in digests)}")
    for r in runs:
        for p in r.problems:
            print(f"  problem: {p}")
    print(f"  record         {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
