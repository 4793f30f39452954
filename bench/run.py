"""edho benchmark: seeded CLI sweep workloads, timed end to end and per layer.

    python3 bench/run.py --workload entropy --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``.  One process, one thread (BLAS capped at 1), closed loop: the
workload's sweeps (``workloads.py``) run one after another through
``edho.cli.main`` and the whole list repeats while it still fits in
``--seconds``.  The first pass warms the allocator and caches and is not
timed.  Every pass must exit 0 and write the same CSV bytes; the
last pass is checked against an independent oracle (``oracle.py``) outside
the timed region.  ``attempted`` counts sweep invocations plus CSV rows;
``failed`` counts the ones that broke any of these checks.

--trace 0 prints the end-to-end metrics:
  wall_s       one pass of all sweeps: the sum over sweeps of each sweep's
               median time over the passes, at the reference host speed
  setup_s      ``import edho`` in a fresh interpreter, median of the
               samples taken before each pass, at the reference host speed
  peak_rss_mb  peak resident memory of this process over the timed passes
Shared hosts run everything 20-35% slower or faster for seconds to
minutes at a time, often longer than a run.  So between passes the run also
times a fixed loop of the benchmark's own (``_calibration_time``), which
edho cannot change, and scales each pass's times, and the import samples
taken before it, by CAL_REF_S over the loop's median time just before and
just after the pass: a time is reported as it would read on a host where
the loop takes CAL_REF_S.  The raw times are in the record line
(``wall_raw_s``, ``setup_raw_s``).
--trace 1 alternates untraced and traced passes (``tracing.py``) and prints
the per-layer metrics, the untraced median time of each subcommand
(``sweep_s.<command>``), the tracing overhead and the known-defect probes
(``probes.py``, run in a process of their own).  Traced and untraced
passes must write identical CSVs.

Output goes to ``.bench_out/`` in the checkout (record.json, and spans.csv
for a traced run).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
seed, the argv of every sweep, every timing sample, the probes and the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_out")
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_PASS = 4        # import samples taken before each pass
CAL_PER_PASS = 3          # loop samples before each pass and after the last
CAL_REF_S = 0.025         # calibration loop time at the reference speed
IMPORT_CODE = ("import time; t = time.perf_counter(); import edho; "
               "print(time.perf_counter() - t, edho.__file__)")
SUBCOMMANDS = ("shannon", "fisher", "cramer-rao", "validate", "thermo",
               "spectrum", "density", "perey")


def _median(values):
    return float(statistics.median(values))


def _import_time():
    """Seconds to ``import edho`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True,
                         capture_output=True, text=True).stdout.split()
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported edho from {out[1]}, not {SRC}")
    return float(out[0])


def _calibration_time():
    """Seconds for a fixed loop like edho's work: array recurrences, then
    float formatting.  It is the benchmark's own code, so only the host
    moves it."""
    import numpy as np

    t0 = perf_counter()
    x = np.linspace(-1.0, 1.0, 8192)
    t_prev, t_cur = np.ones_like(x), x.copy()
    for _ in range(1500):  # Chebyshev recurrence: stays within [-1, 1]
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    ",".join(repr(v) for v in t_cur[::2].tolist())
    return perf_counter() - t0


def _sweep_medians(passes, factors=None):
    """Each sweep's median time over the passes, each pass's times scaled
    by its factor.

    Summing per-sweep medians drops a slow spell of the machine that hits
    one sweep of one pass, which a median of whole passes would let through.
    """
    factors = factors or [1.0] * len(passes)
    return [_median([t * f for t, f in zip(times, factors)])
            for times in zip(*(p.times for p in passes))]


def _host_factors(calibration):
    """Per pass: CAL_REF_S over the median calibration time of the samples
    taken just before and just after it."""
    return [CAL_REF_S / _median(before + after)
            for before, after in zip(calibration, calibration[1:])]


def _digest(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


class Pass:
    """One run of every sweep of the workload; times in seconds."""

    def __init__(self, sweeps, work, main, tracer=None):
        self.times, self.codes, self.logs = [], [], []
        for i, sweep in enumerate(sweeps):
            argv = sweep.argv(work / f"{i}-{sweep.command}")
            log = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(log):
                try:
                    if tracer is None:
                        code = main(argv)
                    else:
                        tracer.sweep_id = i
                        code = tracer.root(main, argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crashed sweep is a failed one
                    code = f"{type(exc).__name__}: {exc}"
            self.times.append(perf_counter() - t0)
            self.codes.append(code)
            self.logs.append(log.getvalue())
        self.digests = [_digest(work / f"{i}-{s.command}")
                        for i, s in enumerate(sweeps)]


def _csv_counts(sweeps, work):
    """cli.rows, cli.error_rows and cli.csv_bytes of the CSVs just written."""
    import oracle

    rows = errors = size = 0
    for i, sweep in enumerate(sweeps):
        for path in (work / f"{i}-{sweep.command}").glob("*.csv"):
            header, body = oracle.read_csv(path)
            col = header.index("error")
            rows += len(body)
            errors += sum(1 for r in body if r[col])
            size += path.stat().st_size
    return {"cli.rows": rows, "cli.error_rows": errors, "cli.csv_bytes": size}


def _environment():
    import numpy

    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


def _parse(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args):
    import oracle
    import workloads
    from tracing import Tracer

    from edho.cli import main

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sweeps = workloads.build(args.workload, args.seed)
    work = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    _import_time()  # warm-up: compiles the bytecode cache
    setup, calibration, untraced, traced, layer_runs, tracer = \
        [], [], [], [], [], None
    # the first pass warms the allocator and caches: checked, not timed
    warm_up = Pass(sweeps, work, main)
    start = perf_counter()
    sides = ["plain", "traced"] if args.trace else ["plain"]
    while True:
        if not args.trace:
            # import samples are spread over the run, so a slow spell of
            # the machine does not hit all of them
            setup.append([_import_time() for _ in range(SETUP_PER_PASS)])
            calibration.append([_calibration_time()
                                for _ in range(CAL_PER_PASS)])
        for side in sides:
            if side == "plain":
                untraced.append(Pass(sweeps, work, main))
                continue
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(Pass(sweeps, work, main, tracer))
            finally:
                tracer.uninstall()
            layer_runs.append({**tracer.metrics(),
                               **_csv_counts(sweeps, work)})
        sides.reverse()  # alternate which side runs first
        # stop before a pass that would end after --seconds; a traced run
        # takes two rounds, so that each side runs first once
        elapsed = perf_counter() - start
        rounds = len(untraced)
        if rounds >= len(sides) and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    if not args.trace:
        calibration.append([_calibration_time() for _ in range(CAL_PER_PASS)])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # correctness, untimed: exit codes, identical bytes on every pass, oracle
    attempted = failed = 0
    notes = []
    for p in [warm_up] + untraced + traced:
        for i, (code, digest) in enumerate(zip(p.codes, p.digests)):
            attempted += 1
            if code != 0 or digest != warm_up.digests[i]:
                failed += 1
                notes.append(f"sweep {i}: exit {code!r}, "
                             f"same bytes: {digest == warm_up.digests[i]}")
    for i, sweep in enumerate(sweeps):
        if sweep.command == "validate":
            continue
        rows, bad, why = oracle.check(sweep, work / f"{i}-{sweep.command}",
                                      args.seed)
        attempted += rows
        failed += bad
        notes += [f"sweep {i}: {n}" for n in why]

    probes = json.loads(subprocess.run(
        [sys.executable, str(BENCH / "probes.py"), args.workload, str(work)],
        check=True, capture_output=True, text=True).stdout)

    medians = _sweep_medians(untraced)
    sweep_s = {cmd: sum(t for t, s in zip(medians, sweeps) if s.command == cmd)
               for cmd in SUBCOMMANDS}
    if args.trace:
        metrics = {name: _median([r[name] for r in layer_runs])
                   for name in layer_runs[0]}
        metrics["trace.overhead_s"] = sum(_sweep_medians(traced)) - sum(medians)
        metrics.update({f"sweep_s.{cmd.replace('-', '_')}": t
                        for cmd, t in sweep_s.items()})
        metrics["probe.attempted"] = probes["attempted"]
        metrics["probe.failed"] = probes["failed"]
        tracer.write_spans(work / "spans.csv")
    else:
        factors = _host_factors(calibration)
        metrics = {"wall_s": sum(_sweep_medians(untraced, factors)),
                   "setup_s": _median([t * f for samples, f
                                       in zip(setup, factors)
                                       for t in samples]),
                   "peak_rss_mb": peak_rss_mb}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "passes": len(untraced), "traced_passes": len(traced),
              "sweeps": [s.argv(work / f"{i}-{s.command}")
                         for i, s in enumerate(sweeps)],
              "sweep_s": sweep_s,
              "warm_up_s": warm_up.times,
              "sweep_times_s": [p.times for p in untraced],
              "setup_samples_s": setup,
              "calibration_s": calibration,
              "wall_raw_s": sum(medians),
              "setup_raw_s": _median(sum(setup, [])) if setup else None,
              "validate": [warm_up.logs[i] for i, s in enumerate(sweeps)
                           if s.command == "validate"],
              "probes": probes["probes"], "notes": notes[:20],
              "trace_counts": dict(tracer.counts) if tracer else {},
              "environment": _environment()}
    (work / "record.json").write_text(json.dumps(record, indent=2))
    for i, sweep in enumerate(sweeps):
        shutil.rmtree(work / f"{i}-{sweep.command}", ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(record))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    if not (SRC / "edho" / "__init__.py").is_file():
        print(f"bench: no edho package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    os.chdir(ROOT)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
