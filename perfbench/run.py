"""handforge benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload demo-pipeline --seed 1 --seconds 30 --trace 0

One client runs the workload's CLI steps back to back (a closed loop),
in this process, through `handforge.cli.main(..., standalone_mode=False)`.
Passes repeat while the next one would end less than half a pass past
--seconds of measured wall time (at least one pass; with --trace 1 at
least one of each kind). Every
pass's outputs are checked outside the timed region. Times are reported
in reference seconds (see speed.py), which factor out the machine's
speed at the moment of measurement. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run alternates
untraced and traced passes and reports the per-layer metrics, and the
spans are written to .perfbench/traces/. Exit status is 0 when every
check passed, 1 when a check or an operation failed, 2 on a usage error
or when the handforge sources are missing (then no result is printed).
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each run builds this many workspaces, from generator seeds seed*N .. seed*N+N-1,
# and passes take them in turn: set-up time is the median over them, and
# a run's median pass mixes several inputs, which narrows the spread
# between seeds (demo scans differ in cost by about 10 % from seed to seed).
WORKSPACES = 8
RESOLVED_DESIGNS = 6  # designs per simulate step solved again by the output check
WALL_LIMIT_S = 150.0  # start no pass that could end after this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_handforge():
    """Import handforge from this checkout's `src/`; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "handforge" / "__init__.py").is_file():
        print(f"error: no handforge sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import handforge.cli
    elapsed = time.perf_counter() - start
    if Path(handforge.cli.__file__).resolve().parent != src / "handforge":
        print(f"error: imported handforge from {handforge.cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return elapsed


class Runner:
    """Invokes CLI steps and keeps the operation counts of one run."""

    def __init__(self, cli, clock):
        self.cli = cli
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.refused = 0

    def call(self, step) -> str:
        """Run one step: 'ok', 'refused' (exit 1 for a HandforgeError) or 'failed'."""
        import click
        from handforge.errors import HandforgeError

        try:
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self.cli.main([step.command, *step.args], prog_name="handforge", standalone_mode=False)
        except click.ClickException as exc:
            if exc.exit_code == 1 and isinstance(exc.__context__, HandforgeError):
                return "refused"
            print(f"{step.command} {step.label}: {exc.format_message()}", file=sys.stderr)
            return "failed"
        except (Exception, SystemExit):
            traceback.print_exc()
            return "failed"
        return "ok"

    def run_pass(self, steps, tracer=None):
        """Run the steps in order, calibrating between them when due.
        Returns each step's status and its wall interval."""
        done = []
        for step in steps:
            self.attempted += 1
            span = tracer.begin("cli." + step.command.replace("-", "_")) if tracer else None
            start = time.perf_counter()
            status = self.call(step)
            end = time.perf_counter()
            if tracer:
                tracer.end(span)
            self.refused += status == "refused"
            self.failed += status == "failed"
            done.append((step, status, start, end))
            if self.clock.due():
                self.clock.calibrate()
        self.clock.after_pass()
        return done


def check_step(ws, step, out, rng) -> int:
    """Check one successful step's outputs; returns the number of
    trajectory CSVs that hold numpy reprs."""
    import checks
    import workloads
    from handforge import kinematics
    from handforge.landmarks import default_topology

    if step.command == "fit-bones":
        checks.check_fitted_bones(out, default_topology().bone_ids)
    elif step.command == "gen-tissue":
        checks.check_shell(out, step.label)
    elif step.command == "select-thickness":
        checks.check_thickness(out / "thickness.json", workloads.SIGMA)
    elif step.command == "simulate":
        designs = ws.simulated()
        meta = kinematics.load_presets()[1]
        resolve = rng.choice(sorted(designs), size=min(RESOLVED_DESIGNS, len(designs)), replace=False)
        return checks.check_simulation(out, designs, meta["displacement_max"], meta["steps"], list(resolve))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_mm", "mm"), ("_bytes", "byte"), ("_mb", "MB"),
                         ("_frac", "frac"), ("_per_design", "ratio"), ("_speed", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run(args) -> int:
    import_s = import_handforge()
    import numpy as np

    import checks
    import tracing
    import workloads
    from handforge.cli import main as cli
    from speed import SpeedClock

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    wall_start = time.perf_counter()
    clock = SpeedClock()
    clock.after_pass()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, clock)
    tracer = tracing.Tracer() if args.trace else None
    check_errors: list[str] = []
    try:
        setup_s = []
        spaces = []
        for i in range(WORKSPACES):
            start = time.perf_counter()
            spaces.append(workloads.make_workspace(args.workload, work / f"ws{i}", args.seed * WORKSPACES + i))
            setup_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        for step in spaces[0].warmup_steps(work / "warmup"):
            if runner.call(step) != "ok":
                check_errors.append(f"warm-up {step.command} {step.label} failed")
        warmup_s = time.perf_counter() - start

        rng = np.random.default_rng(args.seed)
        passes = {False: [], True: []}  # traced? -> wall seconds per pass
        measured_s = 0.0
        max_residual = 0.0
        wrapped_csvs = 0
        k = 0
        while True:
            trace_this = tracer is not None and k % 2 == 1
            ws = spaces[(k // 2 if tracer else k) % WORKSPACES]  # traced and untraced passes pair up
            out = ws.root / f"pass{k}"
            out.mkdir()
            if trace_this:
                tracer.install()
                solved_before = len(tracer.solved)
                pass_span = tracer.begin("pass")
            pass_start = time.perf_counter()
            results = runner.run_pass(ws.steps(out), tracer if trace_this else None)
            if trace_this:
                tracer.end(pass_span)
                tracer.uninstall()
            passes[trace_this].append(sum(end - start for _, _, start, end in results))
            measured_s += passes[trace_this][-1]
            for step, status, _, _ in results:
                if status != "ok":
                    continue
                try:
                    wrapped_csvs += check_step(ws, step, out, rng)
                except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                    check_errors.append(f"{step.command} {step.label}: {exc}")
                    runner.failed += 1
            if trace_this:
                pass_residual = max((checks.residual_mm(cfg, state, d)
                                     for cfg, d, state in tracer.solved[solved_before:]), default=0.0)
                if pass_residual > checks.RESIDUAL_MAX_MM:
                    check_errors.append(f"solver residual {pass_residual:.3e} mm above bound")
                    runner.failed += 1
                max_residual = max(max_residual, pass_residual)
            shutil.rmtree(out)
            k += 1
            # stop before a pass that would end more than half a pass past --seconds
            pass_wall = time.perf_counter() - pass_start
            finished = (measured_s + passes[trace_this][-1] / 2 > args.seconds
                        and (tracer is None or passes[True]))
            if finished or time.perf_counter() - wall_start + pass_wall > WALL_LIMIT_S:
                break

        ref = clock.reference_s
        if tracer is None:
            metrics = {
                "setup_s": ref(import_s + warmup_s + statistics.median(setup_s)),
                "pipeline_s": ref(statistics.median(passes[False])),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - runner.failed / runner.attempted,
            }
        else:
            metrics = tracing.layer_metrics(
                tracer, len(passes[True]), len(ws.simulated()), runner.refused / k,
                max_residual, [ref(t) for t in passes[True]], [ref(t) for t in passes[False]])
            metrics["trace.machine_speed"] = clock.speed()
            trace_dir = ROOT / ".perfbench" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "traced_passes": len(passes[True]),
                "spans": tracer.spans,
            }))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in check_errors:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not check_errors and runner.failed == 0
    print(f"workload {args.workload} seed {args.seed}: {k} passes, {runner.attempted} operations, "
          f"{runner.refused} refused, {runner.failed} failed (failed_frac {runner.failed / runner.attempted:g})")
    print("pass wall seconds: " + " ".join(f"{t:.3f}" for t in passes[False] + passes[True])
          + f"; machine speed {clock.speed():.3f} of nominal")
    if wrapped_csvs:
        print(f"note: {wrapped_csvs} trajectory CSVs hold numpy reprs such as np.float64(0.0), "
              "not plain numbers")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
