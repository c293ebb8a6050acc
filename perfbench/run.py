"""Benchmark of the `analyze` workflow, end to end and layer by layer.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Drives `hopf_dde.cli.main(argv)`
in this process, one op after another (a closed loop with one client),
on config files generated from the seed, until --seconds have passed.
Every op's outputs are checked (see checks.py). Timings are calibrated
seconds (see calib.py); each metric is the sum over ops of the op's
median. A probe op (default n163) runs once after the timed loop and
only its budget outcome is printed. With --trace 1 the layer boundaries
are wrapped (see tracing.py) and the per-layer metrics are printed
instead of the end-to-end ones.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import compileall  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "hopf_dde")
if not os.path.isfile(os.path.join(PKG, "cli.py")):
    sys.exit(f"perfbench: no hopf_dde package under {SRC}")
# compiled first, so that setup samples time the import, not compilation
compileall.compile_dir(PKG, quiet=1)
sys.path.insert(0, SRC)
import hopf_dde.cli as cli  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(PKG + os.sep):
    sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's copy")

import calib  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench")
FROZEN = os.path.join(HERE, "frozen.json")

# ROADMAP: every preset finishes the default CLI run within 5 s. A preset
# op whose median is over budget fails; a run of it is stopped once it
# passes the budget, and the op is not run again in the same run.
BUDGET_S = 5.0
SETUP_SAMPLES = 16
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import hopf_dde.cli; "
                 "print(time.perf_counter() - t)")


def setup_sample() -> float:
    """Seconds to import hopf_dde.cli in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout)


def _digest(outdir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@dataclasses.dataclass
class OpState:
    op: workloads.Op
    cfg_path: str
    outdir: str
    cal: list = dataclasses.field(default_factory=list)
    raw: list = dataclasses.field(default_factory=list)
    traced_cal: list = dataclasses.field(default_factory=list)
    layers: list = dataclasses.field(default_factory=list)
    executions: int = 0
    failed_runs: int = 0
    failure: str | None = None
    stopped: bool = False
    digest: dict | None = None
    values: dict | None = None

    def fail(self, why: str) -> None:
        self.failed_runs += 1
        self.failure = self.failure or why


class Runner:
    """Runs ops of one workload and keeps their timings and outcomes."""

    def __init__(self, cli, ops, frozen: dict):
        self.cli = cli
        self.frozen = frozen
        self.tracer = tracing.Tracer()
        self.kernels: list[float] = []
        self.check_failures: list[str] = []
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        self.states = []
        self.probes = []
        for op in ops:
            cfg_path = os.path.join(WORK, op.name + ".cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(op.config)
            st = OpState(op, cfg_path, os.path.join(WORK, op.name))
            (self.probes if op.probe else self.states).append(st)
        self.kernel = self._calibrate()

    def _calibrate(self) -> float:
        k = calib.kernel_time()
        self.kernels.append(k)
        return k

    def execute(self, st: OpState, traced: bool) -> None:
        """One timed `analyze` call, its calibration and its output checks."""
        shutil.rmtree(st.outdir, ignore_errors=True)
        argv = ["--config", st.cfg_path, "--out", st.outdir]
        if st.op.paper_case:
            argv += ["--paper-case", st.op.paper_case]
        first_span = len(self.tracer.spans)
        self.tracer.op += 1
        clock = calib.OpClock(self.kernel, BUDGET_S if st.op.paper_case else None)
        try:
            with clock:
                if traced:
                    with tracing.traced(self.tracer):
                        rc = self.tracer.call(tracing.ROOT, self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
        except calib.HardStop:
            rc = None
        self.kernel = self._calibrate()
        cal = clock.finish(self.kernel)
        st.executions += 1
        if rc is None:
            st.stopped = True
            if not traced:  # a lower bound on the op's time
                st.cal.append(cal)
                st.raw.append(clock.raw)
            st.fail(f"budget (stopped after {cal:.2f} cal s)")
            return
        if traced:
            st.traced_cal.append(cal)
            # spans also cover the kernel samples taken inside them
            scale = cal / (clock.raw + clock.sampling)
            layers = tracing.layer_metrics(self.tracer.spans, first_span)
            for k in tracing.TIME_METRICS:
                layers[k] *= scale
            st.layers.append(layers)
        else:
            st.cal.append(cal)
            st.raw.append(clock.raw)
        if rc != 0:
            st.fail(f"exit code {rc}")
            return
        problems = self._check(st)
        if problems:
            self.check_failures += [f"{st.op.name}: {p}" for p in problems]
            st.fail("output check: " + problems[0])

    def _check(self, st: OpState) -> list[str]:
        digest = _digest(st.outdir)
        if st.digest is not None:
            return [] if digest == st.digest else ["outputs differ between runs"]
        st.digest = digest
        problems, st.values = checks.check_run(st.outdir)
        problems += checks.compare_frozen(st.values, self.frozen.get(st.op.name, {}))
        return problems

    def finish(self, states: list[OpState]) -> None:
        """Fail the preset ops whose median is over budget."""
        for st in states:
            med = statistics.median(st.cal) if st.cal else 0.0
            if st.op.paper_case and not st.stopped and med > BUDGET_S:
                st.fail(f"budget (median {med:.2f} cal s)")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__} {threads}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    states = runner.states
    wall = sum(statistics.median(st.cal) for st in states)
    ok = sum(st.failure is None for st in states)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (sum(st.op.points for st in states) / wall, "1/s"),
        "ops_ok_frac": (ok / len(states), "frac"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(runner: Runner, workload: str) -> dict:
    done = [st for st in runner.states if st.layers and st.cal]
    m = collections.Counter()
    for st in done:
        for key in set().union(*st.layers):
            m[key] += statistics.median(s[key] for s in st.layers)
    reached = {s.name for s in runner.tracer.spans}
    missing = [b for b in tracing.required_boundaries(workload != "sweep_n")
               if b not in reached]
    if missing:
        sys.exit("perfbench: trace wiring broken, zero calls through "
                 + ", ".join(missing))
    out = {k: (m[k], "s") for k in tracing.TIME_METRICS}
    counts = {
        "equilibrium.calls": tracing.calls_into(m, "equilibrium.busy_s"),
        "stability.calls": tracing.calls_into(m, "stability.busy_s"),
        "normal_form.calls": tracing.calls_into(m, "normal_form.busy_s"),
        "simulation.calls": m["calls.pipeline.integrate"],
        "simulation.errors": m["errors.pipeline.integrate"],
        "report.csv_files": tracing.calls_into(m, "report.csv_s"),
    }
    for k in ("equilibrium.roots", "simulation.steps", "simulation.intervals",
              "pipeline.points", "pipeline.branches", "pipeline.branch_errors"):
        counts[k] = m[k]
    out.update((k, (v, "count")) for k, v in counts.items())
    out.update((k, (m[k], "B")) for k in ("report.csv_bytes", "report.render_bytes"))
    out["equilibrium.ms_per_call"] = (
        1e3 * _ratio(m["equilibrium.busy_s"], counts["equilibrium.calls"]), "ms")
    out["stability.hopf_found_frac"] = (
        _ratio(m["stability.hopf_found"], m["calls.pipeline.first_hopf"]), "frac")
    out["simulation.us_per_step"] = (
        1e6 * _ratio(m["simulation.integrate_s"], m["simulation.steps"]), "us")
    out["simulation.us_per_interval"] = (
        1e6 * _ratio(m["simulation.integrate_s"], m["simulation.intervals"]), "us")
    out["report.csv_mb_per_s"] = (
        _ratio(m["report.csv_bytes"] / 1e6, m["report.csv_s"]), "MB/s")
    out["calib.kernel_ms"] = (1e3 * statistics.median(runner.kernels), "ms")
    out["calib.raw_wall_s"] = (sum(statistics.median(st.raw) for st in runner.states
                                   if st.raw), "s")
    traced = sum(statistics.median(st.traced_cal) for st in done)
    untraced = sum(statistics.median(st.cal) for st in done)
    out["trace.overhead_frac"] = (_ratio(traced, untraced) - 1.0, "frac")
    return out


def _write_spans(runner: Runner, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent, s.op] for s in runner.tracer.spans], fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    frozen = {}
    if args.seed == workloads.DEFAULT_SEED:
        with open(FROZEN, encoding="utf-8") as fh:
            frozen = json.load(fh)[args.workload]
    runner = Runner(cli, workloads.build(args.workload, args.seed), frozen)
    warm = os.path.join(WORK, "warmup.cfg")
    with open(warm, "w", encoding="utf-8") as fh:
        fh.write("sim.t_end = 300\n")
    cli.main(["--config", warm, "--paper-case", "n2", "--out", os.path.join(WORK, "warmup")])

    # probes run after the timed loop, inside the measured time
    probe_s = 0.0 if args.trace else len(runner.probes) * calib.raw_limit(
        BUDGET_S, runner.kernel)
    loop_s = max(args.seconds - probe_s, 1.0)
    setup = [setup_sample()]
    spacing = loop_s / SETUP_SAMPLES
    t_start = last_sample = time.perf_counter()
    rounds = 0
    while True:
        for st in runner.states:
            if st.stopped:
                continue
            modes = [False, True] if args.trace else [False]
            for traced in (modes if rounds % 2 == 0 else modes[::-1]):
                if not st.stopped:
                    runner.execute(st, traced)
            if time.perf_counter() - last_sample >= spacing:
                setup.append(setup_sample())
                last_sample = time.perf_counter()
        rounds += 1
        if time.perf_counter() - t_start >= loop_s:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    runner.finish(runner.states)

    metrics = per_layer(runner, args.workload) if args.trace else end_to_end(runner, setup)
    if args.trace:
        _write_spans(runner, os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"))
    else:
        for st in runner.probes:
            runner.execute(st, traced=False)
        runner.finish(runner.probes)
    for st in runner.states + runner.probes:
        shutil.rmtree(st.outdir, ignore_errors=True)

    print(f"machine: {_machine()}")
    print(f"workload: {args.workload} seed={args.seed} rounds={rounds} "
          f"budget={BUDGET_S} cal s per preset op")
    for st in runner.states + runner.probes:
        if st.op.probe and not st.executions:
            continue
        med = statistics.median(st.cal) if st.cal else float("nan")
        kind = "probe" if st.op.probe else "op"
        print(f"{kind} {st.op.name}: {st.failure or 'ok'}; runs={st.executions} "
              f"median={med:.4f} cal s")
    for problem in runner.check_failures[:20]:
        print(f"check failed: {problem}")
    attempted = sum(st.executions for st in runner.states)
    print(json.dumps({
        "correct": not runner.check_failures,
        "attempted": attempted,
        "failed": sum(st.failed_runs for st in runner.states),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
