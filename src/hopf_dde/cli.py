"""Command-line entry point.

    analyze --config FILE [--out DIR] [--paper-case NAME]

Runs the full analysis described by the configuration (or one of the
named parameter presets) and writes `report.txt` plus, when a simulation
ran, `trajectory.csv` and `phase.csv` into the output directory. Each
run's (each sweep point's) CSVs are written as soon as it is simulated,
and its arrays are then released; `report.txt` is written after the last
run. Output bytes are deterministic for a given input. A process that
calls main more than once (a script, a benchmark loop) builds the
argument parser on the first call and reuses it.

Exit codes: 0 success, 1 configuration error (an unknown option
included), 2 numerical failure, 3 I/O failure. With HOPF_DDE_LOG=info or
=debug (any case) each stage writes an `INFO hopf_dde: <message>` line
to stderr; unset or any other value writes nothing. There is no
`hopf_dde` logger.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import AnalysisConfig, load_config
from .errors import ConfigError, NumericalError
from .model import PRESETS
from .pipeline import RunResult, deferred, progress, run_analysis
from .report import render_report

# main calls these module names, which a tracer can wrap
write_trajectory_csv = deferred(".csv_output", "write_trajectory_csv")
write_phase_csv = deferred(".csv_output", "write_phase_csv")


class _Parser(argparse.ArgumentParser):
    # usage problems should exit 1 with the other config errors, not
    # argparse's default 2 (reserved for numerical failures)
    def error(self, message):
        raise ConfigError(message)


# built on the first call, not at import, and shared by later calls in the
# process: parse_args leaves the parser as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `analyze` argument parser; callers share one and must not modify it."""
    ps = _Parser(prog="analyze",
                 description="Hopf bifurcation analysis of the delayed "
                             "P53-MDM2 feedback model")
    ps.add_argument("--config", help="path to a key = value configuration file")
    ps.add_argument("--out", default=".", help="output directory (default: .)")
    ps.add_argument("--paper-case", choices=sorted(PRESETS),
                    help="named parameter preset; overrides the model block")
    return ps


def _label_slug(label: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "._-") else "_" for ch in label)


def _write_csvs(out: str, run: RunResult, runs: int) -> None:
    """One run's trajectory and phase CSVs, named for the run's label when
    the analysis has more than one run."""
    suffix = f"_{_label_slug(run.label)}" if (runs > 1 and run.label) else ""
    for br in run.branches:
        if br.sim is None:
            continue
        traj = br.sim.trajectory
        tpath = os.path.join(out, f"trajectory{suffix}.csv")
        ppath = os.path.join(out, f"phase{suffix}.csv")
        # phase.csv's y1, y2 text is formatted once, for both files
        write_trajectory_csv(tpath, traj,
                             lambda chunks: write_phase_csv(ppath, chunks))
        progress("wrote %s, %s", tpath, ppath)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else AnalysisConfig()
        if args.paper_case:
            cfg = cfg._replace(params=PRESETS[args.paper_case], sweep=None)
        if cfg.params is None:
            raise ConfigError("no model parameters: pass --config with a "
                              "model block or --paper-case")
        os.makedirs(args.out, exist_ok=True)
        results = run_analysis(cfg, on_run=functools.partial(_write_csvs, args.out))
        report_path = os.path.join(args.out, "report.txt")
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_report(results, cfg))
        progress("wrote %s", report_path)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
