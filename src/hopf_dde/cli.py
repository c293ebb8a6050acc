"""Command-line entry point.

    analyze --config FILE [--out DIR] [--workers N] [--paper-case NAME]

Runs the full analysis described by the configuration (or one of the
named parameter presets) and writes `report.txt` plus, when a simulation
ran, `trajectory.csv` and `phase.csv` into the output directory. Output
bytes are deterministic for a given input.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O failure. Set HOPF_DDE_LOG=info or =debug for progress logging on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .config import AnalysisConfig, load_config
from .errors import ConfigError, NumericalError
from .model import PRESETS
from .pipeline import run_analysis
from .report import render_report, write_phase_csv, write_trajectory_csv

log = logging.getLogger("hopf_dde")


class _Parser(argparse.ArgumentParser):
    # usage problems should exit 1 with the other config errors, not
    # argparse's default 2 (reserved for numerical failures)
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ps = _Parser(prog="analyze",
                 description="Hopf bifurcation analysis of the delayed "
                             "P53-MDM2 feedback model")
    ps.add_argument("--config", help="path to a key = value configuration file")
    ps.add_argument("--out", default=".", help="output directory (default: .)")
    ps.add_argument("--workers", type=int, default=1,
                    help="accepted for compatibility, must be >= 1; has no "
                         "effect (sweep points run serially)")
    ps.add_argument("--paper-case", choices=sorted(PRESETS),
                    help="named parameter preset; overrides the model block")
    return ps


def _setup_logging() -> None:
    level_name = os.environ.get("HOPF_DDE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        level_name = "error"
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(levels[level_name])


def _label_slug(label: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "._-") else "_" for ch in label)


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_config(args.config) if args.config else AnalysisConfig()
        if args.paper_case:
            cfg = dataclasses.replace(cfg, params=PRESETS[args.paper_case],
                                      sweep=None)
        if cfg.params is None:
            raise ConfigError("no model parameters: pass --config with a "
                              "model block or --paper-case")
        results = run_analysis(cfg, workers=args.workers)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3

    try:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.txt")
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_report(results, cfg))
        log.info("wrote %s", report_path)
        multi = len(results) > 1
        for run in results:
            suffix = f"_{_label_slug(run.label)}" if (multi and run.label) else ""
            for br_index, br in enumerate(run.branches):
                if br.sim is None:
                    continue
                eq_suffix = f"_eq{br_index}" if len(run.branches) > 1 else ""
                traj = br.sim.trajectory
                tpath = os.path.join(args.out, f"trajectory{suffix}{eq_suffix}.csv")
                ppath = os.path.join(args.out, f"phase{suffix}{eq_suffix}.csv")
                write_trajectory_csv(tpath, traj)
                write_phase_csv(ppath, traj)
                log.info("wrote %s, %s", tpath, ppath)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
