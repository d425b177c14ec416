"""Command-line entry point.

Four subcommands: ``run`` executes a scenario file, ``reproduce`` runs one of
the canned figure scenarios, ``oracle`` runs a scenario file that must be of
the cross-validation kind, and ``constants`` prints the unit system.  One
scenario per process; exit codes are 0 (success), 2 (schema error), 3
(physics error), 4 (i/o error).

A process started from the command line (``main()`` with no arguments) runs
without the cyclic garbage collector: it is disabled before ``scenarios`` and
numpy are imported, and everything still alive is frozen when ``main``
returns, so interpreter exit does not sweep the heap either.  The artifacts
are written and closed by then.  ``main(argv)`` leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import PolaritonError, SchemaError, __version__

if TYPE_CHECKING:
    from .scenarios import ScenarioRun

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    from .scenarios import FIGURE_IDS

    parser = argparse.ArgumentParser(
        prog="polariton-lab",
        description="Coupled-oscillator models of ultrastrong light-matter coupling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file and write its artifacts")
    p_run.add_argument("scenario", help="path to a YAML scenario file")
    p_run.add_argument("--out", default=None, metavar="DIR", help="directory for relative output paths")

    p_rep = sub.add_parser("reproduce", help="run a canned figure scenario")
    p_rep.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    p_rep.add_argument("--out", default=".", metavar="DIR", help="output directory (default: current)")

    p_orc = sub.add_parser("oracle", help="run a cross-validation scenario file")
    p_orc.add_argument("scenario", help="path to a YAML scenario file of kind 'oracle'")
    p_orc.add_argument("--out", default=None, metavar="DIR", help="directory for relative output paths")

    sub.add_parser("constants", help="print the unit system used throughout")
    return parser


def _report(run: ScenarioRun) -> None:
    print(f"wrote {run.csv_path}")
    if run.svg_path is not None:
        print(f"wrote {run.svg_path}")
    print(f"wrote {run.summary_path}")


def _cmd_run(args) -> int:
    from .scenarios import run_scenario_file

    _report(run_scenario_file(args.scenario, out_dir=args.out))
    return 0


def _cmd_reproduce(args) -> int:
    from .scenarios import reproduce_figure

    _report(reproduce_figure(args.figure_id, out_dir=args.out))
    return 0


def _cmd_oracle(args) -> int:
    from .scenarios import load_scenario_file, run_scenario_document

    document, raw = load_scenario_file(args.scenario)
    kind = document.get("kind") if isinstance(document, dict) else None
    if kind != "oracle":
        raise SchemaError("kind", f"the oracle command requires kind 'oracle', got {kind!r}")
    run = run_scenario_document(
        document,
        source_name=str(args.scenario),
        input_bytes=raw,
        out_dir=args.out,
        default_stem=Path(args.scenario).stem,
    )
    _report(run)
    return 0


def _cmd_constants(args) -> int:
    from dataclasses import asdict

    from .units import UNITS

    for name, value in asdict(UNITS).items():
        print(f"{name} = {value:.17g}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "reproduce": _cmd_reproduce,
    "oracle": _cmd_oracle,
    "constants": _cmd_constants,
}


def main(argv=None) -> int:
    # a one-shot process: no collections while it imports and runs, and
    # none over its heap at exit
    process_entry = argv is None
    if process_entry:
        gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except PolaritonError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        if process_entry:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
