"""Command-line front end.

    decaylab run <config>         run one scenario file (or preset name)
    decaylab suite <dir>          run every *.ini / *.cfg in a directory
    decaylab presets              list shipped presets (--write DIR to dump)
    decaylab verify-weights       constant identities + weight inequalities
    decaylab fit <csv>            refit a persisted series

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 execution error.
DECAYLAB_OUT sets the default output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import decay, functionals, presets, scenarios

__all__ = ["main"]


def _workers(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="decaylab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output directory (default $DECAYLAB_OUT or .)")
    common.add_argument("--margin", type=float, default=None,
                        help="set [scenario] margin, the verdict margin")
    common.add_argument("--practical-b", type=float, default=None, dest="practical_b",
                        help="set [weights] practical_b, the log-fit offset")

    p_run = sub.add_parser("run", parents=[common],
                           help="run one scenario config or preset")
    p_run.add_argument("config", help="config path, literal text, or preset name")

    p_suite = sub.add_parser("suite", parents=[common],
                             help="run all configs in a directory")
    p_suite.add_argument("directory")
    p_suite.add_argument("--parallel", type=_workers, default=1,
                         help="threads for scenarios on large grids; smaller "
                              "ones run one at a time on the main thread")

    p_presets = sub.add_parser("presets", help="list or dump shipped presets")
    p_presets.add_argument("--write", default=None, metavar="DIR",
                           help="write every preset as DIR/<name>.ini")

    p_vw = sub.add_parser("verify-weights",
                          help="constant identities and weight inequalities")
    p_vw.add_argument("--seed", type=int, default=None, help="set [scenario] seed")
    p_vw.add_argument("--pairs", type=int, default=None, help="set [weights] pairs")
    p_vw.add_argument("--families", type=int, default=None,
                      help="set [weights] families")

    p_fit = sub.add_parser("fit", help="fit a decay model to a series CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--model", required=True, choices=decay._MODELS)
    p_fit.add_argument("--b", type=float, default=None,
                       help="offset b (LogDecay)")
    p_fit.add_argument("--R", type=float, default=None,
                       help="support radius R (CompactDecay)")
    p_fit.add_argument("--window", required=True, metavar="LO:HI")
    return ap


def _load_config_arg(arg: str) -> scenarios.ScenarioConfig:
    if arg in presets.CATALOG:
        return presets.load(arg)
    if "\n" not in arg and not Path(arg).is_file():
        raise scenarios.ConfigError(f"{arg!r} is neither a preset nor a file; "
                                    f"presets: {', '.join(presets.names())}")
    return scenarios.load_config(arg)


def _with_flags(cfg: scenarios.ScenarioConfig, args,
                flags=("margin", "practical_b")) -> scenarios.ScenarioConfig:
    """`cfg` with those of `flags` that were given applied, checked like a load."""
    given = {k: getattr(args, k) for k in flags}
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _exit_code(reports) -> int:
    if any(r.failed for r in reports):
        return 2
    if any(not r.all_pass for r in reports):
        return 1
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (scenarios.ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        cfg = _with_flags(_load_config_arg(args.config), args)
        report = scenarios.run_scenario(cfg, args.out)
        print(json.dumps(_summary(report), indent=2, sort_keys=True))
        return _exit_code([report])

    if args.command == "suite":
        root = Path(args.directory)
        paths = sorted(list(root.glob("*.ini")) + list(root.glob("*.cfg")))
        if not paths:
            print(f"error: no *.ini or *.cfg configs under {root}",
                  file=sys.stderr)
            return 2
        configs = [_with_flags(scenarios.load_config(p), args) for p in paths]
        reports = scenarios.run_suite(configs, args.parallel, args.out)
        for rep in reports:
            print(json.dumps(_summary(rep), sort_keys=True))
        return _exit_code(reports)

    if args.command == "presets":
        if args.write:
            outdir = Path(args.write)
            outdir.mkdir(parents=True, exist_ok=True)
            for name in presets.names():
                (outdir / f"{name}.ini").write_text(presets.get(name))
            print(f"wrote {len(presets.CATALOG)} presets to {outdir}")
        else:
            for name in presets.names():
                print(name)
        return 0

    if args.command == "verify-weights":
        cfg = _with_flags(replace(presets.load("weight-suite"), name="verify-weights"),
                          args, ("seed", "pairs", "families"))
        report = scenarios.run_weight_suite(cfg)
        print(json.dumps(report.payload, indent=2, sort_keys=True))
        return 0 if report.all_pass else 1

    if args.command == "fit":
        lo, _, hi = args.window.partition(":")
        window = (float(lo), float(hi))
        series = functionals.read_series_csv(args.csv)
        for column in ("t", "E"):
            if column not in series:
                raise ValueError(f"{args.csv} has no {column!r} column")
        b_or_R = {"LogDecay": args.b, "PolyDecay": 1.0,
                  "CompactDecay": args.R}[args.model]
        if b_or_R is None:
            raise ValueError(f"{args.model} requires "
                             f"{'--b' if args.model == 'LogDecay' else '--R'}")
        fit = decay.fit_decay(series["t"], series["E"], args.model, b_or_R, window)
        print(json.dumps(asdict(fit), indent=2, sort_keys=True))
        return 0

    raise AssertionError(args.command)


def _summary(report: scenarios.ScenarioReport) -> dict:
    p = report.payload
    keys = ("error", "defects", "truncation_contamination") + (
        ("verdicts",) if p.get("verdicts") else ())
    return {"name": report.name, "all_pass": report.all_pass,
            "failed": report.failed, **{k: p[k] for k in keys if k in p}}


if __name__ == "__main__":
    sys.exit(main())
