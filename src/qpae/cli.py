"""Command-line interface.

Verbs: run, train, unlearn, evaluate, sequential, synth, report. `run` runs a
scenario and prints its table. `sequential` is `run` of that scenario, kept for
`ManifestCli.session` in perfbench/workloads.py until ROADMAP items 7 and 10.
Exit codes: 0 success, 2 config error (a config that asks for more memory
than the host holds included), 3 IO or parse error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .audio import ManifestError, WavParseError
from .checkpoint import CheckpointError
from .harness import ConfigError, Workspace
from .metrics import ReportError, format_metric
from .model import NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True,
                config_group=None) -> None:
    (config_group or parser).add_argument("--config", required=config_required,
                                          help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--forget", default=None,
                        help="override forget classes, comma-separated ids")


def _parse_forget(text: str) -> list[int]:
    try:
        ids = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--forget must be comma-separated integers: {text!r}") from exc
    if not ids:
        raise ConfigError("--forget must list at least one class id")
    return ids


def _resolve_config(args) -> harness.ExperimentConfig:
    cfg = (harness.load_config(args.config) if args.config is not None
           else harness.default_config(getattr(args, "scenario", None) or "single"))
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "forget", None) is not None:
        cfg.unlearn.forget_set = _parse_forget(args.forget)
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpae",
        description="Class unlearning lab for small audio classifiers")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run a scenario end to end and print its table")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--scenario", choices=harness.SCENARIOS, default=None,
                        help="run this scenario's default config (default: single)")
    _add_common(p, config_required=False, config_group=source)

    p = sub.add_parser("train", help="train the original model and report it")
    _add_common(p)

    p = sub.add_parser("unlearn", help="apply one unlearning method")
    _add_common(p)
    p.add_argument("--method", required=True, choices=sorted(harness.METHOD_IDS),
                   help="qp: the pipeline; ablation_*: its variants; others: baselines")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the held-out split")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--original-report", default=None,
                   help="original-model report JSON, enables PER")

    p = sub.add_parser("sequential", help="run of the sequential scenario, kept for "
                       "perfbench's ManifestCli.session until ROADMAP items 7 and 10")
    _add_common(p)

    p = sub.add_parser("synth", help="write the synthetic dataset as a WAV manifest")
    _add_common(p, config_required=False)

    p = sub.add_parser("report", help="assemble table.md/table.csv from report JSONs")
    p.add_argument("--out", required=True, help="directory holding report_*.json")
    return parser


def _run(args) -> int:
    if args.verb == "report":
        md, csvp = harness.cmd_report(args.out)
        print(f"wrote {md} and {csvp}")
        return EXIT_OK

    cfg = _resolve_config(args)

    if args.verb == "synth":
        out = Path(args.out) if args.out is not None else Path(cfg.output_dir) / "dataset"
        path = harness.cmd_synth(cfg, out)
        print(f"wrote manifest dataset to {path}")
        return EXIT_OK

    if args.verb in ("run", "sequential"):
        if args.verb != "run":
            cfg.scenario = args.verb
        ws = harness.run_scenario(cfg)
        print((ws.out / f"{harness.table_stem(cfg.scenario)}.md").read_text(), end="")
        print(f"artifacts in {ws.out}")
        return EXIT_OK

    if args.verb == "train":
        path, report = harness.cmd_train(Workspace.create(cfg))
        print(f"checkpoint: {path}")
        print(f"original report: FA={format_metric(report.fa)} "
              f"RA={format_metric(report.ra)}")
        return EXIT_OK

    # unlearn and evaluate read and check their inputs before the dataset is
    # built; --out is the directory `train` filled, so it is not made here
    ws = Workspace(cfg)
    if args.verb == "unlearn":
        path, phase_log = harness.cmd_unlearn(ws, args.method)
        print(f"unlearned checkpoint: {path}")
        for entry in phase_log:
            state = "skipped" if entry["skipped"] else f"{entry['wall_ms']:.1f} ms"
            print(f"  {entry['phase']}: FA={format_metric(entry['forget_accuracy'])} "
                  f"RA={format_metric(entry['retain_accuracy'])} ({state})")
    else:
        report = harness.cmd_evaluate(ws, args.model, original_report=args.original_report)
        print(f"FA={format_metric(report.fa)} RA={format_metric(report.ra)} "
              f"IL={report.il:.4f} PER={format_metric(report.per)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite value ends the run as one error line, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy's names the size it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"config error: the config asks for more memory than this host can "
              f"hold{detail}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, CheckpointError, WavParseError, ManifestError, ReportError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
