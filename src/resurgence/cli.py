"""Command-line front end: resurgence --config job.json [--out PATH] ..."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .jobs import BUILTIN_DEFAULTS, emit, exit_status, parse_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resurgence",
        description="Compute resurgence numbers, skew Waldschmidt constants, and "
                    "containment sequences for graded families of monomial ideals.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON job description")
    parser.add_argument("--out", help="output path (default: from config, else stdout)")
    parser.add_argument("--format", choices=("json", "csv"), help="report format override")
    parser.add_argument("--window", type=int, help="default window override")
    parser.add_argument("--cutoff", type=int, help="default search cutoff override")
    parser.add_argument("--kmax", type=int, help="default Veronese search bound override")
    parser.add_argument("--horizon", type=int, help="default validation horizon override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    # precedence: flag > config > builtin default
    config.defaults.update((key, value) for key, value in vars(args).items()
                           if key in BUILTIN_DEFAULTS and value is not None)
    out_format = args.format or config.output_format
    report = run(config)

    out_path = args.out or config.output_path
    if out_path is None:
        stem = "report"
        files = emit(report, out_format, stem)
        for name in sorted(files):
            sys.stdout.write(files[name].decode("utf-8"))
    else:
        target = Path(out_path)
        stem = target.name
        for suffix in (".json", ".csv"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        files = emit(report, out_format, stem)
        target.parent.mkdir(parents=True, exist_ok=True)
        for name in sorted(files):
            (target.parent / name).write_bytes(files[name])
        written = ", ".join(sorted(files))
        print(f"wrote {written} in {target.parent}", file=sys.stderr)
    return exit_status(report)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
