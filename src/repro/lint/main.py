"""``repro lint`` — the CLI entry point (wired from repro.cli).

Exit codes: 0 clean, 1 findings, 2 usage errors (an unknown ``--rule``
id, or a lint path that does not exist under ``--root``).
"""

from __future__ import annotations

import os
import sys
from typing import Optional

from repro.lint.cache import SummaryCache
from repro.lint.engine import LintConfig, UsageError, run_lint
from repro.lint.report import render_json, render_sarif, render_text

#: default cache location, relative to --root (a benchmarks artifact
#: directory: ignored by git, safe to delete at any time)
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "results", "lint-cache")


def build_config(args) -> LintConfig:
    cfg = LintConfig(root=args.root)
    if args.paths:
        cfg.paths = tuple(args.paths)
    if args.rule:
        cfg.select = tuple(args.rule)
    return cfg


def build_cache(args) -> Optional[SummaryCache]:
    if getattr(args, "no_cache", False):
        return None
    directory = getattr(args, "cache_dir", None) or os.path.join(
        args.root, DEFAULT_CACHE_DIR)
    return SummaryCache(directory)


def main(args) -> int:
    cache = build_cache(args)
    try:
        result = run_lint(build_config(args), cache=cache)
    except UsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if cache is not None:
        # stderr, never stdout: report output must stay byte-identical
        # between cold and warm runs
        print(
            f"lint-cache: {result.cache_hits} hit(s), "
            f"{result.cache_misses} miss(es)",
            file=sys.stderr,
        )

    out: Optional[str] = getattr(args, "out", None)
    if args.format == "json":
        rendered = render_json(result)
    elif args.format == "sarif":
        rendered = render_sarif(result)
    else:
        rendered = render_text(result, verbose=args.verbose) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"{len(result.findings)} finding(s) -> {out}")
    else:
        print(rendered, end="")
    return 1 if result.findings else 0


def add_parser(sub) -> None:
    """Register the ``lint`` subcommand on a subparsers object."""
    p = sub.add_parser(
        "lint",
        help="sim-safety static analysis (determinism, zero-perturbation, "
             "lock discipline)")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default src/repro)")
    p.add_argument("--root", default=".",
                   help="repository root paths are relative to")
    p.add_argument("--strict", action="store_true",
                   help="the CI gate's spelling; every run already fails "
                        "on any finding, unused or reasonless suppression")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    p.add_argument("--rule", action="append", default=None,
                   metavar="ID", help="run only this rule id (repeatable)")
    p.add_argument("--out", default=None,
                   help="write the report to a file instead of stdout")
    p.add_argument("--cache-dir", default=None,
                   help="per-module summary cache directory "
                        f"(default <root>/{DEFAULT_CACHE_DIR})")
    p.add_argument("--no-cache", action="store_true",
                   help="analyse every file from scratch")
    p.add_argument("--verbose", action="store_true",
                   help="also list suppressed findings (text format)")
