"""repro.lint — sim-safety static analysis (docs/LINT.md).

A from-scratch AST + CFG analyzer enforcing the contracts the
reproduction's determinism rests on:

* **D0xx determinism** — randomness only via named ``sim/rng.py``
  streams, no wall clock in the simulated world, no hash-order
  iteration feeding the simulator, no id()-based ordering;
* **P0xx zero-perturbation** — trace/metrics/check observe, never
  mutate, and never draw randomness;
* **L0xx lock discipline** — every path from a successful
  ``try_acquire`` releases before function exit, and never releases
  unheld (paper §3.2's queue-sharing trylock); one CFG dataflow
  serves both these rules and the per-function lock summaries that
  carry them across calls;
* **A0xx API misuse** — cancelled Handles, ad-hoc ``tracer=``/
  ``checks=`` objects, bare ``except:``.

Run it with ``repro lint [--strict] [--format text|json|sarif]``: exit 1
on any finding, 2 on an unknown ``--rule`` or a missing path.  A
reviewed exception is an inline ``# repro: allow[rule-id] reason``
comment.
"""

from repro.lint.engine import (  # noqa: F401
    RULES,
    FileContext,
    Finding,
    LintConfig,
    LintResult,
    lint_file,
    run_lint,
)
from repro.lint.main import main  # noqa: F401
from repro.lint.report import render_json, render_sarif, render_text  # noqa: F401

__all__ = [
    "RULES", "FileContext", "Finding", "LintConfig", "LintResult",
    "lint_file", "run_lint", "render_text", "render_json",
    "render_sarif", "main",
]
