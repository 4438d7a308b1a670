"""API-misuse rules (A001–A003).

Misuse patterns that runtime checks catch only when the bad path
executes: a cancelled :class:`~repro.sim.core.Handle` treated as live,
observability objects constructed ad hoc instead of threaded from the
:class:`~repro.kernel.machine.Machine` (which silently forks the
zero-perturbation state), and bare ``except:`` swallowing
``SimulationError`` / ``KeyboardInterrupt`` around scheduler callbacks.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.lint.astutil import expr_key, stmt_header_exprs, walk_shallow
from repro.lint.cfg import build_cfg, function_defs, solve_and_report
from repro.lint.engine import FileContext, Finding, rule

# Handle attributes that remain meaningful after cancel()
_STATUS_ATTRS = {"cancel", "cancelled", "fired"}

LIVE, CANCELLED, MAYBE = 0, 1, 2


def _cancel_key(node: ast.AST):
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cancel"
            and not node.args and not node.keywords):
        return expr_key(node.func.value)
    return None


def _handle_uses(fn: ast.AST) -> List[Tuple[ast.AST, str, str]]:
    """CFG dataflow: attribute uses of a handle after ``.cancel()``."""
    keys: Set[str] = set()
    for node in walk_shallow(fn):
        k = _cancel_key(node)
        if k is not None:
            keys.add(k)
    if not keys:
        return []

    def transfer(block, state, report: Optional[list]):
        state = dict(state)
        for stmt in block.stmts:
            for header in stmt_header_exprs(stmt):
                # order within one header: uses are judged against the
                # state *before* this statement's own cancel runs, which
                # walk order cannot guarantee — so judge uses first
                if report is not None:
                    for node in walk_shallow(header):
                        if (isinstance(node, ast.Attribute)
                                and node.attr not in _STATUS_ATTRS):
                            key = expr_key(node.value)
                            if key in keys and state.get(key) == CANCELLED:
                                report.append((
                                    node, "A001",
                                    f"`{key}.{node.attr}` used after "
                                    f"`{key}.cancel()`: a cancelled "
                                    "Handle never fires again",
                                ))
                for node in walk_shallow(header):
                    k = _cancel_key(node)
                    if k is not None:
                        state[k] = CANCELLED
                # (re)binding the name resurrects it with a fresh handle
                if isinstance(stmt, ast.Assign):
                    for t in stmt.targets:
                        tk = expr_key(t)
                        if tk in keys:
                            state[tk] = LIVE
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    tk = expr_key(stmt.target)
                    if tk in keys:
                        state[tk] = LIVE
        return state

    return solve_and_report(
        build_cfg(fn), {k: LIVE for k in keys}, MAYBE, transfer)[1]


@rule("A001", "handle-after-cancel",
      "scheduled-callback Handle used after cancel()")
def check_handle_after_cancel(ctx: FileContext) -> Iterable[Finding]:
    for fn in function_defs(ctx.tree):
        for node, _rid, msg in _handle_uses(fn):
            yield ctx.finding(
                node, "A001", msg,
                hint="re-arm by scheduling a new callback "
                     "(sim.call_at/call_after) and rebinding the name; "
                     "only .cancelled/.fired remain meaningful",
            )


@rule("A002", "adhoc-observer",
      "tracer=/checks= constructed per call instead of threaded "
      "from the Machine")
def check_adhoc_observer(ctx: FileContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg in ("tracer", "checks") and isinstance(
                    kw.value, ast.Call):
                yield ctx.finding(
                    kw.value, "A002",
                    f"`{kw.arg}=` bound to a fresh object at the call "
                    "site: observability state forks from the Machine's",
                    hint=f"thread machine.{kw.arg} (or pass None); a "
                         "per-call observer sees a private, partial "
                         "event stream",
                )


@rule("A003", "bare-except",
      "bare except: around simulated work")
def check_bare_except(ctx: FileContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ctx.finding(
                node, "A003",
                "bare `except:` catches SimulationError and "
                "KeyboardInterrupt alike, hiding scheduler faults",
                hint="catch the narrowest exception that the callback "
                     "can actually raise (or `except Exception` at worst)",
            )
