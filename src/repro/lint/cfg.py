"""Intraprocedural control-flow graphs over function ASTs.

The lock-discipline and API-misuse rules need path information that a
flat AST walk cannot give ("does every path from a successful
``try_acquire`` reach a ``release``?").  This module builds a small,
conservative CFG per function:

* basic blocks hold statement ASTs in execution order;
* ``if``/``while`` branch edges are labelled ``"true"``/``"false"`` and
  carry the governing test expression, so a dataflow pass can refine
  facts per branch (the trylock rule keys on this);
* ``for`` loops get an ``"iter"`` edge into the body and an
  ``"exhausted"`` edge past it, plus the back edge;
* ``break``/``continue``/``return``/``raise`` are resolved to real
  edges — ``return`` to the normal exit, ``raise`` to a separate error
  exit so crash paths can be excluded from leak checks;
* ``finally`` bodies are *inlined* on every abrupt path (return /
  break / continue / raise) as well as on the normal one, so a
  ``try/finally: lock.release()`` is visible on each path that runs it;
* every block inside a ``try`` body gets a conservative ``"except"``
  edge to each handler (any statement may raise).

The graph is deliberately approximate — it over-connects exception
edges and ignores implicit exceptions outside ``try`` — which keeps the
rules' dataflow simple while erring toward *not* reporting on paths
that cannot be ruled out.  :func:`forward_dataflow` is the one fixpoint
solver the rules run over it, and :func:`solve_and_report` the one
reporting sweep after it.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Tuple


class Block:
    """A straight-line sequence of statements with labelled out-edges."""

    __slots__ = ("id", "stmts", "succs", "preds", "branch")

    def __init__(self, bid: int):
        self.id = bid
        self.stmts: List[ast.stmt] = []
        #: outgoing edges as (successor, label); label is "" for plain
        #: flow, "true"/"false" for branch edges, "iter"/"exhausted"
        #: for for-loops, "except" for conservative handler edges
        self.succs: List[Tuple["Block", str]] = []
        self.preds: List[Tuple["Block", str]] = []
        #: the governing test expression when this block ends in a
        #: conditional branch (``if``/``while`` test)
        self.branch: Optional[ast.expr] = None

    def add_edge(self, succ: "Block", label: str = "") -> None:
        self.succs.append((succ, label))
        succ.preds.append((self, label))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        out = ", ".join(f"{s.id}:{lbl or '-'}" for s, lbl in self.succs)
        return f"<Block {self.id} stmts={len(self.stmts)} -> [{out}]>"


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, func: ast.AST):
        self.func = func
        self.blocks: List[Block] = []
        self.entry = self.new_block()
        #: normal termination: explicit returns and falling off the end
        self.exit = self.new_block()
        #: exceptional termination: uncaught ``raise``
        self.error_exit = self.new_block()

    def new_block(self) -> Block:
        b = Block(len(self.blocks))
        self.blocks.append(b)
        return b


class _LoopFrame:
    __slots__ = ("break_target", "continue_target")

    def __init__(self, break_target: Block, continue_target: Block):
        self.break_target = break_target
        self.continue_target = continue_target


def _is_const_true(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and bool(expr.value) is True


class _Builder:
    """Builds a :class:`CFG`; one instance per function."""

    def __init__(self, func: ast.AST):
        self.cfg = CFG(func)
        # innermost-last stacks of loop frames and pending finally bodies
        self._loops: List[_LoopFrame] = []
        self._finallies: List[List[ast.stmt]] = []

    def build(self) -> CFG:
        end = self._visit_body(self.cfg.func.body, self.cfg.entry)
        if end is not None:
            end.add_edge(self.cfg.exit)
        return self.cfg

    # ------------------------------------------------------------------ #

    def _visit_body(
        self, body: List[ast.stmt], cur: Optional[Block]
    ) -> Optional[Block]:
        """Thread ``body`` starting from ``cur``; returns the block the
        body falls out of, or None when every path left abruptly."""
        for stmt in body:
            if cur is None:
                # unreachable code after return/raise/break — keep
                # building in a detached block so rules still see the
                # statements, but do not reconnect it
                cur = self.cfg.new_block()
            cur = self._visit_stmt(stmt, cur)
        return cur

    def _visit_stmt(self, stmt: ast.stmt, cur: Block) -> Optional[Block]:
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, cur)
        if isinstance(stmt, ast.While):
            return self._visit_while(stmt, cur)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._visit_for(stmt, cur)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, cur)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            cur.stmts.append(stmt)
            return self._visit_body(stmt.body, cur)
        if isinstance(stmt, ast.Return):
            cur.stmts.append(stmt)
            tail = self._inline_finallies(cur, len(self._finallies))
            tail.add_edge(self.cfg.exit)
            return None
        if isinstance(stmt, ast.Raise):
            cur.stmts.append(stmt)
            tail = self._inline_finallies(cur, len(self._finallies))
            tail.add_edge(self.cfg.error_exit)
            return None
        if isinstance(stmt, ast.Break):
            if self._loops:
                tail = self._inline_finallies(cur, self._loop_finally_depth())
                tail.add_edge(self._loops[-1].break_target)
            return None
        if isinstance(stmt, ast.Continue):
            if self._loops:
                tail = self._inline_finallies(cur, self._loop_finally_depth())
                tail.add_edge(self._loops[-1].continue_target)
            return None
        # plain statement (incl. nested function/class defs, which are
        # analysed as their own CFGs by the caller)
        cur.stmts.append(stmt)
        return cur

    # -- compound statements ------------------------------------------- #

    def _visit_if(self, stmt: ast.If, cur: Block) -> Optional[Block]:
        cur.stmts.append(stmt)
        cur.branch = stmt.test
        after = self.cfg.new_block()
        then_entry = self.cfg.new_block()
        cur.add_edge(then_entry, "true")
        then_end = self._visit_body(stmt.body, then_entry)
        if then_end is not None:
            then_end.add_edge(after)
        if stmt.orelse:
            else_entry = self.cfg.new_block()
            cur.add_edge(else_entry, "false")
            else_end = self._visit_body(stmt.orelse, else_entry)
            if else_end is not None:
                else_end.add_edge(after)
        else:
            cur.add_edge(after, "false")
        return after if after.preds else None

    def _visit_while(self, stmt: ast.While, cur: Block) -> Optional[Block]:
        header = self.cfg.new_block()
        cur.add_edge(header)
        header.stmts.append(stmt)
        header.branch = stmt.test
        body_entry = self.cfg.new_block()
        after = self.cfg.new_block()
        header.add_edge(body_entry, "true")
        if not _is_const_true(stmt.test):
            if stmt.orelse:
                else_entry = self.cfg.new_block()
                header.add_edge(else_entry, "false")
                else_end = self._visit_body(stmt.orelse, else_entry)
                if else_end is not None:
                    else_end.add_edge(after)
            else:
                header.add_edge(after, "false")
        self._loops.append(_LoopFrame(after, header))
        body_end = self._visit_body(stmt.body, body_entry)
        self._loops.pop()
        if body_end is not None:
            body_end.add_edge(header)
        return after if after.preds else None

    def _visit_for(self, stmt: ast.stmt, cur: Block) -> Optional[Block]:
        header = self.cfg.new_block()
        cur.add_edge(header)
        header.stmts.append(stmt)
        body_entry = self.cfg.new_block()
        after = self.cfg.new_block()
        header.add_edge(body_entry, "iter")
        if stmt.orelse:
            else_entry = self.cfg.new_block()
            header.add_edge(else_entry, "exhausted")
            else_end = self._visit_body(stmt.orelse, else_entry)
            if else_end is not None:
                else_end.add_edge(after)
        else:
            header.add_edge(after, "exhausted")
        self._loops.append(_LoopFrame(after, header))
        body_end = self._visit_body(stmt.body, body_entry)
        self._loops.pop()
        if body_end is not None:
            body_end.add_edge(header)
        return after

    def _visit_try(self, stmt: ast.Try, cur: Block) -> Optional[Block]:
        has_finally = bool(stmt.finalbody)
        if has_finally:
            self._finallies.append(stmt.finalbody)
        first = len(self.cfg.blocks)
        try_entry = self.cfg.new_block()
        cur.add_edge(try_entry)
        try_end = self._visit_body(stmt.body, try_entry)
        try_region = self.cfg.blocks[first:]

        after = self.cfg.new_block()
        handler_ends: List[Optional[Block]] = []
        for handler in stmt.handlers:
            h_entry = self.cfg.new_block()
            if handler.type is not None:
                h_entry.stmts.append(ast.Expr(value=handler.type))
            # conservatively: any block of the try region may raise into
            # this handler
            for b in try_region:
                b.add_edge(h_entry, "except")
            handler_ends.append(self._visit_body(handler.body, h_entry))

        # else clause runs only when the try body completed normally
        if try_end is not None and stmt.orelse:
            try_end = self._visit_body(stmt.orelse, try_end)

        if has_finally:
            self._finallies.pop()
            fin_entry = self.cfg.new_block()
            if try_end is not None:
                try_end.add_edge(fin_entry)
            for h_end in handler_ends:
                if h_end is not None:
                    h_end.add_edge(fin_entry)
            if not stmt.handlers:
                # no handlers: an exception in the body still runs the
                # finally before propagating
                for b in try_region:
                    b.add_edge(fin_entry, "except")
            fin_end = self._visit_body(stmt.finalbody, fin_entry)
            if fin_end is not None:
                fin_end.add_edge(after)
                if not stmt.handlers:
                    fin_end.add_edge(self.cfg.error_exit, "except")
        else:
            if try_end is not None:
                try_end.add_edge(after)
            for h_end in handler_ends:
                if h_end is not None:
                    h_end.add_edge(after)
        return after if after.preds else None

    # -- abrupt-exit helpers ------------------------------------------- #

    def _loop_finally_depth(self) -> int:
        """How many pending finallies a break/continue must run.

        Finallies pushed *inside* the current loop run on the way out;
        ones pushed outside it do not.  We approximate by running every
        pending finally — over-running an outer finally is harmless for
        the dataflow rules (it only duplicates statements already on
        the normal path)."""
        return len(self._finallies)

    def _inline_finallies(self, cur: Block, depth: int) -> Block:
        """Append copies of the pending finally bodies (innermost first)
        to the abrupt path leaving ``cur``; returns the final block."""
        for finalbody in reversed(self._finallies[:depth]):
            nxt = self.cfg.new_block()
            cur.add_edge(nxt, "finally")
            saved = self._finallies
            self._finallies = []  # a finally's own aborts are local
            end = self._visit_body(list(finalbody), nxt)
            self._finallies = saved
            if end is None:
                return self.cfg.new_block()  # finally itself aborted
            cur = end
        return cur


def build_cfg(func: ast.AST) -> CFG:
    """The CFG of one ``FunctionDef`` / ``AsyncFunctionDef``."""
    return _Builder(func).build()


def forward_dataflow(cfg: CFG, entry: Dict[str, int], maybe: int,
                     transfer: Callable, edge: Optional[Callable] = None
                     ) -> Dict[int, Dict[str, int]]:
    """In-state of every block reachable from ``cfg.entry``.

    A key missing from a state reads as its ``entry`` value.
    ``transfer(block, state)`` returns a new out-state, which
    ``edge(block, label, out)`` may refine per edge.  States join per
    key: equal values stay, others become ``maybe``.
    """
    in_states: Dict[int, Dict[str, int]] = {cfg.entry.id: entry}
    for _round in range(len(cfg.blocks) * 4 + 8):
        changed = False
        for block in cfg.blocks:
            if block.id not in in_states:
                continue
            out = transfer(block, in_states[block.id])
            for succ, label in block.succs:
                es = out if edge is None else edge(block, label, out)
                cur = in_states.get(succ.id)
                if cur is None:
                    in_states[succ.id] = dict(es)
                    changed = True
                    continue
                merged = {}
                for k, v in entry.items():
                    a, b = cur.get(k, v), es.get(k, v)
                    merged[k] = a if a == b else maybe
                if merged != cur:
                    in_states[succ.id] = merged
                    changed = True
        if not changed:
            break
    return in_states


def solve_and_report(cfg: CFG, entry: Dict[str, int], maybe: int,
                     transfer: Callable, edge: Optional[Callable] = None
                     ) -> Tuple[Dict[int, Dict[str, int]], List[tuple]]:
    """:func:`forward_dataflow`, then one reporting sweep.

    ``transfer(block, state, report)`` returns the out-state and, when
    ``report`` is a list, appends its findings ``(node, rule_id, ...)``.
    The fixpoint runs it with ``report=None``; the sweep then runs each
    reachable block once from its stable in-state, so a loop reports
    once.  Findings are kept once per (line, column, rule): a ``finally``
    body inlined on several paths repeats its nodes.  Returns the
    in-states and the findings."""
    in_states = forward_dataflow(
        cfg, entry, maybe,
        lambda block, state: transfer(block, state, None), edge)
    findings: List[tuple] = []
    seen = set()
    for block in cfg.blocks:
        if block.id not in in_states:
            continue
        local: List[tuple] = []
        transfer(block, in_states[block.id], local)
        for finding in local:
            node = finding[0]
            key = (getattr(node, "lineno", 0),
                   getattr(node, "col_offset", 0), finding[1])
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    return in_states, findings


def function_defs(tree: ast.Module):
    """Yield every function definition in ``tree`` (including methods
    and nested functions), shallowest first."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        stack.extend(ast.iter_child_nodes(node))
