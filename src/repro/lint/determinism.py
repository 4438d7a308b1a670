"""Determinism rules (D001–D006).

The whole reproduction is a deterministic discrete-event simulation:
same seed, same packet-for-packet run.  That holds only if (a) every
random draw flows through the named streams of :mod:`repro.sim.rng`,
(b) nothing in the simulated world reads the wall clock, and (c) no
iteration order that feeds the simulator depends on hashing or object
identity.  D001–D004 enforce each leg statically within one file.

D005/D006 close the wrapper loophole with the propagated summaries:
D002 cannot see a sim component calling a ``bench/`` helper that reads
``time.perf_counter`` (the helper's file is allowlisted), and D001
cannot see a call into a wrapper that draws raw RNG one file away.
Both rules fire exactly at the boundary-crossing call site — the
callee's own callers are not re-flagged, so one leak yields one
finding, with the chain pointing at the underlying clock read / draw.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.lint.astutil import ImportMap, call_attr, dotted_name, target_root
from repro.lint.engine import (
    FileContext,
    Finding,
    ProgramContext,
    program_rule,
    rule,
)

#: time.* members that read or wait on the wall clock
_WALLCLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
    "clock_gettime", "clock_gettime_ns",
}
#: datetime constructors that capture "now"
_WALLCLOCK_DATETIME = {
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: method names whose call inside a loop body means the loop drives the
#: simulation (scheduling, RNG draws, thread/timer control)
_EFFECT_METHODS = {
    "call_at", "call_after", "succeed", "schedule",
    "spawn", "stream", "numpy_stream", "wake", "wake_all", "arm",
    "cancel", "start_thread", "sleep", "fire", "inject",
    "push", "pop", "enqueue", "dequeue", "rx_burst", "tx_burst",
    "release", "try_acquire",
}


@rule("D001", "raw-rng",
      "raw RNG constructed or drawn outside sim/rng.py")
def check_raw_rng(ctx: FileContext) -> Iterable[Finding]:
    if ctx.is_rng_module:
        return
    imports = ImportMap(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        path = imports.resolve_call(node.func)
        if path is None:
            continue
        if path == "random" or path.startswith("random."):
            yield ctx.finding(
                node, "D001",
                f"raw stdlib RNG call `{path}` outside sim/rng.py",
                hint="draw from a named stream: "
                     "machine.streams.stream('<component>')",
            )
        elif path.startswith("numpy.random.") or path == "numpy.random":
            yield ctx.finding(
                node, "D001",
                f"raw numpy RNG call `{path}` outside sim/rng.py",
                hint="use machine.streams.numpy_stream('<component>')",
            )


@rule("D002", "wall-clock",
      "wall-clock read/sleep inside the simulated world")
def check_wallclock(ctx: FileContext) -> Iterable[Finding]:
    if ctx.wallclock_allowed:
        return
    imports = ImportMap(ctx.tree)
    # flag `from time import sleep`-style imports at the import site:
    # the name leaks into the module namespace ready to be called
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = [a.name for a in node.names if a.name in _WALLCLOCK_TIME]
            if bad:
                yield ctx.finding(
                    node, "D002",
                    f"imports wall-clock symbol(s) {', '.join(sorted(bad))} "
                    "from `time` inside the simulated world",
                    hint="simulated components read machine.sim.now; only "
                         "campaign/ and tools/ live in wall-clock time",
                )
        if not isinstance(node, ast.Call):
            continue
        path = imports.resolve_call(node.func)
        if path is None:
            continue
        mod, _, attr = path.partition(".")
        if mod == "time" and attr in _WALLCLOCK_TIME:
            yield ctx.finding(
                node, "D002",
                f"wall-clock call `{path}` inside the simulated world",
                hint="use machine.sim.now / sim timeouts; wall-clock time "
                     "is only legitimate under campaign/ and tools/",
            )
        elif path in _WALLCLOCK_DATETIME:
            yield ctx.finding(
                node, "D002",
                f"wall-clock call `{path}` inside the simulated world",
                hint="derive timestamps from machine.sim.now",
            )


def _unordered_iterable(node: ast.expr) -> Optional[str]:
    """Why iterating ``node`` directly is hash/insertion-order
    dependent, or None when it is ordered."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return f"{fn.id}(...)"
        if isinstance(fn, ast.Attribute) and fn.attr in (
            "keys", "values", "items"
        ):
            return f"dict .{fn.attr}() view"
        if isinstance(fn, ast.Attribute) and fn.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return f"set .{fn.attr}() result"
    return None


def _body_effects(body: List[ast.stmt], params: Set[str]) -> Optional[str]:
    """Does this loop body drive the simulator / mutate sim state?
    Returns a short description of the first effect found."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yields into the simulator"
            attr = call_attr(node)
            if attr in _EFFECT_METHODS:
                return f"calls .{attr}()"
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    if isinstance(t, (ast.Attribute, ast.Subscript)):
                        root = target_root(t)
                        if root is not None and root in params:
                            return f"mutates state on `{root}`"
    return None


@rule("D003", "unordered-iter",
      "hash-order iteration driving the simulator or mutating sim state")
def check_unordered_iteration(ctx: FileContext) -> Iterable[Finding]:
    # collect the parameter names of each enclosing function so that
    # "mutates sim state" can distinguish objects handed in from
    # locals built inside the loop
    func_params: List[tuple] = []  # (func node, params)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = {a.arg for a in node.args.args}
            params |= {a.arg for a in node.args.posonlyargs}
            params |= {a.arg for a in node.args.kwonlyargs}
            params.add("self")
            func_params.append((node, params))

    def params_for(n: ast.AST) -> Set[str]:
        best: Set[str] = {"self"}
        best_span = None
        for fn, params in func_params:
            if (fn.lineno <= n.lineno
                    and n.lineno <= (fn.end_lineno or fn.lineno)):
                span = (fn.end_lineno or fn.lineno) - fn.lineno
                if best_span is None or span < best_span:
                    best, best_span = params, span
        return best

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            why = _unordered_iterable(node.iter)
            if why is None:
                continue
            effect = _body_effects(node.body, params_for(node))
            if effect is None:
                continue
            yield ctx.finding(
                node, "D003",
                f"iteration over {why} {effect}: order is hash/"
                "insertion dependent and feeds the simulation",
                hint="wrap the iterable in sorted(...) with an explicit "
                     "key, or suppress with a reason why order is inert",
            )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                why = _unordered_iterable(gen.iter)
                if why is None:
                    continue
                elt = (node.elt if not isinstance(node, ast.DictComp)
                       else node.value)
                fake = ast.Expr(value=elt)
                ast.copy_location(fake, node)
                effect = _body_effects([fake], params_for(node))
                if effect is None:
                    continue
                yield ctx.finding(
                    node, "D003",
                    f"comprehension over {why} {effect}: order is "
                    "hash/insertion dependent and feeds the simulation",
                    hint="wrap the iterable in sorted(...)",
                )


def _is_id_key(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda):
        for sub in ast.walk(node.body):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"):
                return True
    return False


@rule("D004", "id-order",
      "ordering keyed on id() — CPython address order is not stable")
def check_id_ordering(ctx: FileContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        is_order_fn = (
            isinstance(node.func, ast.Name)
            and node.func.id in ("sorted", "min", "max")
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if not is_order_fn:
            continue
        for kw in node.keywords:
            if kw.arg == "key" and _is_id_key(kw.value):
                name = dotted_name(node.func) or "sort"
                yield ctx.finding(
                    node, "D004",
                    f"`{name}` ordered by id(): object addresses vary "
                    "run to run",
                    hint="order by a stable attribute (name, index, "
                         "sequence number) instead of identity",
                )


def _resolved_calls(pc: ProgramContext, path: str):
    """(call record, resolution, caller key) for every resolved call
    site in ``path``, in source order."""
    prog = pc.program
    for qual in sorted(pc.facts[path]["functions"]):
        key = f"{path}::{qual}"
        for call in sorted(pc.facts[path]["functions"][qual]["calls"],
                           key=lambda c: (c["line"], c["col"])):
            res = prog.resolution_at(path, call["line"], call["col"])
            if res is not None:
                yield call, res, key


@program_rule("D005", "wall-clock-transitive",
              "simulated code reaches the wall clock through an "
              "allowlisted helper")
def check_wallclock_transitive(pc: ProgramContext) -> Iterable[Finding]:
    prog = pc.program
    for path in sorted(pc.facts):
        if pc.wallclock_allowed(path):
            continue
        for call, res, _key in _resolved_calls(pc, path):
            callee_path = prog.func_path[res.key]
            if not pc.wallclock_allowed(callee_path):
                continue  # not a boundary crossing
            w = prog.summaries[res.key].wallclock
            if w is None:
                continue
            yield pc.finding(
                path, call["line"], call["col"], "D005",
                f"call into `{prog.display(res.key)}` reads the wall "
                "clock: the allowlist covers that helper's own file, "
                "not simulated callers",
                hint="simulated components take time from "
                     "machine.sim.now; pass timings in, or move the "
                     "clock read to the campaign/bench layer",
                chain=(
                    (path, call["line"], f"calls {prog.display(res.key)}"),
                ) + prog.chain(res.key, "wallclock"),
            )


@program_rule("D006", "raw-rng-transitive",
              "call into a wrapper that draws raw (unstreamed) RNG")
def check_raw_rng_transitive(pc: ProgramContext) -> Iterable[Finding]:
    prog = pc.program
    for path in sorted(pc.facts):
        if path == pc.config.rng_module:
            continue
        for call, res, _key in _resolved_calls(pc, path):
            callee_path = prog.func_path[res.key]
            if callee_path == pc.config.rng_module:
                continue  # the one module allowed to touch raw RNG
            w = prog.summaries[res.key].rawrng
            if w is None or w[0] != "direct":
                continue  # the drawing function itself gets D001;
                # flagging only its immediate callers stops the
                # finding from cascading up every call chain
            yield pc.finding(
                path, call["line"], call["col"], "D006",
                f"call into `{prog.display(res.key)}` draws raw RNG "
                f"({w[3]}): seeded replay cannot see or pin this "
                "generator",
                hint="route the draw through a named stream "
                     "(machine.streams.stream('<component>')) so the "
                     "seed recipe captures it",
                chain=(
                    (path, call["line"], f"calls {prog.display(res.key)}"),
                ) + prog.chain(res.key, "rawrng"),
            )
