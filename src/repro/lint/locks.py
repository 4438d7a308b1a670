"""Lock-discipline rules (L001–L003).

Metronome's queue sharing (paper §3.2) rests on the per-queue trylock:
a thread that wins ``try_acquire`` drains the queue and *must* release
before sleeping, on every path — a leaked lock silently starves the
queue forever, the precise failure the primary/backup timeout diversity
exists to avoid.  The runtime shadow map (repro.check ``lock`` monitor)
catches leaks on executed paths; these rules prove pairing on *all*
paths of every function, including ones no test reaches.

Analysis: a forward dataflow over the intraprocedural CFG, made
interprocedural through the lock summaries of
:mod:`repro.lint.summaries`:

* a call into a helper whose summary *releases* a lock it did not
  acquire (``release_always``/``release_some``) transfers the caller's
  state for the mapped lock — so ``try_acquire`` here + release in a
  helper is recognized, and a helper released only on *some* paths
  leaves MAYBE behind, which correctly reports the leaky path;
* a call into an *acquire helper* (a function that ``return``\\ s the
  result of ``<lock>.try_acquire(...)``) acts as the acquire site in
  the caller: branch refinement applies to the call result, and a
  leak of a helper-acquired lock reports as L003 with the call chain.

Lock objects are identified textually (``sq.lock``) and mapped across
calls through the argument/parameter binding.  At the normal exit,
HELD or MAYBE means some path leaks (L001 locally, L003 through a
helper); a ``release`` at a point where the lock is provably FREE is
unpaired (L002).  Crash paths (uncaught ``raise``) are exempt.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.astutil import expr_key, stmt_header_exprs, walk_shallow
from repro.lint.cfg import Block, build_cfg, forward_dataflow, function_defs
from repro.lint.engine import Finding, ProgramContext, program_rule

# lattice: FREE < HELD, MAYBE = join(FREE, HELD)
FREE, HELD, MAYBE = 0, 1, 2


def _join(a: int, b: int) -> int:
    return a if a == b else MAYBE


def _acquire_call(node: ast.AST) -> Optional[Tuple[str, ast.Call]]:
    """(lock key, call node) when ``node`` is ``<lock>.try_acquire(...)``."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "try_acquire"):
        return expr_key(node.func.value), node
    return None


def _release_call(node: ast.AST) -> Optional[Tuple[str, ast.Call]]:
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"):
        return expr_key(node.func.value), node
    return None


def _key_root(key: str) -> str:
    return key.split(".", 1)[0]


# ---------------------------------------------------------------------- #
# summaries (consumed by repro.lint.summaries during fact extraction)
# ---------------------------------------------------------------------- #


def _release_exit_state(fn: ast.AST, keys: List[str]) -> Dict[str, int]:
    """Exit state of ``keys`` assumed HELD at entry — classifies a
    release-only helper as releasing always / on some paths / never."""
    cfg = build_cfg(fn)
    entry = {k: HELD for k in keys}

    def transfer(block, state):
        state = dict(state)
        for stmt in block.stmts:
            for header in stmt_header_exprs(stmt):
                for node in walk_shallow(header):
                    rel = _release_call(node)
                    if rel and rel[0] in state:
                        state[rel[0]] = FREE
        return state

    in_states = forward_dataflow(cfg, entry, MAYBE, transfer)
    return in_states.get(cfg.exit.id, dict(entry))


def compute_lock_summary(
    fn: ast.AST, params: List[str]
) -> Optional[Dict[str, Any]]:
    """The caller-visible lock effects of one function, or None.

    ``{"releases": {key: "always"|"some"}, "acquire_key": key|None,
    "acquire_line": int}`` — keys are lock expressions rooted at a
    parameter or ``self``, the only locks a caller can map."""
    acquires: Dict[str, ast.Call] = {}
    releases: Dict[str, ast.Call] = {}
    flag_vars: Dict[str, str] = {}
    ops = False
    for node in walk_shallow(fn):
        acq = _acquire_call(node)
        if acq:
            ops = True
            acquires.setdefault(acq[0], acq[1])
        rel = _release_call(node)
        if rel:
            ops = True
            releases.setdefault(rel[0], rel[1])
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            a = _acquire_call(node.value)
            if a and isinstance(target, ast.Name):
                flag_vars[target.id] = a[0]
    if not ops:
        return None
    roots = set(params) | {"self", "cls"}

    rel_summary: Dict[str, str] = {}
    rel_only = sorted(
        k for k in releases
        if k not in acquires and _key_root(k) in roots
    )
    if rel_only:
        exit_state = _release_exit_state(fn, rel_only)
        for k in rel_only:
            status = exit_state.get(k, HELD)
            if status == FREE:
                rel_summary[k] = "always"
            elif status == MAYBE:
                rel_summary[k] = "some"

    acquire_key: Optional[str] = None
    acquire_line = 0
    returned: Set[str] = set()
    for node in walk_shallow(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            a = _acquire_call(node.value)
            if a:
                returned.add(a[0])
            elif (isinstance(node.value, ast.Name)
                    and node.value.id in flag_vars):
                returned.add(flag_vars[node.value.id])
    candidates = sorted(k for k in returned if _key_root(k) in roots)
    if len(candidates) == 1 and candidates[0] in acquires:
        acquire_key = candidates[0]
        acquire_line = acquires[acquire_key].lineno

    return {
        "releases": rel_summary,
        "acquire_key": acquire_key,
        "acquire_line": acquire_line,
    }


# ---------------------------------------------------------------------- #
# interprocedural call environment
# ---------------------------------------------------------------------- #


class _CallEnv:
    """Maps the call sites of one file to callee lock effects."""

    def __init__(self, pc: ProgramContext, path: str):
        self.prog = pc.program
        self.path = path

    def _callee(self, node: ast.Call):
        res = self.prog.resolution_at(
            self.path, node.lineno, node.col_offset + 1)
        if res is None:
            return None
        facts = self.prog.functions[res.key]
        lock = facts.get("lock")
        if not lock:
            return None
        return res, facts, lock

    def _map_key(self, ckey: str, facts, res, node: ast.Call
                 ) -> Optional[str]:
        """Rewrite a callee lock key into the caller's frame through
        the receiver / argument binding."""
        root, _, suffix = ckey.partition(".")
        if root in ("self", "cls"):
            if not isinstance(node.func, ast.Attribute):
                return None
            caller_text = expr_key(node.func.value)
        else:
            cparams = list(facts["params"])
            if res.self_bound and cparams and cparams[0] in ("self", "cls"):
                cparams = cparams[1:]
            if root not in cparams:
                return None
            i = cparams.index(root)
            if i < len(node.args):
                arg = node.args[i]
                if isinstance(arg, ast.Starred):
                    return None
                caller_text = expr_key(arg)
            else:
                kwmap = {k.arg: k.value for k in node.keywords if k.arg}
                if root not in kwmap:
                    return None
                caller_text = expr_key(kwmap[root])
        return caller_text + (f".{suffix}" if suffix else "")

    def release_effects(self, node: ast.Call) -> List[Tuple[str, str]]:
        """(caller lock key, "always"|"some") releases this call makes."""
        got = self._callee(node)
        if got is None:
            return []
        res, facts, lock = got
        out = []
        for ckey, mode in sorted(lock.get("releases", {}).items()):
            mapped = self._map_key(ckey, facts, res, node)
            if mapped is not None:
                out.append((mapped, mode))
        return out

    def acquire_helper(
        self, node: ast.Call
    ) -> Optional[Tuple[str, str, int]]:
        """(caller lock key, callee key, callee acquire line) when this
        call enters a helper that returns a ``try_acquire`` result."""
        got = self._callee(node)
        if got is None:
            return None
        res, facts, lock = got
        ak = lock.get("acquire_key")
        if not ak:
            return None
        mapped = self._map_key(ak, facts, res, node)
        if mapped is None:
            return None
        return mapped, res.key, lock.get("acquire_line", 0)


class _FunctionLocks:
    """The lock analysis of one function."""

    def __init__(self, fn: ast.AST, env: Optional[_CallEnv] = None):
        self.fn = fn
        self.env = env
        self.cfg = build_cfg(fn)
        #: lock key -> first acquire site (for reporting): a direct
        #: try_acquire call, or the call into an acquire helper
        self.acquire_sites: Dict[str, ast.Call] = {}
        #: helper-acquired keys -> (callee key, callee acquire line)
        self.helper_acquires: Dict[str, Tuple[str, int]] = {}
        #: boolean variable name -> lock key (``ok = x.try_acquire(...)``)
        self.flag_vars: Dict[str, str] = {}
        #: keys whose acquire result the function returns — the caller
        #: owns the release obligation (acquire-helper pattern)
        self.returned_keys: Set[str] = set()
        self._scan()

    def _call_acquire(self, node: ast.AST) -> Optional[Tuple[str, ast.Call]]:
        """Direct or helper acquire at ``node``."""
        acq = _acquire_call(node)
        if acq:
            return acq
        if self.env is not None and isinstance(node, ast.Call):
            helper = self.env.acquire_helper(node)
            if helper is not None:
                return helper[0], node
        return None

    def _scan(self) -> None:
        for node in walk_shallow(self.fn):
            acq = _acquire_call(node)
            if acq:
                self.acquire_sites.setdefault(acq[0], acq[1])
            elif self.env is not None and isinstance(node, ast.Call):
                helper = self.env.acquire_helper(node)
                if helper is not None:
                    key, callee, line = helper
                    self.acquire_sites.setdefault(key, node)
                    self.helper_acquires.setdefault(key, (callee, line))
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                acq = self._call_acquire(node.value)
                if acq and isinstance(target, ast.Name):
                    self.flag_vars[target.id] = acq[0]
            if isinstance(node, ast.Return) and node.value is not None:
                acq = self._call_acquire(node.value)
                if acq:
                    self.returned_keys.add(acq[0])
                elif (isinstance(node.value, ast.Name)
                        and node.value.id in self.flag_vars):
                    self.returned_keys.add(self.flag_vars[node.value.id])

    # -- branch refinement --------------------------------------------- #

    def _branch_lock(self, test: ast.expr) -> Optional[Tuple[str, bool]]:
        """(lock key, truthy-means-held) for a branch test, or None.

        Handles ``x.try_acquire(k)``, ``not x.try_acquire(k)``, a flag
        name bound to an acquire, an acquire-helper call, and their
        negations.  Anything more complex stays unrefined (conservative
        MAYBE on both sides).
        """
        negated = False
        while isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            negated = not negated
            test = test.operand
        acq = self._call_acquire(test)
        if acq:
            return acq[0], not negated
        if isinstance(test, ast.Name) and test.id in self.flag_vars:
            return self.flag_vars[test.id], not negated
        return None

    # -- transfer ------------------------------------------------------ #

    def _transfer(
        self, block: Block, state: Dict[str, int],
        findings: List[Tuple[ast.AST, str, str, tuple]],
        report: bool,
    ) -> Dict[str, int]:
        state = dict(state)
        for stmt in block.stmts:
            for header in stmt_header_exprs(stmt):
                self._transfer_expr(header, state, findings, report)
        return state

    def _transfer_expr(
        self, header: ast.AST, state: Dict[str, int],
        findings: List[Tuple[ast.AST, str, str, tuple]],
        report: bool,
    ) -> None:
        for node in walk_shallow(header):
            rel = _release_call(node)
            if rel is not None:
                key, call = rel
                if key in self.acquire_sites:
                    if report and state.get(key, FREE) == FREE:
                        findings.append((
                            call, "L002",
                            f"release of `{key}` not dominated by a "
                            "successful try_acquire on this path",
                            (),
                        ))
                    state[key] = FREE
                continue
            acq = _acquire_call(node)
            if acq is not None:
                key = acq[0]
                # the result may be branched on right here (the block's
                # test) — the edge refinement sharpens this; unbranched
                # acquires stay MAYBE, which correctly reports "leaked
                # on the success path" at exit
                prev = state.get(key, FREE)
                state[key] = MAYBE if prev == FREE else prev
                continue
            if self.env is not None and isinstance(node, ast.Call):
                helper = self.env.acquire_helper(node)
                if helper is not None:
                    key = helper[0]
                    prev = state.get(key, FREE)
                    state[key] = MAYBE if prev == FREE else prev
                    continue
                for key, mode in self.env.release_effects(node):
                    if key not in self.acquire_sites:
                        continue
                    prev = state.get(key, FREE)
                    state[key] = (
                        FREE if mode == "always" else _join(prev, FREE)
                    )

    def _edge_state(
        self, block: Block, label: str, state: Dict[str, int]
    ) -> Dict[str, int]:
        if block.branch is None or label not in ("true", "false"):
            return state
        refined = self._branch_lock(block.branch)
        if refined is None:
            return state
        key, truthy_held = refined
        state = dict(state)
        state[key] = HELD if (label == "true") == truthy_held else FREE
        return state

    # -- fixpoint ------------------------------------------------------ #

    def run(self) -> List[Tuple[ast.AST, str, str, tuple]]:
        if not self.acquire_sites:
            return []
        entry_state: Dict[str, int] = {k: FREE for k in self.acquire_sites}
        # two passes: fixpoint first (no reporting), then one reporting
        # sweep over the stable states so loops do not duplicate findings
        in_states = forward_dataflow(
            self.cfg, entry_state, MAYBE,
            lambda block, state: self._transfer(block, state, [], False),
            self._edge_state,
        )

        findings: List[Tuple[ast.AST, str, str, tuple]] = []
        seen: Set[Tuple[int, str]] = set()
        for block in self.cfg.blocks:
            if block.id not in in_states:
                continue
            local: List[Tuple[ast.AST, str, str, tuple]] = []
            self._transfer(block, in_states[block.id], local, True)
            for node, rid, msg, chain in local:
                dedup = (getattr(node, "lineno", 0), rid)
                if dedup not in seen:
                    seen.add(dedup)
                    findings.append((node, rid, msg, chain))

        exit_state = in_states.get(self.cfg.exit.id)
        if exit_state:
            for key, status in sorted(exit_state.items()):
                if status not in (HELD, MAYBE):
                    continue
                if key in self.returned_keys:
                    # acquire-helper pattern: the function hands the
                    # acquire result to its caller, who owns the release
                    continue
                site = self.acquire_sites[key]
                some = "some path" if status == MAYBE else "every path"
                helper = self.helper_acquires.get(key)
                if helper is not None:
                    callee, line = helper
                    findings.append((
                        site, "L003",
                        f"lock `{key}` acquired through helper call can "
                        f"reach function exit still held on {some}",
                        ((callee, line),),
                    ))
                else:
                    findings.append((
                        site, "L001",
                        f"lock `{key}` acquired here can reach function "
                        f"exit still held on {some}",
                        (),
                    ))
        return findings


# ---------------------------------------------------------------------- #
# rules
# ---------------------------------------------------------------------- #


def _lock_relevant(pc: ProgramContext, path: str) -> bool:
    """Does this file need a real AST pass?  Only files with lock
    operations, or calls into functions carrying a lock summary — on a
    warm cache everything else stays unparsed."""
    facts = pc.facts.get(path)
    if facts is None:
        return False
    if facts["has_locks"]:
        return True
    prog = pc.program
    for qual in facts["functions"]:
        for call in facts["functions"][qual]["calls"]:
            res = prog.resolution_at(path, call["line"], call["col"])
            if res is not None \
                    and prog.functions[res.key].get("lock"):
                return True
    return False


def _file_lock_findings(pc: ProgramContext, path: str):
    memo_key = ("locks", path)
    cached = pc.memo.get(memo_key)
    if cached is not None:
        return cached
    out: List[Tuple[Finding, str]] = []
    ctx = pc.file_context(path)
    env = _CallEnv(pc, path)
    prog = pc.program
    for fn in function_defs(ctx.tree):
        for node, rid, msg, extra in _FunctionLocks(fn, env).run():
            chain: tuple = ()
            if rid == "L003" and extra:
                callee, line = extra[0]
                chain = (
                    (path, node.lineno,
                     f"calls {prog.display(callee)}"),
                    (prog.func_path[callee], line,
                     "try_acquire here; the result is returned"),
                )
            out.append((ctx.finding(node, rid, msg, chain=chain), rid))
    pc.memo[memo_key] = out
    return out


def _lock_rule(pc: ProgramContext, rid: str, hint: str
               ) -> Iterable[Finding]:
    for path in sorted(pc.facts):
        if not _lock_relevant(pc, path):
            continue
        for finding, frid in _file_lock_findings(pc, path):
            if frid == rid:
                yield Finding(
                    path=finding.path, line=finding.line, col=finding.col,
                    rule_id=finding.rule_id, message=finding.message,
                    hint=hint, chain=finding.chain,
                )


@program_rule("L001", "lock-leak",
              "a successful try_acquire can reach function exit unreleased")
def check_lock_leak(pc: ProgramContext) -> Iterable[Finding]:
    return _lock_rule(
        pc, "L001",
        hint="release on every path out of the drain loop "
             "(try/finally, or release before each "
             "return/continue); a leaked trylock starves the "
             "queue permanently",
    )


@program_rule("L002", "release-unheld",
              "release reachable without a dominating successful try_acquire")
def check_release_unheld(pc: ProgramContext) -> Iterable[Finding]:
    return _lock_rule(
        pc, "L002",
        hint="guard the release with the try_acquire result; "
             "releasing an unheld TryLock raises at runtime",
    )


@program_rule("L003", "lock-leak-interprocedural",
              "a lock acquired through a helper call can leak at exit")
def check_helper_lock_leak(pc: ProgramContext) -> Iterable[Finding]:
    return _lock_rule(
        pc, "L003",
        hint="the helper returns the try_acquire result, so this "
             "function owns the release: release on every path "
             "(including error returns), or branch on the call result",
    )
