"""The whole-program call graph and bottom-up summary propagation.

Built from the per-module facts of :mod:`repro.lint.summaries`, this
module gives the interprocedural rules three things:

* **resolution** — each recorded call site is mapped to an in-tree
  function where the evidence allows: local and module-level names,
  import aliases (following one package re-export level), constructor
  calls, ``self.method()`` through the class hierarchy, and
  ``x.method()`` when ``x`` has a known type from an annotation or a
  local ``x = ClassName(...)``;
* **propagated summaries** — wall-clock reach, raw-RNG reach, stream
  draws, and writes through parameters/``self`` flow bottom-up over
  Tarjan SCCs, each fact carrying a witness link so a finding can show
  the full call chain;
* **reachability** — a BFS closure used by the checkpoint/generator
  purity rules, optionally widened by a name-based class-hierarchy
  fallback for method calls whose receiver type is unknown.

Everything is deterministic: functions are keyed ``path::qualname``,
visited in sorted order, and witness selection prefers the earliest
site — so two runs over the same tree produce identical chains.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

Witness = Tuple  # ("direct", line, col, desc) | ("call", line, col, key, what)

#: method names the CHA fallback must never match: every attribute of
#: the builtin collection/scalar types.  An untyped ``pending.extend``
#: is almost always a list, and letting it resolve to every in-tree
#: class with an ``extend`` method drowns the purity rules in noise.
_CHA_SKIP = frozenset(
    name
    for t in (dict, list, set, frozenset, tuple, str, bytes, bytearray,
              int, float, object)
    for name in dir(t)
)


def module_dotted(path: str) -> Optional[str]:
    """``src/repro/sim/rng.py`` → ``repro.sim.rng`` (None for non-.py)."""
    if not path.endswith(".py"):
        return None
    parts = path[:-3].split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


class Resolution:
    """One resolved call edge."""

    __slots__ = ("key", "self_bound", "fresh")

    def __init__(self, key: str, self_bound: bool, fresh: bool = False):
        self.key = key  # "path::qualname"
        self.self_bound = self_bound
        #: the receiver is an object constructed in the caller — writes
        #: to its ``self`` do not mutate pre-existing state
        self.fresh = fresh


class Summary:
    """Propagated effects of one function (direct ∪ transitive)."""

    __slots__ = ("wallclock", "rawrng", "draw", "writes", "writes_self")

    def __init__(self):
        self.wallclock: Optional[Witness] = None
        self.rawrng: Optional[Witness] = None
        self.draw: Optional[Witness] = None
        self.writes: Dict[str, Witness] = {}
        self.writes_self: Optional[Witness] = None


class Program:
    """The call graph over one lint run's fact set."""

    def __init__(self, modules: Dict[str, Dict[str, Any]], config):
        self.modules = modules
        self.config = config
        self._by_dotted: Dict[str, str] = {}
        for path in modules:
            dotted = module_dotted(path)
            if dotted:
                self._by_dotted.setdefault(dotted, path)
        #: "path::qualname" -> function fact dict
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.func_path: Dict[str, str] = {}
        #: method name -> sorted keys (the CHA fallback index)
        self.methods_by_name: Dict[str, List[str]] = {}
        for path in sorted(modules):
            for qual in sorted(modules[path]["functions"]):
                facts = modules[path]["functions"][qual]
                key = f"{path}::{qual}"
                self.functions[key] = facts
                self.func_path[key] = path
                if facts["cls"] and ".<locals>." not in qual:
                    self.methods_by_name.setdefault(
                        facts["name"], []).append(key)
        #: (path, line, col) -> Resolution of the call site there
        self.resolutions: Dict[Tuple[str, int, int], Resolution] = {}
        self.summaries: Dict[str, Summary] = {}
        self._resolve_all()
        self._propagate()

    # -- display -------------------------------------------------------- #

    def display(self, key: str) -> str:
        """Human name of a function key: ``repro.sim.rng.stream``."""
        path, _, qual = key.partition("::")
        dotted = module_dotted(path)
        return f"{dotted}.{qual}" if dotted else f"{path}::{qual}"

    # -- symbol resolution ---------------------------------------------- #

    def _resolve_all(self) -> None:
        for key in sorted(self.functions):
            path = self.func_path[key]
            facts = self.functions[key]
            for call in facts["calls"]:
                res = self._resolve_call(path, facts, call)
                if res is not None:
                    self.resolutions[(path, call["line"], call["col"])] = res

    def resolution_at(
        self, path: str, line: int, col: int
    ) -> Optional[Resolution]:
        return self.resolutions.get((path, line, col))

    def _resolve_call(
        self, path: str, caller: Dict[str, Any], call: Dict[str, Any]
    ) -> Optional[Resolution]:
        mf = self.modules[path]
        kind = call["kind"]
        target = call["target"]
        if kind == "name":
            # innermost enclosing scope first: nested defs shadow
            qual = caller["qualname"]
            while True:
                nested = f"{qual}.<locals>.{target}"
                if nested in mf["functions"]:
                    return Resolution(f"{path}::{nested}", False)
                if ".<locals>." not in qual:
                    break
                qual = qual.rsplit(".<locals>.", 1)[0]
            if target in mf["module_funcs"]:
                return Resolution(f"{path}::{target}", False)
            if target in mf["classes"]:
                return self._ctor(path, target)
            alias = mf["imports"].get(target)
            if alias:
                return self._resolve_dotted(alias)
            return None
        if kind == "self":
            if not caller["cls"]:
                return None
            return self._method(path, caller["cls"], target, fresh=False)
        # attr call: module-qualified function, or typed receiver
        recv_root = call.get("recv_root")
        recv = call.get("recv", "")
        if recv_root and recv_root == recv:
            # plain-name receiver: maybe a module alias (helpers.drain)
            alias = mf["imports"].get(recv_root)
            if alias:
                res = self._resolve_dotted(f"{alias}.{target}")
                if res is not None:
                    return res
        ref = call.get("recv_class")
        if ref:
            loc = self._resolve_class_ref(path, ref)
            if loc is not None:
                return self._method(
                    loc[0], loc[1], target,
                    fresh=bool(call.get("recv_fresh")))
        return None

    def _ctor(self, path: str, cls: str) -> Optional[Resolution]:
        res = self._method(path, cls, "__init__", fresh=True)
        if res is not None:
            res.fresh = True
        return res

    def _method(
        self, path: str, cls: str, name: str, fresh: bool, depth: int = 0
    ) -> Optional[Resolution]:
        """Look up a method on ``cls`` walking base classes in order."""
        if depth > 8:
            return None
        mf = self.modules.get(path)
        if mf is None or cls not in mf["classes"]:
            return None
        qual = f"{cls}.{name}"
        if qual in mf["functions"]:
            return Resolution(f"{path}::{qual}", True, fresh)
        for base in mf["classes"][cls]["bases"]:
            loc = self._resolve_class_ref(path, base, depth + 1)
            if loc is not None:
                res = self._method(loc[0], loc[1], name, fresh, depth + 1)
                if res is not None:
                    return res
        return None

    def _resolve_dotted(
        self, dotted: str, depth: int = 0
    ) -> Optional[Resolution]:
        """An in-tree function for a fully-qualified dotted path,
        following one level of package re-exports per hop."""
        if depth > 5:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            path = self._by_dotted.get(mod)
            if path is None:
                continue
            mf = self.modules[path]
            rest = parts[cut:]
            if len(rest) == 1:
                name = rest[0]
                if name in mf["module_funcs"]:
                    return Resolution(f"{path}::{name}", False)
                if name in mf["classes"]:
                    return self._ctor(path, name)
                alias = mf["imports"].get(name)
                if alias:
                    return self._resolve_dotted(alias, depth + 1)
            elif len(rest) == 2:
                cls, meth = rest
                if cls in mf["classes"]:
                    return self._method(path, cls, meth, fresh=False)
                alias = mf["imports"].get(cls)
                if alias:
                    return self._resolve_dotted(
                        f"{alias}.{meth}", depth + 1)
            return None
        return None

    def _resolve_class_ref(
        self, path: str, ref: str, depth: int = 0
    ) -> Optional[Tuple[str, str]]:
        """(defining path, class name) for a textual class reference as
        seen from ``path`` — a local name, an alias, or a dotted path."""
        if depth > 5:
            return None
        mf = self.modules[path]
        head, _, rest = ref.partition(".")
        if not rest:
            if ref in mf["classes"]:
                return (path, ref)
            alias = mf["imports"].get(ref)
            if alias:
                return self._class_by_dotted(alias, depth + 1)
            return None
        alias = mf["imports"].get(head)
        if alias:
            return self._class_by_dotted(f"{alias}.{rest}", depth + 1)
        return self._class_by_dotted(ref, depth + 1)

    def _class_by_dotted(
        self, dotted: str, depth: int
    ) -> Optional[Tuple[str, str]]:
        if depth > 5:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            path = self._by_dotted.get(mod)
            if path is None:
                continue
            rest = parts[cut:]
            if len(rest) != 1:
                return None
            mf = self.modules[path]
            if rest[0] in mf["classes"]:
                return (path, rest[0])
            alias = mf["imports"].get(rest[0])
            if alias:
                return self._class_by_dotted(alias, depth + 1)
            return None
        return None

    # -- SCC + propagation ---------------------------------------------- #

    def _adjacency(self) -> Dict[str, List[str]]:
        adj: Dict[str, List[str]] = {k: [] for k in self.functions}
        for key in sorted(self.functions):
            path = self.func_path[key]
            seen = set()
            for call in self.functions[key]["calls"]:
                res = self.resolutions.get(
                    (path, call["line"], call["col"]))
                if res is not None and res.key not in seen:
                    seen.add(res.key)
                    adj[key].append(res.key)
        return adj

    def _sccs(self, adj: Dict[str, List[str]]) -> List[List[str]]:
        """Tarjan, iterative; emits each SCC after all SCCs it reaches
        (bottom-up over the condensation — callees first)."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        out: List[List[str]] = []
        counter = [0]

        for root in sorted(adj):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, pi = work[-1]
                if pi == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                succs = adj[node]
                while pi < len(succs):
                    succ = succs[pi]
                    pi += 1
                    if succ not in index:
                        work[-1] = (node, pi)
                        work.append((succ, 0))
                        recurse = True
                        break
                    if on_stack.get(succ):
                        low[node] = min(low[node], index[succ])
                if recurse:
                    continue
                work[-1] = (node, pi)
                if pi >= len(succs):
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        scc = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            scc.append(w)
                            if w == node:
                                break
                        out.append(sorted(scc))
        return out

    def _propagate(self) -> None:
        adj = self._adjacency()
        rng_path = getattr(self.config, "rng_module", None)
        for scc in self._sccs(adj):
            # fixpoint within the SCC (single pass when acyclic)
            for _ in range(2 * len(scc) + 2):
                changed = False
                for key in scc:
                    if self._transfer(key, rng_path):
                        changed = True
                if not changed:
                    break

    def _transfer(self, key: str, rng_path: Optional[str]) -> bool:
        facts = self.functions[key]
        path = self.func_path[key]
        s = self.summaries.get(key)
        if s is None:
            s = Summary()
            self.summaries[key] = s
        changed = False

        def direct(sites) -> Optional[Witness]:
            best = None
            for site in sites:
                w = ("direct", site["line"], site["col"], site["desc"])
                if best is None or w[1:3] < best[1:3]:
                    best = w
            return best

        if s.wallclock is None:
            s.wallclock = direct(facts["wallclock"])
            changed |= s.wallclock is not None
        if s.rawrng is None:
            s.rawrng = direct(facts["rawrng"])
            changed |= s.rawrng is not None
        if s.draw is None:
            s.draw = direct(facts["draws"]) or s.rawrng
            changed |= s.draw is not None
        for p, site in sorted(facts["param_writes"].items()):
            if p not in s.writes:
                s.writes[p] = ("direct", site["line"], site["col"],
                               site["desc"])
                changed = True
        if s.writes_self is None and facts["self_write"]:
            site = facts["self_write"]
            s.writes_self = ("direct", site["line"], site["col"],
                             site["desc"])
            changed = True

        params = facts["params"]
        is_method = bool(facts["cls"]) and bool(params) \
            and params[0] in ("self", "cls")
        for call in sorted(facts["calls"],
                           key=lambda c: (c["line"], c["col"])):
            res = self.resolutions.get((path, call["line"], call["col"]))
            if res is None:
                continue
            g = self.summaries.get(res.key)
            if g is None:
                continue
            via = ("call", call["line"], call["col"], res.key)
            in_rng = rng_path is not None \
                and self.func_path[res.key] == rng_path
            if s.wallclock is None and g.wallclock is not None:
                s.wallclock = via + ("",)
                changed = True
            if not in_rng:
                if s.rawrng is None and g.rawrng is not None:
                    s.rawrng = via + ("",)
                    changed = True
                if s.draw is None and g.draw is not None:
                    s.draw = via + ("",)
                    changed = True
            changed |= self._propagate_writes(
                s, g, call, res, via, params, is_method)
        return changed

    def _propagate_writes(
        self, s: Summary, g: Summary, call: Dict[str, Any],
        res: Resolution, via: Tuple, params: List[str], is_method: bool,
    ) -> bool:
        if res.fresh:
            return False  # a freshly built object's state is the caller's
        callee = self.functions[res.key]
        cparams = list(callee["params"])
        offset = 0
        if res.self_bound and cparams and cparams[0] in ("self", "cls"):
            offset = 1
        changed = False

        def note(root: str, what: str) -> bool:
            w = via + (what,)
            if root in ("self", "cls") and is_method:
                if s.writes_self is None:
                    s.writes_self = w
                    return True
            elif root in params and root not in ("self", "cls"):
                if root not in s.writes:
                    s.writes[root] = w
                    return True
            return False

        for i, root in enumerate(call.get("pos_roots", [])):
            if root is None:
                continue
            ci = i + offset
            if ci < len(cparams) and cparams[ci] in g.writes:
                changed |= note(root, f"param:{cparams[ci]}")
        for kw, root in sorted(call.get("kw_roots", {}).items()):
            if root is not None and kw in g.writes:
                changed |= note(root, f"param:{kw}")
        recv_root = call.get("recv_root")
        if res.self_bound and recv_root and g.writes_self is not None:
            changed |= note(recv_root, "self")
        if res.self_bound and call["kind"] == "self" \
                and g.writes_self is not None:
            changed |= note("self", "self")
        return changed

    # -- chains ---------------------------------------------------------- #

    def chain(
        self, key: str, kind: str, param: Optional[str] = None,
        limit: int = 12,
    ) -> Tuple[Tuple[str, int, str], ...]:
        """The witness chain of a propagated fact, as
        ``(path, line, label)`` hops ending at the direct site.

        ``kind`` is one of ``wallclock``/``rawrng``/``draw``/``write``;
        for ``write``, ``param`` picks the parameter (or ``self``).
        """
        out: List[Tuple[str, int, str]] = []
        for _ in range(limit):
            s = self.summaries.get(key)
            if s is None:
                break
            if kind == "write":
                w = s.writes_self if param in ("self", "cls", None) \
                    else s.writes.get(param)
            else:
                w = getattr(s, kind)
            if w is None:
                break
            path = self.func_path[key]
            if w[0] == "direct":
                out.append((path, w[1], w[3]))
                break
            callee = w[3]
            out.append((path, w[1], f"calls {self.display(callee)}"))
            if kind == "write":
                what = w[4]
                param = what.split(":", 1)[1] if ":" in what else "self"
            key = callee
        return tuple(out)

    # -- reachability (C/G rules) ---------------------------------------- #

    def reachable(
        self, roots: Iterable[str], use_cha: bool = True
    ) -> Dict[str, Tuple[Optional[str], int, bool]]:
        """BFS closure from ``roots``: key → (caller key, call line in
        the caller, receiver-fresh context).  Fresh context means every
        object on the receiver path was constructed inside the closure,
        so ``self`` writes there do not touch pre-existing state.
        Unresolved method calls fall back to name-based CHA candidates
        when ``use_cha`` — conservative, used only for purity rules.
        """
        best: Dict[str, Tuple[Optional[str], int, bool]] = {}
        dq: deque = deque()
        for r in sorted(set(roots)):
            if r in self.functions:
                best[r] = (None, 0, False)
                dq.append((r, False))
        while dq:
            key, fresh = dq.popleft()
            path = self.func_path[key]
            for call in sorted(self.functions[key]["calls"],
                               key=lambda c: (c["line"], c["col"])):
                res = self.resolutions.get(
                    (path, call["line"], call["col"]))
                targets: List[Tuple[str, bool]] = []
                if res is not None:
                    nfresh = res.fresh or (
                        fresh and call["kind"] == "self")
                    targets.append((res.key, nfresh))
                elif use_cha and self._cha_eligible(path, call):
                    for cand in self.methods_by_name.get(
                            call["target"], ()):
                        targets.append((cand, False))
                for tkey, tfresh in targets:
                    cur = best.get(tkey)
                    if cur is not None and (cur[2] <= tfresh):
                        continue  # already reached at least as strictly
                    best[tkey] = (key, call["line"], tfresh)
                    dq.append((tkey, tfresh))
        return best

    def _cha_eligible(self, path: str, call: Dict[str, Any]) -> bool:
        """May an unresolved call fall back to name-based CHA?  Only
        method calls whose receiver type is genuinely unknown — not
        builtin-collection method names, and not calls through an
        import alias (``json.load``: a module, just not an in-tree
        one)."""
        if call["kind"] != "attr" or call.get("recv_class"):
            return False
        if call["target"] in _CHA_SKIP:
            return False
        recv_root = call.get("recv_root")
        if recv_root and recv_root == call.get("recv") \
                and recv_root in self.modules[path]["imports"]:
            return False
        return True

    def reach_chain(
        self,
        parents: Dict[str, Tuple[Optional[str], int, bool]],
        key: str,
        limit: int = 20,
    ) -> Tuple[Tuple[str, int, str], ...]:
        """Root-to-``key`` hops of a :meth:`reachable` closure."""
        hops: List[Tuple[str, int, str]] = []
        cur: Optional[str] = key
        for _ in range(limit):
            if cur is None or cur not in parents:
                break
            parent, line, _fresh = parents[cur]
            if parent is None:
                break
            hops.append((self.func_path[parent], line,
                         f"calls {self.display(cur)}"))
            cur = parent
        return tuple(reversed(hops))
