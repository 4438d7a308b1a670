"""Per-function effect summaries — the facts the call graph propagates.

Interprocedural analysis (docs/LINT.md §call-graph) runs in two layers:
this module extracts *direct* facts from one module's AST — wall-clock
call sites, raw-RNG constructions, named-stream draws, writes through
parameters / ``self`` / module globals, lock acquire/release effects,
and every call site with enough context to resolve it later — and
:mod:`repro.lint.callgraph` links the modules together and propagates
the facts bottom-up over SCCs.

Everything here is a plain dict/list/str structure with a stable JSON
round-trip, because the per-module facts are exactly what the summary
cache (:mod:`repro.lint.cache`) persists: a warm lint run never
re-parses a module whose content hash is unchanged.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.astutil import (
    ImportMap,
    dotted_name,
    expr_key,
    target_root,
    walk_shallow,
)
from repro.lint.determinism import _WALLCLOCK_DATETIME, _WALLCLOCK_TIME
from repro.lint.locks import compute_lock_summary

#: receiver names that denote the object a method runs on
SELF_NAMES = ("self", "cls")

#: container methods that mutate their receiver in place — calling one
#: on a parameter or module global is a write for summary purposes
MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "clear", "pop", "popitem",
    "add", "discard", "update", "setdefault", "appendleft", "popleft",
    "sort", "reverse", "write",
}


def _site(node: ast.AST, desc: str) -> Dict[str, Any]:
    return {
        "line": getattr(node, "lineno", 1),
        "col": getattr(node, "col_offset", 0) + 1,
        "desc": desc,
    }


def _arg_root(node: ast.AST) -> Optional[str]:
    """The root Name an argument expression hands to the callee, when
    the argument aliases caller state (``sq``, ``self.queue``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return target_root(node)
    return None


def _stream_prefix(call: ast.Call) -> Optional[str]:
    """The literal leading text of a stream name argument: handles a
    plain string constant and the constant head of an f-string."""
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None


class _FunctionScanner:
    """Extracts the direct facts of one function body (shallow walk —
    nested defs are separate functions with their own facts)."""

    def __init__(
        self,
        fn: ast.AST,
        qualname: str,
        cls: Optional[str],
        imports: ImportMap,
        module_globals: Tuple[str, ...],
    ):
        self.fn = fn
        self.qualname = qualname
        self.cls = cls
        self.imports = imports
        self.module_globals = set(module_globals)
        args = fn.args
        self.pos_params: List[str] = [
            a.arg for a in list(args.posonlyargs) + list(args.args)
        ]
        self.all_params = set(self.pos_params)
        self.all_params |= {a.arg for a in args.kwonlyargs}
        if args.vararg:
            self.all_params.add(args.vararg.arg)
        if args.kwarg:
            self.all_params.add(args.kwarg.arg)
        self.annotations: Dict[str, str] = {}
        for a in list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs):
            ann = self._ann_text(a.annotation)
            if ann:
                self.annotations[a.arg] = ann

    @staticmethod
    def _ann_text(ann: Optional[ast.AST]) -> Optional[str]:
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return ann.value
        return dotted_name(ann)

    def scan(self) -> Dict[str, Any]:
        facts: Dict[str, Any] = {
            "qualname": self.qualname,
            "name": self.qualname.rsplit(".", 1)[-1],
            "cls": self.cls,
            "line": self.fn.lineno,
            "col": self.fn.col_offset + 1,
            "params": list(self.pos_params),
            "wallclock": [],
            "rawrng": [],
            "draws": [],
            "param_writes": {},
            "self_write": None,
            "global_writes": [],
            "calls": [],
            "lock": None,
            "lock_ops": False,
        }
        # two pre-passes the main walk depends on: names assigned
        # locally (they shadow module globals) and locally constructed
        # receivers (x = ClassName(...) types the later x.method())
        assigned: set = set()
        declared_global: set = set()
        local_types: Dict[str, Tuple[str, bool]] = {}
        for node in walk_shallow(self.fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                t = node.targets[0]
                if isinstance(t, ast.Name):
                    assigned.add(t.id)
                    ref = self._ctor_ref(node.value)
                    if ref:
                        local_types[t.id] = (ref, True)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    assigned.add(node.target.id)
        for name, ann in self.annotations.items():
            local_types.setdefault(name, (ann, False))

        for node in walk_shallow(self.fn):
            if isinstance(node, ast.Call):
                self._scan_call(node, facts, local_types,
                                assigned, declared_global)
            elif isinstance(node, (ast.Assign, ast.AugAssign,
                                   ast.AnnAssign, ast.Delete)):
                self._scan_write(node, facts, assigned, declared_global)
        facts["lock"] = compute_lock_summary(self.fn, self.pos_params)
        return facts

    def _ctor_ref(self, value: ast.AST) -> Optional[str]:
        """``ClassName`` / ``mod.ClassName`` when ``value`` constructs an
        object whose type the resolver may know."""
        if not isinstance(value, ast.Call):
            return None
        ref = dotted_name(value.func)
        if ref is None:
            return None
        head = ref.split(".", 1)[0]
        if head in self.all_params or head in SELF_NAMES:
            return None
        return ref

    # -- calls ---------------------------------------------------------- #

    def _scan_call(
        self, node: ast.Call, facts: Dict[str, Any],
        local_types: Dict[str, Tuple[str, bool]],
        assigned: set, declared_global: set,
    ) -> None:
        path = self.imports.resolve_call(node.func)
        if path is not None:
            mod, _, attr = path.partition(".")
            if (mod == "time" and attr in _WALLCLOCK_TIME) \
                    or path in _WALLCLOCK_DATETIME:
                facts["wallclock"].append(_site(node, f"`{path}` call"))
            if path == "random" or path.startswith("random.") \
                    or path == "numpy.random" \
                    or path.startswith("numpy.random."):
                facts["rawrng"].append(_site(node, f"raw RNG `{path}`"))
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("try_acquire", "release"):
                facts["lock_ops"] = True
            if func.attr in ("stream", "numpy_stream"):
                d = _site(node, f".{func.attr}() draw")
                d["prefix"] = _stream_prefix(node)
                facts["draws"].append(d)
            if func.attr in MUTATOR_METHODS \
                    and isinstance(func.value, (ast.Name, ast.Attribute,
                                                ast.Subscript)):
                root = target_root(func.value)
                self._record_write(
                    facts, root, node,
                    f"mutating .{func.attr}() call",
                    assigned, declared_global,
                )
        self._record_call_site(node, facts, local_types)

    def _record_call_site(
        self, node: ast.Call, facts: Dict[str, Any],
        local_types: Dict[str, Tuple[str, bool]],
    ) -> None:
        func = node.func
        rec: Dict[str, Any] = {
            "line": node.lineno,
            "col": node.col_offset + 1,
        }
        if isinstance(func, ast.Name):
            rec["kind"] = "name"
            rec["target"] = func.id
        elif isinstance(func, ast.Attribute):
            rec["target"] = func.attr
            base = func.value
            if isinstance(base, ast.Name) and base.id in SELF_NAMES:
                rec["kind"] = "self"
            else:
                rec["kind"] = "attr"
                rec["recv"] = expr_key(base)
                rec["recv_root"] = _arg_root(base)
                if isinstance(base, ast.Name) and base.id in local_types:
                    ref, fresh = local_types[base.id]
                    rec["recv_class"] = ref
                    rec["recv_fresh"] = fresh
                elif isinstance(base, ast.Call):
                    # ClassName().method(): the receiver is the
                    # just-constructed object — typed and fresh
                    ref = self._ctor_ref(base)
                    if ref is not None:
                        rec["recv_class"] = ref
                        rec["recv_fresh"] = True
        else:
            return  # call of a computed expression: unresolvable
        rec["pos_roots"] = [
            None if isinstance(a, ast.Starred) else _arg_root(a)
            for a in node.args
        ]
        kw = {
            k.arg: _arg_root(k.value)
            for k in node.keywords if k.arg is not None
        }
        if kw:
            rec["kw_roots"] = kw
        facts["calls"].append(rec)

    # -- writes --------------------------------------------------------- #

    def _scan_write(
        self, node: ast.stmt, facts: Dict[str, Any],
        assigned: set, declared_global: set,
    ) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Name):
                if t.id in declared_global:
                    self._record_write(
                        facts, t.id, t, f"assigns global `{t.id}`",
                        assigned, declared_global, force_global=True)
                continue
            if not isinstance(t, (ast.Attribute, ast.Subscript)):
                continue
            root = target_root(t)
            self._record_write(
                facts, root, t, f"writes through `{root}`",
                assigned, declared_global)

    def _record_write(
        self, facts: Dict[str, Any], root: Optional[str], node: ast.AST,
        desc: str, assigned: set, declared_global: set,
        force_global: bool = False,
    ) -> None:
        if root is None:
            return
        if root in SELF_NAMES:
            if facts["self_write"] is None:
                facts["self_write"] = _site(node, desc)
        elif root in self.all_params:
            facts["param_writes"].setdefault(root, _site(node, desc))
        elif force_global or (
            root in self.module_globals
            and root not in assigned
            and root not in declared_global
        ):
            facts["global_writes"].append(_site(node, desc))


def extract_module_facts(
    relpath: str, tree: ast.Module
) -> Dict[str, Any]:
    """The JSON-able fact record of one parsed module."""
    imports = ImportMap(tree)
    module_funcs: List[str] = []
    classes: Dict[str, Dict[str, Any]] = {}
    global_names: List[str] = []
    functions: Dict[str, Dict[str, Any]] = {}

    def add_function(fn, qualname, cls):
        scanner = _FunctionScanner(
            fn, qualname, cls, imports, tuple(global_names))
        functions[qualname] = scanner.scan()
        for child in ast.walk(fn):
            if child is fn:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # only direct nesting: deeper levels recurse in turn
                if _encloses_directly(fn, child):
                    add_function(
                        child, f"{qualname}.<locals>.{child.name}", cls)

    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for t in targets:
                if isinstance(t, ast.Name):
                    global_names.append(t.id)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_funcs.append(stmt.name)
            add_function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            bases = [dotted_name(b) for b in stmt.bases]
            methods: List[str] = []
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(sub.name)
                    add_function(sub, f"{stmt.name}.{sub.name}", stmt.name)
            classes[stmt.name] = {
                "bases": [b for b in bases if b],
                "methods": methods,
            }

    return {
        "path": relpath,
        "imports": dict(sorted(imports.aliases.items())),
        "module_funcs": module_funcs,
        "classes": classes,
        "globals": sorted(set(global_names)),
        "functions": functions,
        "has_locks": any(
            f["lock_ops"] or f["lock"] is not None
            for f in functions.values()
        ),
    }


def _encloses_directly(outer: ast.AST, inner: ast.AST) -> bool:
    """True when ``inner`` is nested in ``outer`` with no function
    scope in between."""
    stack = [outer]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if child is inner:
                return True
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)
    return False
