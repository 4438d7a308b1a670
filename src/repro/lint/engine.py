"""The lint engine: file discovery, rule registry, suppressions.

``repro.lint`` is a *sim-safety* analyzer: its rules encode the
contracts the reproduction's correctness rests on (determinism,
zero-perturbation observability, trylock discipline, API usage) and
checks them statically, whole-program, at CI time — the complement of
the runtime monitors in :mod:`repro.check`.

Rules come in two scopes.  *File* rules see one parsed module at a
time.  *Program* rules see a :class:`ProgramContext` — every module's
effect facts (:mod:`repro.lint.summaries`) linked into a call graph
(:mod:`repro.lint.callgraph`) — and report findings that carry the
witnessing call chain.  File-scope work (parsing, file rules, fact
extraction, suppression scanning) is cached per module content hash
(:mod:`repro.lint.cache`), so warm whole-tree runs re-parse nothing
but the few lock-relevant files the L-rules re-analyze.

Everything here is deliberately deterministic: files are visited in
sorted order and findings are reported in a stable sort — so two runs
of the linter on the same tree are byte-identical regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: bumped whenever analysis semantics change — invalidates every cache
#: entry written by earlier analyzer versions
ANALYZER_VERSION = "3"


@dataclass(frozen=True)
class Rule:
    """One registered rule: an id, a short name, and a check function."""

    rule_id: str
    name: str
    summary: str
    check: Callable[..., Iterable["Finding"]]
    #: "file" checks get a FileContext, "program" checks a ProgramContext
    scope: str = "file"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, what, and how to fix it."""

    path: str  # repo-relative, posix separators
    line: int
    col: int
    rule_id: str
    message: str
    hint: str = ""
    #: interprocedural witness: (path, line, label) hops from the
    #: reporting site down to the direct evidence
    chain: Tuple[Tuple[str, int, str], ...] = ()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


#: global registry, populated by the rule modules at import time
RULES: Dict[str, Rule] = {}


def rule(rule_id: str, name: str, summary: str):
    """Decorator registering a file-scope check under ``rule_id``."""

    def deco(fn: Callable[["FileContext"], Iterable[Finding]]):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, name, summary, fn, "file")
        return fn

    return deco


def program_rule(rule_id: str, name: str, summary: str):
    """Decorator registering a program-scope (whole-tree) check."""

    def deco(fn: Callable[["ProgramContext"], Iterable[Finding]]):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, name, summary, fn, "program")
        return fn

    return deco


def _engine_emitted(ctx: "FileContext") -> Iterable[Finding]:
    """Placeholder check for rules the engine emits itself."""
    return ()


# Meta rules are produced by the engine (suppression hygiene, parse
# failures), not by a per-file check pass; register descriptors so they
# are selectable and carry real metadata in SARIF output.
for _rid, _name, _summary in (
    ("S001", "reasonless-suppression",
     "suppression comment carries no reason text"),
    ("S002", "unused-suppression",
     "suppression comment matched no finding — stale, delete it"),
    ("E000", "parse-error", "file does not parse"),
):
    RULES[_rid] = Rule(_rid, _name, _summary, _engine_emitted)
del _rid, _name, _summary


@dataclass
class LintConfig:
    """What to lint and which contracts apply where.

    Paths in the ``*_dirs`` / ``*_allow`` tuples are repo-relative
    posix prefixes matched against each file's path.
    """

    root: str = "."
    #: directories/files to lint, relative to root
    paths: Tuple[str, ...] = ("src/repro",)
    #: rule ids to run (empty = all registered)
    select: Tuple[str, ...] = ()
    #: the one module allowed to construct raw RNGs
    rng_module: str = "src/repro/sim/rng.py"
    #: subtrees that legitimately live in wall-clock time
    wallclock_allow: Tuple[str, ...] = (
        "src/repro/campaign/",
        "src/repro/check/oracle.py",
        "src/repro/cli.py",
        "src/repro/lint/",
        "tools/",
    )
    #: observer subtrees bound by the zero-perturbation contract
    observer_dirs: Tuple[str, ...] = (
        "src/repro/trace/",
        "src/repro/metrics/",
        "src/repro/check/",
    )
    #: files inside observer dirs that *drive* monitored runs (they
    #: build machines and execute workloads), so transitive draw/write
    #: reach is inherent — P003/P004 skip them; P001/P002 still apply
    observer_driver_files: Tuple[str, ...] = (
        "src/repro/check/oracle.py",
        "src/repro/check/runner.py",
    )
    #: checkpoint purity (C-rules): everything reachable from these
    #: functions must be write-free and draw-free
    checkpoint_module: str = "src/repro/sim/snapshot.py"
    checkpoint_roots: Tuple[str, ...] = ("capture", "verify")
    #: generator purity (G-rules): the trace catalogue must be a pure
    #: function of (spec, seed) drawing only from these stream families
    generator_module: str = "src/repro/traffic/generators.py"
    generator_stream_prefixes: Tuple[str, ...] = ("traffic.", "faults.")


@dataclass
class Suppression:
    """An inline ``# repro: allow[rule-id] reason`` comment."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: str
    used: bool = False


_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_,\- ]+)\]\s*(.*)$"
)


def parse_suppressions(source: str) -> List[Suppression]:
    """Scan real ``#`` comments (via :mod:`tokenize`, so the marker
    inside a string literal or docstring is never mistaken for one)."""
    out: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m:
                ids = tuple(
                    s.strip() for s in m.group(1).split(",") if s.strip()
                )
                out.append(Suppression(tok.start[0], ids, m.group(2).strip()))
    except tokenize.TokenError:  # unterminated something; parser catches it
        pass
    return out


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, relpath: str, source: str, config: LintConfig):
        self.path = relpath  # posix, repo-relative
        self.tree = ast.parse(source, filename=relpath)
        self.config = config

    # -- path predicates ----------------------------------------------- #

    def under(self, *prefixes: str) -> bool:
        return any(self.path.startswith(p) for p in prefixes)

    @property
    def is_rng_module(self) -> bool:
        return self.path == self.config.rng_module

    @property
    def wallclock_allowed(self) -> bool:
        return self.under(*self.config.wallclock_allow)

    @property
    def is_observer(self) -> bool:
        return self.under(*self.config.observer_dirs)

    # -- helpers -------------------------------------------------------- #

    def finding(
        self, node: ast.AST, rule_id: str, message: str, hint: str = "",
        chain: Tuple[Tuple[str, int, str], ...] = (),
    ) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            hint=hint,
            chain=chain,
        )


class ProgramContext:
    """What a program-scope rule sees: every module's facts linked into
    a call graph, plus lazily parsed per-file contexts for rules (the
    L-family) that need real ASTs."""

    def __init__(
        self,
        config: LintConfig,
        sources: Dict[str, str],
        facts: Dict[str, Dict[str, Any]],
    ):
        from repro.lint.callgraph import Program

        self.config = config
        self.sources = sources
        self.facts = facts
        self.program = Program(facts, config)
        self._contexts: Dict[str, FileContext] = {}
        #: scratch space for cross-rule shared analyses
        self.memo: Dict[Any, Any] = {}

    def file_context(self, path: str) -> FileContext:
        ctx = self._contexts.get(path)
        if ctx is None:
            ctx = FileContext(path, self.sources[path], self.config)
            self._contexts[path] = ctx
        return ctx

    # -- path predicates (no parse required) ---------------------------- #

    def is_observer(self, path: str) -> bool:
        return any(path.startswith(p) for p in self.config.observer_dirs)

    def wallclock_allowed(self, path: str) -> bool:
        return any(path.startswith(p) for p in self.config.wallclock_allow)

    def finding(
        self, path: str, line: int, col: int, rule_id: str, message: str,
        hint: str = "", chain: Tuple[Tuple[str, int, str], ...] = (),
    ) -> Finding:
        return Finding(path=path, line=line, col=col, rule_id=rule_id,
                       message=message, hint=hint, chain=chain)


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    #: findings silenced by an inline suppression (kept for reporting)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    #: summary-cache statistics (zero when run without a cache)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule_id] = out.get(f.rule_id, 0) + 1
        return dict(sorted(out.items()))


class UsageError(ValueError):
    """An unknown rule id, or a lint path that does not exist."""


def discover_files(config: LintConfig) -> List[str]:
    """Repo-relative posix paths of every ``.py`` under config.paths,
    sorted for deterministic visit order."""
    found = []
    for base in config.paths:
        full = os.path.join(config.root, base)
        if not os.path.exists(full):
            raise UsageError(f"no such file or directory: {full}")
        if os.path.isfile(full):
            if full.endswith(".py"):
                found.append(base)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for fn in filenames:
                if not fn.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn), config.root)
                found.append(rel.replace(os.sep, "/"))
    return sorted(set(found))


def config_digest(config: LintConfig, rules: List[Rule]) -> str:
    """Hash of everything (besides file content) a cached per-module
    analysis depends on."""
    basis = json.dumps({
        "analyzer": ANALYZER_VERSION,
        "rng_module": config.rng_module,
        "wallclock_allow": list(config.wallclock_allow),
        "observer_dirs": list(config.observer_dirs),
        "observer_driver_files": list(config.observer_driver_files),
        "checkpoint_module": config.checkpoint_module,
        "checkpoint_roots": list(config.checkpoint_roots),
        "generator_module": config.generator_module,
        "generator_stream_prefixes": list(config.generator_stream_prefixes),
        "rules": sorted(r.rule_id for r in rules),
    }, sort_keys=True)
    return hashlib.sha256(basis.encode()).hexdigest()[:16]


def finding_to_dict(f: Finding) -> Dict[str, Any]:
    return {
        "path": f.path, "line": f.line, "col": f.col, "rule": f.rule_id,
        "message": f.message, "hint": f.hint,
        "chain": [list(hop) for hop in f.chain],
    }


def finding_from_dict(d: Dict[str, Any]) -> Finding:
    return Finding(
        path=d["path"], line=d["line"], col=d["col"], rule_id=d["rule"],
        message=d["message"], hint=d.get("hint", ""),
        chain=tuple(
            (hop[0], hop[1], hop[2]) for hop in d.get("chain", ())
        ),
    )


def _selected_rules(config: LintConfig) -> List[Rule]:
    # import-for-effect: rule modules self-register on first import
    from repro.lint import (  # noqa: F401
        api,
        contracts,
        determinism,
        locks,
        perturbation,
    )

    if config.select:
        unknown = [r for r in config.select if r not in RULES]
        if unknown:
            raise UsageError(f"unknown rule id(s): {', '.join(unknown)}")
        ids = list(config.select)
    else:
        ids = list(RULES)
    return [RULES[r] for r in sorted(ids)]


def _analyze_file(
    relpath: str, source: str, config: LintConfig, file_rules: List[Rule]
) -> Dict[str, Any]:
    """File-scope analysis of one module — everything cacheable: file
    rule findings, suppression comments, and the effect facts."""
    try:
        ctx = FileContext(relpath, source, config)
    except SyntaxError as exc:
        f = Finding(
            path=relpath, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            rule_id="E000", message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error; the linter cannot analyse this file",
        )
        return {"findings": [finding_to_dict(f)], "suppressions": [],
                "facts": None}

    from repro.lint.summaries import extract_module_facts

    raw: List[Finding] = []
    for r in file_rules:
        raw.extend(r.check(ctx))
    raw = sorted(set(raw))  # rules may visit nested scopes twice
    suppressions = parse_suppressions(source)
    return {
        "findings": [finding_to_dict(f) for f in raw],
        "suppressions": [
            {"line": s.line, "rule_ids": list(s.rule_ids),
             "reason": s.reason}
            for s in suppressions
        ],
        "facts": extract_module_facts(relpath, ctx.tree),
    }


def _apply_suppressions(
    raw: List[Finding],
    suppressions: List[Suppression],
    lines: List[str],
    rule_ids: set,
    config: LintConfig,
    relpath: str,
) -> Tuple[List[Finding], List[Finding]]:
    """Match inline suppressions against findings; appends the S001 /
    S002 hygiene findings.  Returns (active, suppressed)."""

    def line_text(n: int) -> str:
        return lines[n - 1] if 1 <= n <= len(lines) else ""

    by_line: Dict[int, List[Suppression]] = {}
    for s in suppressions:
        by_line.setdefault(s.line, []).append(s)
        # a comment on its own line covers the next code line (skipping
        # blank lines and the comment block it belongs to)
        if line_text(s.line).lstrip().startswith("#"):
            nxt = s.line + 1
            while nxt <= len(lines) and (
                not line_text(nxt).strip()
                or line_text(nxt).lstrip().startswith("#")
            ):
                nxt += 1
            by_line.setdefault(nxt, []).append(s)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    for f in raw:
        match = None
        for s in by_line.get(f.line, ()):
            if f.rule_id in s.rule_ids:
                match = s
                break
        if match is not None:
            match.used = True
            suppressed.append(f)
        else:
            active.append(f)

    # meta rules: suppressions must carry a reason and must be load-bearing
    for s in suppressions:
        if "S001" in rule_ids or not config.select:
            if not s.reason:
                active.append(Finding(
                    path=relpath, line=s.line, col=1, rule_id="S001",
                    message=(
                        f"suppression allow[{','.join(s.rule_ids)}] "
                        "has no reason"),
                    hint="write the justification after the ]: "
                         "`# repro: allow[rule-id] <why this is safe>`",
                ))
        if "S002" in rule_ids or not config.select:
            # only judge "unused" when every rule the comment targets
            # actually ran — under --rule subsets a suppression for an
            # unselected rule matches nothing by construction
            if not s.used and s.reason and set(s.rule_ids) <= rule_ids:
                active.append(Finding(
                    path=relpath, line=s.line, col=1, rule_id="S002",
                    message=(
                        f"unused suppression allow[{','.join(s.rule_ids)}]"
                        " matches no finding"),
                    hint="delete the stale comment (or fix the rule id)",
                ))
    return active, suppressed


def lint_file(relpath: str, source: str, config: LintConfig
              ) -> Tuple[List[Finding], List[Finding]]:
    """Lint one in-memory module through :func:`run_lint`'s pipeline;
    returns (active findings, suppressed findings).

    Program rules run over the single-file program, so cross-function
    patterns within the file (a helper releasing its caller's lock) are
    analyzed exactly as in a whole-tree run.
    """
    result = _lint_sources(config, {relpath: source})
    return result.findings, result.suppressed


def run_lint(config: LintConfig, cache=None) -> LintResult:
    """Lint every file under ``config.paths``.

    ``cache`` is an optional :class:`repro.lint.cache.SummaryCache`;
    cached modules skip parsing, file rules, and fact extraction."""
    sources: Dict[str, str] = {}
    for relpath in discover_files(config):
        with open(os.path.join(config.root, relpath), encoding="utf-8") as fh:
            sources[relpath] = fh.read()
    return _lint_sources(config, sources, cache)


def _lint_sources(
    config: LintConfig, sources: Dict[str, str], cache=None
) -> LintResult:
    """Analyse each module (or load it from ``cache``), run the program
    rules over all of them, then apply each file's suppressions."""
    rules = _selected_rules(config)
    file_rules = [r for r in rules if r.scope == "file"]
    program_rules = [r for r in rules if r.scope == "program"]
    rule_ids = {r.rule_id for r in rules}
    digest = config_digest(config, rules)

    result = LintResult()
    entries: Dict[str, Dict[str, Any]] = {}
    for relpath in sorted(sources):
        entry = None
        if cache is not None:
            entry = cache.load(relpath, sources[relpath], digest)
        if entry is None:
            entry = _analyze_file(
                relpath, sources[relpath], config, file_rules)
            if cache is not None:
                cache.store(relpath, sources[relpath], digest, entry)
        entries[relpath] = entry
        result.files += 1
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses

    program_findings: Dict[str, List[Finding]] = {}
    if program_rules:
        facts = {
            p: e["facts"] for p, e in entries.items()
            if e["facts"] is not None
        }
        pc = ProgramContext(config, sources, facts)
        for r in program_rules:
            for f in r.check(pc):
                program_findings.setdefault(f.path, []).append(f)

    for relpath in sorted(sources):
        e = entries[relpath]
        raw = [finding_from_dict(d) for d in e["findings"]]
        raw.extend(program_findings.get(relpath, ()))
        raw = sorted(set(raw))
        supp = [
            Suppression(d["line"], tuple(d["rule_ids"]), d["reason"])
            for d in e["suppressions"]
        ]
        active, suppressed = _apply_suppressions(
            raw, supp, sources[relpath].splitlines(), rule_ids,
            config, relpath)
        result.findings.extend(active)
        result.suppressed.extend(suppressed)

    result.findings.sort()
    result.suppressed.sort()
    return result


# re-exported for rule modules
__all__ = [
    "ANALYZER_VERSION", "Finding", "Rule", "RULES", "rule", "program_rule",
    "LintConfig", "FileContext", "ProgramContext", "LintResult",
    "UsageError", "run_lint", "lint_file", "discover_files",
    "config_digest", "finding_to_dict", "finding_from_dict",
    "parse_suppressions", "Suppression",
]
