"""Rendering lint results: text, stable JSON, SARIF 2.1.0.

Every format is byte-deterministic: findings arrive pre-sorted from the
engine, dict keys are emitted sorted, and nothing (timestamps, absolute
paths, hash seeds) leaks host state into the output — the same property
the determinism regression test locks in for the analyzer itself.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.engine import RULES, Finding, LintResult


def render_text(result: LintResult, verbose: bool = False) -> str:
    lines: List[str] = []
    for f in result.findings:
        lines.append(f"{f.location()}: {f.rule_id} {f.message}")
        for hop_path, hop_line, label in f.chain:
            lines.append(f"    via {hop_path}:{hop_line}: {label}")
        if f.hint:
            lines.append(f"    hint: {f.hint}")
    if result.findings:
        lines.append("")
    counts = result.counts()
    total = sum(counts.values())
    parts = ", ".join(f"{rid}:{n}" for rid, n in counts.items())
    summary = (
        f"{total} finding(s) in {result.files} file(s)"
        + (f" [{parts}]" if parts else "")
    )
    if result.suppressed:
        summary += f" ({len(result.suppressed)} suppressed)"
    lines.append(summary)
    if verbose and result.suppressed:
        lines.append("suppressed:")
        for f in result.suppressed:
            lines.append(f"  {f.location()}: {f.rule_id} {f.message}")
    return "\n".join(lines)


def _finding_dict(f: Finding) -> Dict:
    out = {
        "rule": f.rule_id,
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "message": f.message,
        "hint": f.hint,
    }
    if f.chain:
        out["chain"] = [
            {"path": p, "line": n, "label": label}
            for p, n, label in f.chain
        ]
    return out


def render_json(result: LintResult) -> str:
    payload = {
        "version": 1,
        "files": result.files,
        "counts": result.counts(),
        "findings": [_finding_dict(f) for f in result.findings],
        "suppressed": [_finding_dict(f) for f in result.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0, the format CI code-scanning UIs ingest."""
    rule_ids = sorted(
        {f.rule_id for f in result.findings} | set(RULES)
    )
    rules = []
    for rid in rule_ids:
        meta = RULES.get(rid)
        rules.append({
            "id": rid,
            "name": meta.name if meta else rid,
            "shortDescription": {
                "text": meta.summary if meta else "internal finding"
            },
        })
    results = []
    for f in result.findings:
        entry = {
            "ruleId": f.rule_id,
            "ruleIndex": rule_ids.index(f.rule_id),
            "level": "error",
            "message": {
                "text": f.message + (f" — {f.hint}" if f.hint else "")
            },
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": f.line,
                        "startColumn": f.col,
                    },
                }
            }],
        }
        if f.chain:
            # the interprocedural witness: each hop of the call chain
            # from the reporting site down to the direct evidence
            entry["relatedLocations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": hop_path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": hop_line},
                    },
                    "message": {"text": label},
                }
                for hop_path, hop_line, label in f.chain
            ]
        results.append(entry)
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro/docs/LINT.md",
                    "version": "1.0.0",
                    "rules": rules,
                }
            },
            "columnKind": "unicodeCodePoints",
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///./"}},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
