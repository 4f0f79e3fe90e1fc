"""Shared plumbing for the invariant checkers.

Everything here is rule-agnostic: the :class:`Finding` record, the
per-file :class:`Module` bundle (source, AST, comment map), the
``# invariants: disable=INVxxx -- reason`` suppression syntax, and the
``# invariant: holds-lock`` helper annotation.  Rules consume a
:class:`Module` and yield :class:`Finding`\\ s; the runner applies
suppressions and the baseline afterwards, so rules never need to know
about either.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

#: Suppression comment: ``# invariants: disable=INV001[,INV004] -- why``.
#: The reason after ``--`` is mandatory; a bare disable is itself a
#: finding (INV000) so grandfathered noise cannot accumulate silently.
SUPPRESS_RE = re.compile(
    r"#\s*invariants:\s*disable=([A-Z0-9,\s]+?)\s*(?:--\s*(.*))?$")

#: Lock-holding helper annotation, placed on the ``def`` line or the
#: line directly above it: ``# invariant: holds-lock``.
HOLDS_LOCK_RE = re.compile(r"#\s*invariant:\s*holds-lock\b")

#: Meta-code for misuse of the suppression syntax itself.
META_CODE = "INV000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str      # INV001..INV004 (INV000 for suppression misuse)
    path: str      # repo-relative posix path
    line: int
    symbol: str    # enclosing "Class.method" / "function" ("" at module level)
    message: str   # stable text: no line numbers, safe as a baseline key

    def fingerprint(self) -> dict:
        """Line-number-free identity used by the baseline file, so a
        grandfathered finding survives unrelated edits above it."""
        return {"code": self.code, "path": self.path,
                "symbol": self.symbol, "message": self.message}

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.code}{where} {self.message}"


@dataclass(frozen=True)
class Suppression:
    line: int
    codes: Set[str]
    reason: str


@dataclass
class Module:
    """One parsed source file plus its comment-derived metadata."""

    path: Path            # absolute
    rel: str              # repo-relative posix path (finding identity)
    text: str
    tree: ast.AST
    comments: Dict[int, str] = field(default_factory=dict)

    @property
    def suppressions(self) -> Dict[int, Suppression]:
        cached = getattr(self, "_suppressions", None)
        if cached is None:
            cached = {}
            for line, comment in self.comments.items():
                match = SUPPRESS_RE.search(comment)
                if match is None:
                    continue
                codes = {c.strip() for c in match.group(1).split(",")
                         if c.strip()}
                reason = (match.group(2) or "").strip()
                cached[line] = Suppression(line, codes, reason)
            self._suppressions = cached
        return cached

    def holds_lock_lines(self) -> Set[int]:
        """Lines carrying the ``# invariant: holds-lock`` annotation."""
        return {line for line, comment in self.comments.items()
                if HOLDS_LOCK_RE.search(comment)}

    def is_holds_lock(self, node: ast.AST) -> bool:
        """True when ``node`` (a function def) is annotated as a
        lock-holding helper — comment on the def line or directly
        above it."""
        lines = self.holds_lock_lines()
        return node.lineno in lines or node.lineno - 1 in lines


def comment_map(text: str) -> Dict[int, str]:
    """Line -> comment text, via the tokenizer (immune to ``#`` inside
    string literals, which a regex scan is not)."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def load_module(path: Path, root: Path) -> Optional[Module]:
    """Parse one file into a :class:`Module`; None when unparseable
    (a syntactically broken file is the test suite's problem, not the
    invariant layer's)."""
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
    except (OSError, SyntaxError, ValueError):
        return None
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    return Module(path=path, rel=rel, text=text, tree=tree,
                  comments=comment_map(text))


def suppression_findings(module: Module) -> List[Finding]:
    """INV000 findings for malformed suppression comments."""
    findings = []
    for suppression in module.suppressions.values():
        if not suppression.codes:
            findings.append(Finding(
                META_CODE, module.rel, suppression.line, "",
                "suppression names no rule codes "
                "(use: # invariants: disable=INVxxx -- reason)"))
        elif not suppression.reason:
            findings.append(Finding(
                META_CODE, module.rel, suppression.line, "",
                "suppression must carry a reason "
                "(# invariants: disable=INVxxx -- reason)"))
    return findings


def apply_suppressions(module: Module,
                       findings: List[Finding]) -> tuple:
    """Split findings into (kept, suppressed) per inline disables.

    A suppression applies to findings on its own line only, and never
    to INV000 (the meta-rule about suppressions themselves).
    """
    kept, suppressed = [], []
    table = module.suppressions
    for finding in findings:
        suppression = table.get(finding.line)
        if (suppression is not None and suppression.reason
                and finding.code != META_CODE
                and finding.code in suppression.codes):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def scoped_nodes(tree: ast.AST, types):
    """Yield ``(node, symbol)`` for every node of ``types``, with its
    enclosing ``"Class.method"``-style symbol (``""`` at module level)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                yield from walk(child, inner)
            else:
                if isinstance(child, types):
                    yield child, scope
                yield from walk(child, scope)
    yield from walk(tree, "")


def self_attribute(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``, else None."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None
