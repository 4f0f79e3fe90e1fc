"""INV002 — taxonomy errors are values, never exceptions.

The serving protocol's contract (PR 4, ``docs/API.md``): a
:class:`~repro.serve.protocol.ServiceError` travels back to the caller
as a *returned value* with a ``code`` and an HTTP status — raising one
would tear a batch apart and bypass the per-query error placement the
scatter-gather router depends on.  This rule resolves the taxonomy
class hierarchy from ``serve/protocol.py`` (transitive subclasses of
``ServiceError``, by name) and flags every ``raise`` of a taxonomy
type anywhere in the serving and cluster request paths.

Plain exceptions (``ValueError`` for programmer errors, I/O errors,
``SegmentCorruption``) remain legitimate raises: they signal broken
invariants, not per-query outcomes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Set

from .common import Finding, Module, scoped_nodes

CODE = "INV002"

#: Root of the errors-as-values hierarchy.
TAXONOMY_ROOT = "ServiceError"


def taxonomy_from(protocol_path: Path) -> Set[str]:
    """Transitive subclasses of ``ServiceError`` (root included),
    resolved by base-class *name* so no import is needed."""
    try:
        tree = ast.parse(protocol_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError, ValueError):
        return set()
    bases = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = {b.id for b in node.bases
                                if isinstance(b, ast.Name)}
    taxonomy = {TAXONOMY_ROOT} if TAXONOMY_ROOT in bases else set()
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            if name not in taxonomy and parents & taxonomy:
                taxonomy.add(name)
                changed = True
    return taxonomy


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def check_module(module: Module, taxonomy: Set[str]) -> List[Finding]:
    if not taxonomy:
        return []
    findings: List[Finding] = []
    for node, symbol in scoped_nodes(module.tree, ast.Raise):
        name = _raised_name(node)
        if name in taxonomy:
            findings.append(Finding(
                CODE, module.rel, node.lineno, symbol,
                f"raises taxonomy error '{name}' — taxonomy errors are "
                f"returned as values, never raised"))
    return findings
