"""INV006 — module privacy: no reach-ins to another module's privates.

A leading underscore marks a name as its module's own business.  When
``service.py`` calls ``engine._window_start`` or takes
``engine._lock``, the engine can no longer rename, split or re-lock its
internals without breaking a caller it cannot see; the engine's public
interface (``window_start``, ``score_rows``, ...) is the contract.

Inside the serving scope (``serve/``, ``cluster/``) two things are
findings.  An import ``from m import _name`` always is: the importer
now depends on a name ``m`` never promised to keep.  An attribute
access ``x._name`` is one when

* ``x`` is not ``self``, ``cls`` or ``super()``, and
* nothing in the same module defines ``_name``: no ``def`` or
  ``class`` of that name, no binding of it, and no assignment to an
  attribute of it (``handle._log_file = ...``).

Same-module accesses therefore pass (``engine.py``'s
``standby._lock = self._lock``, ``supervisor.py``'s
``handle._log_file``), and so do dunders (``type(e).__name__``,
``from __future__ import annotations``).  An import binds a name but
defines nothing: touching an imported private's attributes is a
reach-in too.  A deliberate exception takes an inline
``# invariants: disable=INV006 -- reason`` on the flagged line (for a
multi-line import, the line holding ``from``).
"""

from __future__ import annotations

import ast
from typing import List, Set

from .common import Finding, Module, scoped_nodes

CODE = "INV006"

#: Receivers whose privates are the enclosing class's own.
_OWN_RECEIVERS = ("self", "cls")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _is_own(receiver: ast.AST) -> bool:
    if isinstance(receiver, ast.Name):
        return receiver.id in _OWN_RECEIVERS
    return (isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super")


def defined_names(tree: ast.AST) -> Set[str]:
    """Every name this module defines: defs, classes, bindings (module,
    class body, function locals, parameters) and attribute stores."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def _import_findings(module: Module, node: ast.ImportFrom,
                     symbol: str) -> List[Finding]:
    source = "." * node.level + (node.module or "")
    return [Finding(CODE, module.rel, node.lineno, symbol,
                    f"'from {source} import {alias.name}' imports a "
                    f"private name of another module (use the owner's "
                    f"public interface)")
            for alias in node.names if _is_private(alias.name)]


def check_module(module: Module) -> List[Finding]:
    defined = defined_names(module.tree)
    findings: List[Finding] = []
    for node, symbol in scoped_nodes(module.tree,
                                     (ast.Attribute, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom):
            findings.extend(_import_findings(module, node, symbol))
            continue
        name = node.attr
        if not _is_private(name) or name in defined \
                or _is_own(node.value):
            continue
        findings.append(Finding(
            CODE, module.rel, node.lineno, symbol,
            f"'{ast.unparse(node.value)}.{name}' reaches into a private "
            f"name this module does not define (use the owner's public "
            f"interface)"))
    return findings
