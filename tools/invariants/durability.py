"""INV004 — journal file writes follow the durability protocol.

The journal's crash-safety story (PR 6, ``docs/CLUSTER.md``) rests on
three file-system patterns that are easy to break in a refactor and
invisible to tests that never lose power:

* **write-then-fsync** — any function that writes file bytes
  (``.write`` / ``.writelines`` / ``.truncate`` / ``Path.write_bytes``
  / ``Path.write_text``) must also call ``os.fsync`` (the fsync may be
  policy-gated — lexical presence is the contract; semantics live in
  the journal tests);
* **fsync-before-rename** — a function calling ``os.replace`` /
  ``os.rename`` must fsync the file *before* the rename (tmp-file
  protocol) and fsync the directory entry afterwards
  (``fsync_directory``);
* **durable deletes** — a function unlinking files must fsync the
  directory entry, or the delete can un-happen across power loss.

Flush-without-fsync is flagged too (seal paths: ``flush`` alone only
reaches the OS page cache).  Scope: ``cluster/wal.py``, which makes
every journal file write, and ``cluster/journal.py``, which must make
none.
"""

from __future__ import annotations

import ast
from typing import List

from .common import Finding, Module, dotted_name

CODE = "INV004"

_WRITE_METHODS = frozenset({
    "write", "writelines", "truncate", "write_bytes", "write_text",
})
_RENAME_CALLS = frozenset({"os.replace", "os.rename"})
_DIR_FSYNC = frozenset({"fsync_directory"})


class _FunctionFacts:
    def __init__(self, name: str, symbol: str, lineno: int):
        self.name = name
        self.symbol = symbol
        self.lineno = lineno
        self.write_lines: List[int] = []
        self.rename_lines: List[int] = []
        self.flush_lines: List[int] = []
        self.unlink_lines: List[int] = []
        self.fsync_lines: List[int] = []
        self.dir_fsync_lines: List[int] = []


def _classify(node: ast.Call, facts: _FunctionFacts) -> None:
    dotted = dotted_name(node.func)
    line = node.lineno
    if dotted in _RENAME_CALLS:
        facts.rename_lines.append(line)
    elif dotted == "os.fsync":
        facts.fsync_lines.append(line)
    elif dotted is not None \
            and dotted.rsplit(".", 1)[-1] in _DIR_FSYNC:
        facts.dir_fsync_lines.append(line)
    elif isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in _WRITE_METHODS:
            facts.write_lines.append(line)
        elif attr == "flush":
            facts.flush_lines.append(line)
        elif attr == "unlink":
            facts.unlink_lines.append(line)


def _collect(func: ast.AST, symbol: str) -> _FunctionFacts:
    facts = _FunctionFacts(func.name, symbol, func.lineno)

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue   # nested defs get their own facts
            if isinstance(child, ast.Call):
                _classify(child, facts)
            visit(child)

    visit(func)
    return facts


def _functions(tree: ast.AST):
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                symbol = f"{scope}.{child.name}" if scope else child.name
                yield child, symbol
                yield from walk(child, symbol)
            else:
                yield from walk(child, scope)
    yield from walk(tree, "")


def check_module(module: Module) -> List[Finding]:
    findings: List[Finding] = []

    def flag(line: int, symbol: str, message: str) -> None:
        findings.append(Finding(CODE, module.rel, line, symbol, message))

    for func, symbol in _functions(module.tree):
        facts = _collect(func, symbol)
        if facts.write_lines and not facts.fsync_lines:
            flag(facts.write_lines[0], symbol,
                 "writes file bytes without any os.fsync on the "
                 "handle (durability: write-then-fsync)")
        elif facts.flush_lines and not facts.fsync_lines:
            flag(facts.flush_lines[0], symbol,
                 "flushes without os.fsync (flush alone only reaches "
                 "the OS page cache)")
        for rename_line in facts.rename_lines:
            if not any(line < rename_line
                       for line in facts.fsync_lines):
                flag(rename_line, symbol,
                     "renames without fsyncing the file first "
                     "(fsync-before-rename)")
            if not facts.dir_fsync_lines:
                flag(rename_line, symbol,
                     "renames without fsyncing the directory entry "
                     "(fsync_directory after os.replace)")
        if facts.unlink_lines and not facts.dir_fsync_lines:
            flag(facts.unlink_lines[0], symbol,
                 "unlinks without fsyncing the directory entry "
                 "(the delete can un-happen across power loss)")
    return findings
