"""INV003 — replay/training paths stay byte-deterministic.

The continual loop's contract (PR 8, ``docs/ONLINE.md``): rerunning a
training round over the same journal produces byte-identical weights,
which only holds while every random stream derives from
``repro.utils.seeding.derive_rng`` and nothing reads wall-clock state.
This rule bans, inside the deterministic scope (``core/``, ``online/``,
``cluster/wal.py``):

* the stdlib ``random`` module (import or use) — process-global,
  seed-order-dependent state;
* ``time.time()`` / ``time.time_ns()`` and argless
  ``datetime.now()`` / ``utcnow()`` / ``today()`` — wall clock leaking
  into results;
* global NumPy RNG state: any ``numpy.random`` attribute that is not a
  generator *constructor* (``default_rng``, ``Generator``,
  ``SeedSequence``, bit generators), plus ``default_rng()`` called
  without a seed.

``np.random.default_rng(seed)`` with an explicit seed is allowed — it
is how the trainer's golden RNG streams are anchored; converting those
call sites to ``derive_rng`` would change the streams and break the
golden tests.  A deliberate exception (e.g. jitter in a benchmark
helper) takes an inline
``# invariants: disable=INV003 -- reason`` suppression.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .common import Finding, Module, dotted_name

CODE = "INV003"

#: numpy.random attributes that construct explicit generators (fine)
#: rather than touching the hidden global RandomState (not fine).
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

_WALL_CLOCK = frozenset({"time.time", "time.time_ns"})
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})


def _numpy_aliases(tree: ast.AST) -> Set[str]:
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _symbol_of(tree: ast.AST, target: ast.AST) -> str:
    symbol = ""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            for child in ast.walk(node):
                if child is target:
                    symbol = node.name
    return symbol


def check_module(module: Module) -> List[Finding]:
    tree = module.tree
    findings: List[Finding] = []
    numpy_names = _numpy_aliases(tree)

    def flag(node: ast.AST, message: str) -> None:
        findings.append(Finding(CODE, module.rel, node.lineno,
                                _symbol_of(tree, node), message))

    def np_random_attr(dotted: Optional[str]) -> Optional[str]:
        """The trailing attribute of ``<np alias>.random.X``, if any."""
        if dotted is None:
            return None
        parts = dotted.split(".")
        if len(parts) >= 3 and parts[0] in numpy_names \
                and parts[1] == "random":
            return parts[2]
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or \
                        alias.name.startswith("random."):
                    flag(node, "imports stdlib 'random' (process-global "
                               "RNG; derive streams via derive_rng)")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                flag(node, "imports from stdlib 'random' "
                           "(process-global RNG; use derive_rng)")
            elif node.module == "numpy.random":
                banned = [alias.name for alias in node.names
                          if alias.name not in _NP_RANDOM_OK]
                if banned:
                    flag(node, f"imports global numpy.random state "
                               f"({', '.join(banned)}); construct an "
                               f"explicit Generator instead")
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in _WALL_CLOCK:
                flag(node, f"calls {dotted}() (wall clock in a "
                           f"deterministic path)")
                continue
            attr = np_random_attr(dotted)
            if attr is not None:
                if attr not in _NP_RANDOM_OK:
                    flag(node, f"uses global numpy RNG state "
                               f"'{dotted}' (pass an explicit "
                               f"np.random.Generator)")
                elif attr == "default_rng" and not node.args \
                        and not node.keywords:
                    flag(node, "calls default_rng() without a seed "
                               "(nondeterministic entropy; derive the "
                               "seed via derive_rng/stable_hash)")
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _DATETIME_NOW \
                    and not node.args and not node.keywords:
                base = dotted_name(node.func.value) or ""
                tail = base.rsplit(".", 1)[-1]
                if tail in ("datetime", "date"):
                    flag(node, f"calls {base}.{node.func.attr}() "
                               f"(wall clock in a deterministic path)")
        elif isinstance(node, ast.Attribute):
            # Bare global-RNG attribute use outside a call, e.g.
            # handing np.random.shuffle around as a callable.
            attr = np_random_attr(dotted_name(node))
            if attr is not None and attr not in _NP_RANDOM_OK \
                    and not isinstance(node.ctx, ast.Store):
                parent_calls = {id(n.func) for n in ast.walk(tree)
                                if isinstance(n, ast.Call)}
                if id(node) not in parent_calls:
                    flag(node, f"references global numpy RNG state "
                               f"'{dotted_name(node)}'")
    return findings
