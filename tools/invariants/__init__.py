"""Repo-specific invariant lint suite (``python -m tools.invariants``).

Six AST-based rules guard the contracts the serving stack is built
on (see ``docs/ANALYSIS.md``):

* **INV001** (:mod:`.locks`) — lock-guarded attributes are only
  touched under ``with self._lock:`` or in a
  ``# invariant: holds-lock`` helper.
* **INV002** (:mod:`.raises`) — taxonomy errors
  (``ServiceError`` subclasses) are returned as values, never raised.
* **INV003** (:mod:`.determinism`) — no wall clock or global RNG in
  the byte-deterministic training/replay paths.
* **INV004** (:mod:`.durability`) — WAL/snapshot writes keep the
  fsync-before-rename / write-then-fsync / durable-delete patterns.
* **INV005** (:mod:`.timeimports`) — serve/cluster modules read the
  injectable obs clock, never ``time`` or ``datetime`` directly.
* **INV006** (:mod:`.privacy`) — serve/cluster modules touch another
  module's ``_``-prefixed names only through its public interface.

INV000 is the meta-rule: a ``# invariants: disable=...`` suppression
without a reason is itself a finding.
"""

from .common import Finding, Module, load_module  # noqa: F401
from .runner import (ALL_RULES, RULE_SCOPES, collect_findings,  # noqa: F401
                     main)
