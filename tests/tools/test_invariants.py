"""Fixture suite for the invariant lint rules (``tools/invariants``).

Each rule family gets at least one passing and one failing snippet, the
suppression / baseline workflows get round-trips, and — the tier-1
gate — the real repository must come back clean, exactly as the CI
``invariants`` lane runs it.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from tools.invariants import (determinism, durability, locks,  # noqa: E402
                              privacy, raises, timeimports)
from tools.invariants.common import (Module, apply_suppressions,  # noqa: E402
                                     comment_map, suppression_findings)


def make_module(source: str, rel: str = "src/repro/serve/mod.py") -> Module:
    source = textwrap.dedent(source)
    return Module(path=REPO_ROOT / rel, rel=rel, text=source,
                  tree=ast.parse(source), comments=comment_map(source))


def run_cli(*argv, cwd=REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.invariants", *argv],
        capture_output=True, text=True, cwd=cwd)


# ---------------------------------------------------------------------------
# INV001 — lock discipline
# ---------------------------------------------------------------------------
LOCKED_CLASS = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}
            self.capacity = 8   # immutable config: never guarded

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def get(self, key):
            with self._lock:
                return self._items.get(key)

        # invariant: holds-lock
        def _evict_one(self):
            self._items.popitem()

        def size_hint(self):
            return self.capacity
"""


def test_lock_rule_accepts_disciplined_class():
    assert locks.check_module(make_module(LOCKED_CLASS)) == []


def test_lock_rule_flags_unlocked_read_and_write():
    module = make_module("""
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def put(self, key, value):
                with self._lock:
                    self._items[key] = value

            def peek(self, key):
                return self._items.get(key)      # read, no lock

            def drop(self, key):
                self._items.pop(key, None)        # write, no lock
    """)
    findings = locks.check_module(module)
    assert len(findings) == 2
    assert {f.symbol for f in findings} == {"Store.peek", "Store.drop"}
    assert all(f.code == "INV001" and "_items" in f.message
               for f in findings)


def test_lock_rule_ignores_unguarded_config_attributes():
    # capacity is read without the lock in LOCKED_CLASS and that is
    # fine: it is never mutated after __init__, so it is not guarded.
    module = make_module(LOCKED_CLASS)
    assert locks.guarded_attributes(module) == {"Store": {"_items"}}


def test_lock_rule_requires_the_annotation_not_just_a_docstring():
    module = make_module("""
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def put(self, key, value):
                with self._lock:
                    self._items[key] = value
                    self._evict()

            def _evict(self):
                \"\"\"Drop one item (lock held).\"\"\"
                self._items.popitem()
    """)
    findings = locks.check_module(module)
    assert [f.symbol for f in findings] == ["Store._evict"]


# ---------------------------------------------------------------------------
# INV002 — errors as values
# ---------------------------------------------------------------------------
MINI_PROTOCOL = """
    class ServiceError:
        code = "internal_error"

    class UnknownStudent(ServiceError):
        code = "unknown_student"

    class MalformedQuery(ServiceError):
        code = "malformed_query"

    class UnsupportedVersion(MalformedQuery):
        code = "unsupported_version"
"""


def write_protocol(tmp_path: Path) -> Path:
    path = tmp_path / "protocol.py"
    path.write_text(textwrap.dedent(MINI_PROTOCOL))
    return path


def test_raise_rule_resolves_transitive_taxonomy(tmp_path):
    taxonomy = raises.taxonomy_from(write_protocol(tmp_path))
    assert taxonomy == {"ServiceError", "UnknownStudent",
                        "MalformedQuery", "UnsupportedVersion"}


def test_raise_rule_accepts_errors_returned_as_values(tmp_path):
    taxonomy = raises.taxonomy_from(write_protocol(tmp_path))
    module = make_module("""
        def handle(query):
            if query is None:
                return MalformedQuery("empty")
            if not isinstance(query, dict):
                raise ValueError("programmer error is fine")
            return {"ok": True}
    """)
    assert raises.check_module(module, taxonomy) == []


def test_raise_rule_flags_raised_taxonomy_errors(tmp_path):
    taxonomy = raises.taxonomy_from(write_protocol(tmp_path))
    module = make_module("""
        def handle(query):
            raise UnknownStudent("who?")

        class Gateway:
            def route(self, request):
                raise protocol.UnsupportedVersion("v99")
    """)
    findings = raises.check_module(module, taxonomy)
    assert [f.symbol for f in findings] == ["handle", "Gateway.route"]
    assert all(f.code == "INV002" for f in findings)


# ---------------------------------------------------------------------------
# INV003 — determinism
# ---------------------------------------------------------------------------
def test_determinism_rule_accepts_derived_generators():
    module = make_module("""
        import time
        import numpy as np
        from repro.utils.seeding import derive_rng

        def shuffle_batch(rows, seed, round_index):
            rng = derive_rng(seed, "online", round_index)
            rng.shuffle(rows)
            return rows

        def seeded(config):
            return np.random.default_rng(config.seed)

        def elapsed(start):
            return time.monotonic() - start
    """, rel="src/repro/online/mod.py")
    assert determinism.check_module(module) == []


def test_determinism_rule_flags_wall_clock_and_global_rng():
    module = make_module("""
        import random
        import time
        import numpy as np
        from datetime import datetime

        def bad_shuffle(rows):
            random.shuffle(rows)
            np.random.shuffle(rows)
            return rows

        def bad_stamp():
            return time.time(), datetime.now()

        def bad_entropy():
            return np.random.default_rng()
    """, rel="src/repro/core/mod.py")
    findings = determinism.check_module(module)
    messages = " | ".join(f.message for f in findings)
    assert any("imports stdlib 'random'" in f.message for f in findings)
    assert "np.random.shuffle" in messages
    assert "time.time()" in messages
    assert "datetime.now()" in messages
    assert "without a seed" in messages
    assert all(f.code == "INV003" for f in findings)


# ---------------------------------------------------------------------------
# INV004 — durability
# ---------------------------------------------------------------------------
def test_durability_rule_accepts_the_snapshot_write_protocol():
    module = make_module("""
        import os

        def write_durably(directory, final, payload):
            tmp = final.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
            fsync_directory(directory)
            for old in stale(directory):
                old.unlink()
            fsync_directory(directory)
    """, rel="src/repro/cluster/wal.py")
    assert durability.check_module(module) == []


def test_durability_rule_flags_each_broken_pattern():
    module = make_module("""
        import os

        def write_lazily(path, payload):
            path.write_bytes(payload)

        def rename_blindly(tmp, final, directory):
            os.replace(tmp, final)

        def flush_only(handle):
            handle.flush()

        def delete_softly(path):
            path.unlink()
    """, rel="src/repro/cluster/wal.py")
    findings = durability.check_module(module)
    by_symbol = {f.symbol: f.message for f in findings}
    assert "write-then-fsync" in by_symbol["write_lazily"]
    assert "flush alone" in by_symbol["flush_only"]
    assert "power loss" in by_symbol["delete_softly"]
    rename_messages = [f.message for f in findings
                       if f.symbol == "rename_blindly"]
    assert any("fsync-before-rename" in m for m in rename_messages)
    assert any("directory entry" in m for m in rename_messages)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
def test_suppression_with_reason_silences_the_named_code():
    module = make_module("""
        import time

        def jitter():
            return time.time()  # invariants: disable=INV003 -- bench jitter
    """, rel="src/repro/core/mod.py")
    findings = determinism.check_module(module)
    findings.extend(suppression_findings(module))
    kept, suppressed = apply_suppressions(module, findings)
    assert kept == []
    assert [f.code for f in suppressed] == ["INV003"]


def test_suppression_without_reason_is_itself_a_finding():
    module = make_module("""
        import time

        def jitter():
            return time.time()  # invariants: disable=INV003
    """, rel="src/repro/core/mod.py")
    findings = determinism.check_module(module)
    findings.extend(suppression_findings(module))
    kept, suppressed = apply_suppressions(module, findings)
    codes = sorted(f.code for f in kept)
    assert codes == ["INV000", "INV003"]   # reasonless: nothing silenced
    assert suppressed == []


def test_suppression_only_covers_the_codes_it_names():
    module = make_module("""
        import time

        def jitter():
            return time.time()  # invariants: disable=INV001 -- wrong code
    """, rel="src/repro/core/mod.py")
    findings = determinism.check_module(module)
    kept, suppressed = apply_suppressions(module, findings)
    assert [f.code for f in kept] == ["INV003"]
    assert suppressed == []


# ---------------------------------------------------------------------------
# INV005 — the obs facade is the only serving clock
# ---------------------------------------------------------------------------
def test_timeimport_rule_accepts_the_obs_facade():
    module = make_module("""
        from repro import obs

        def deadline(seconds):
            return obs.clock() + seconds
    """)
    assert timeimports.check_module(module) == []


def test_timeimport_rule_flags_each_banned_form():
    module = make_module("""
        import time
        import datetime as dt
        from time import perf_counter

        def stamp():
            import time.monotonic_ns
            return perf_counter()
    """)
    findings = timeimports.check_module(module)
    assert [f.code for f in findings] == ["INV005"] * 4
    assert {f.line for f in findings} == {2, 3, 4, 7}
    assert findings[-1].symbol == "stamp"   # nested import attributed


def test_timeimport_rule_ignores_lookalike_modules():
    module = make_module("""
        import timeit
        from datetime_utils import parse
        from .timer import Timer
    """)
    assert timeimports.check_module(module) == []


def test_timeimport_rule_suppression():
    module = make_module("""
        import time  # invariants: disable=INV005 -- legacy shim
    """)
    findings = timeimports.check_module(module)
    findings.extend(suppression_findings(module))
    kept, suppressed = apply_suppressions(module, findings)
    assert kept == []
    assert [f.code for f in suppressed] == ["INV005"]


def test_timeimport_scope_excludes_obs_but_covers_serving():
    """The runner's INV005 scope bans ``time`` from serve/cluster while
    leaving ``repro.obs`` (the sanctioned importer) alone."""
    from tools.invariants.runner import RULE_SCOPES
    scope = RULE_SCOPES[timeimports.CODE]
    assert "src/repro/serve/*.py" in scope
    assert "src/repro/cluster/*.py" in scope
    assert not any("obs" in pattern for pattern in scope)
    # obs still answers to the lock rule: its registry is shared state.
    assert "src/repro/obs/*.py" in RULE_SCOPES[locks.CODE]


# ---------------------------------------------------------------------------
# INV006 — module privacy
# ---------------------------------------------------------------------------
def test_privacy_rule_flags_a_reach_in():
    module = make_module("""
        from .engine import _ContextRow

        def plan(engine, history):
            start = engine._window_start(history.length)
            return _ContextRow(history, start, None), engine._ContextRow
    """)
    findings = privacy.check_module(module)
    # The import reaches in, and it defines nothing: both attribute
    # accesses reach in too.
    assert [(f.code, f.line, f.symbol) for f in findings] \
        == [("INV006", 2, ""), ("INV006", 5, "plan"),
            ("INV006", 6, "plan")]
    assert "'from .engine import _ContextRow'" in findings[0].message
    assert "'engine._window_start'" in findings[1].message


def test_privacy_rule_allows_public_and_dunder_imports():
    module = make_module("""
        from __future__ import annotations

        from repro.serve.__main__ import parse_checkpoint
        from .engine import ContextRow as Row, InferenceEngine
    """)
    assert privacy.check_module(module) == []


def test_privacy_rule_allows_same_module_access():
    module = make_module("""
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()

            def standby(self):
                standby = Engine()
                standby._lock = self._lock
                return standby

        def close(handle):
            if handle._log_file is not None:
                handle._log_file.close()
                handle._log_file = None
    """)
    assert privacy.check_module(module) == []


def test_privacy_rule_allows_self_cls_super_and_dunders():
    module = make_module("""
        class Child(Base):
            def run(self):
                return self._helper() + super()._helper()

            @classmethod
            def make(cls, error):
                return cls._registry, type(error).__name__
    """)
    assert privacy.check_module(module) == []


def test_privacy_rule_suppression():
    module = make_module("""
        def peek(engine):
            return engine._lock  # invariants: disable=INV006 -- test hook
    """)
    findings = privacy.check_module(module)
    findings.extend(suppression_findings(module))
    kept, suppressed = apply_suppressions(module, findings)
    assert kept == []
    assert [f.code for f in suppressed] == ["INV006"]


def test_privacy_rule_suppression_on_an_import_line():
    module = make_module("""
        from .engine import (  # invariants: disable=INV006 -- test hook
            _ContextRow, _window_start)
        from .history import _Store
    """)
    findings = privacy.check_module(module)
    findings.extend(suppression_findings(module))
    kept, suppressed = apply_suppressions(module, findings)
    assert [(f.line, f.message.split("'")[1]) for f in kept] \
        == [(4, "from .history import _Store")]
    assert [f.line for f in suppressed] == [2, 2]


# ---------------------------------------------------------------------------
# Runner: scoping, baseline round-trip, real repository
# ---------------------------------------------------------------------------
def write_tree(root: Path) -> None:
    """A minimal repo-shaped tree with one violation per rule family."""
    serve = root / "src" / "repro" / "serve"
    cluster = root / "src" / "repro" / "cluster"
    core = root / "src" / "repro" / "core"
    online = root / "src" / "repro" / "online"
    for directory in (serve, cluster, core, online):
        directory.mkdir(parents=True, exist_ok=True)
    (serve / "protocol.py").write_text(textwrap.dedent(MINI_PROTOCOL))
    (serve / "service.py").write_text(textwrap.dedent("""
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()
                self._pending = []

            def submit(self, item):
                with self._lock:
                    self._pending.append(item)

            def steal(self):
                return self._pending.pop()

            def reject(self):
                raise MalformedQuery("nope")

        def anchor(engine):
            return engine._window_start(3)
    """))
    (core / "trainer.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    (cluster / "wal.py").write_text(
        "def persist(path, payload):\n"
        "    path.write_bytes(payload)\n")
    (cluster / "router.py").write_text(
        "import time\n\n\ndef deadline():\n"
        "    return time.monotonic() + 1.0\n")


def test_runner_exits_nonzero_per_failing_rule(tmp_path):
    write_tree(tmp_path)
    for rule in ("INV001", "INV002", "INV003", "INV004", "INV005",
                 "INV006"):
        result = run_cli("--root", str(tmp_path), "--rules", rule,
                         "--format", "json")
        assert result.returncode == 1, (rule, result.stdout)
        payload = json.loads(result.stdout)
        assert {f["code"] for f in payload["findings"]} == {rule}


def test_runner_baseline_round_trip(tmp_path):
    write_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    first = run_cli("--root", str(tmp_path), "--baseline", str(baseline))
    assert first.returncode == 1

    wrote = run_cli("--root", str(tmp_path), "--baseline", str(baseline),
                    "--write-baseline")
    assert wrote.returncode == 0
    entries = json.loads(baseline.read_text())
    assert entries and all(set(e) == {"code", "path", "symbol", "message"}
                           for e in entries)

    clean = run_cli("--root", str(tmp_path), "--baseline", str(baseline))
    assert clean.returncode == 0, clean.stdout
    assert f"{len(entries)} baselined" in clean.stdout

    # A brand-new violation is NOT grandfathered by the old baseline.
    (tmp_path / "src" / "repro" / "core" / "fresh.py").write_text(
        "import random\n")
    regressed = run_cli("--root", str(tmp_path),
                        "--baseline", str(baseline))
    assert regressed.returncode == 1
    assert "fresh.py" in regressed.stdout


def test_runner_rejects_unknown_rule_codes(tmp_path):
    write_tree(tmp_path)
    result = run_cli("--root", str(tmp_path), "--rules", "INV999")
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


def test_repository_satisfies_all_invariants():
    """The tier-1 gate: ``python -m tools.invariants`` on this checkout
    must be clean — the same command the CI invariants lane runs."""
    result = run_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout
