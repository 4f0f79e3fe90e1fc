"""Invariant-suite runner: scoping, suppressions, baseline, output.

Usage::

    python -m tools.invariants [--root PATH] [--format text|json]
                               [--rules INV001,INV003]
                               [--baseline PATH] [--write-baseline]

Exit status: 0 when every finding is suppressed or baselined, 1 when
new findings exist, 2 on usage errors.  The baseline file (committed,
``tools/invariants/baseline.json``) grandfathers known findings by
line-number-free fingerprint; the intended workflow is *fix, don't
baseline* — see ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from . import (determinism, durability, locks, privacy, raises,
               timeimports)
from .common import (Finding, Module, apply_suppressions, load_module,
                     suppression_findings)

#: Rule code -> source-scope globs relative to the repository root.
#: ``repro.obs`` joins the lock-discipline scope (its registry and
#: instruments are shared serving state) but is deliberately *outside*
#: the INV005 scope — it is the one sanctioned ``time`` importer.
RULE_SCOPES: Dict[str, Sequence[str]] = {
    locks.CODE: ("src/repro/serve/*.py", "src/repro/cluster/*.py",
                 "src/repro/obs/*.py"),
    raises.CODE: ("src/repro/serve/*.py", "src/repro/cluster/*.py"),
    determinism.CODE: ("src/repro/core/*.py", "src/repro/online/*.py",
                       "src/repro/cluster/wal.py"),
    durability.CODE: ("src/repro/cluster/wal.py",
                      "src/repro/cluster/journal.py"),
    timeimports.CODE: ("src/repro/serve/*.py", "src/repro/cluster/*.py"),
    privacy.CODE: ("src/repro/serve/*.py", "src/repro/cluster/*.py"),
}

ALL_RULES = tuple(sorted(RULE_SCOPES))

PROTOCOL_PATH = "src/repro/serve/protocol.py"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _scope_files(root: Path, patterns: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for pattern in patterns:
        files.extend(sorted(root.glob(pattern)))
    return files


def collect_findings(root: Path,
                     rules: Sequence[str] = ALL_RULES) -> dict:
    """Run the selected rules over ``root``.

    Returns ``{"findings": [...], "suppressed": [...]}`` with inline
    suppressions already applied (malformed suppressions surface as
    INV000 findings).  Baseline handling is the caller's.
    """
    modules: Dict[Path, Module] = {}

    def module_for(path: Path) -> Module:
        if path not in modules:
            loaded = load_module(path, root)
            if loaded is None:
                raise SystemExit(f"invariants: cannot parse {path}")
            modules[path] = loaded
        return modules[path]

    taxonomy = raises.taxonomy_from(root / PROTOCOL_PATH)
    raw: Dict[Path, List[Finding]] = {}
    for code in rules:
        for path in _scope_files(root, RULE_SCOPES[code]):
            module = module_for(path)
            if code == locks.CODE:
                found = locks.check_module(module)
            elif code == raises.CODE:
                found = raises.check_module(module, taxonomy)
            elif code == determinism.CODE:
                found = determinism.check_module(module)
            elif code == timeimports.CODE:
                found = timeimports.check_module(module)
            elif code == privacy.CODE:
                found = privacy.check_module(module)
            else:
                found = durability.check_module(module)
            raw.setdefault(path, []).extend(found)

    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for path, module in modules.items():
        found = raw.get(path, [])
        found.extend(suppression_findings(module))
        path_kept, path_suppressed = apply_suppressions(module, found)
        kept.extend(path_kept)
        suppressed.extend(path_suppressed)
    kept.sort(key=lambda f: (f.path, f.line, f.code))
    suppressed.sort(key=lambda f: (f.path, f.line, f.code))
    return {"findings": kept, "suppressed": suppressed}


def load_baseline(path: Path) -> List[dict]:
    if not path.is_file():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise SystemExit(f"invariants: baseline {path} must be a JSON "
                         f"list of finding fingerprints")
    return data


def split_baselined(findings: Sequence[Finding],
                    baseline: Sequence[dict]) -> tuple:
    keys = {json.dumps(entry, sort_keys=True) for entry in baseline}
    fresh, grandfathered = [], []
    for finding in findings:
        key = json.dumps(finding.fingerprint(), sort_keys=True)
        (grandfathered if key in keys else fresh).append(finding)
    return fresh, grandfathered


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.invariants", description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: this checkout)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated rule codes to run")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE}"
                             f" when it exists)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings as the new baseline "
                             "and exit 0")
    args = parser.parse_args(argv)

    rules = tuple(code.strip() for code in args.rules.split(",")
                  if code.strip())
    unknown = [code for code in rules if code not in RULE_SCOPES]
    if unknown:
        print(f"invariants: unknown rule code(s): {', '.join(unknown)} "
              f"(known: {', '.join(ALL_RULES)})", file=sys.stderr)
        return 2

    root = args.root.resolve()
    result = collect_findings(root, rules)
    findings: List[Finding] = result["findings"]
    suppressed: List[Finding] = result["suppressed"]

    baseline_path = args.baseline if args.baseline is not None \
        else DEFAULT_BASELINE
    if args.write_baseline:
        payload = [f.fingerprint() for f in findings]
        baseline_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"invariants: wrote {len(payload)} baseline entr"
              f"{'y' if len(payload) == 1 else 'ies'} to "
              f"{baseline_path}")
        return 0

    baseline = load_baseline(baseline_path)
    fresh, grandfathered = split_baselined(findings, baseline)

    if args.format == "json":
        print(json.dumps({
            "rules": list(rules),
            "findings": [dict(f.fingerprint(), line=f.line)
                         for f in fresh],
            "baselined": len(grandfathered),
            "suppressed": len(suppressed),
        }, indent=2, sort_keys=True))
    else:
        for finding in fresh:
            print(finding.render())
        print(f"invariants: {len(fresh)} finding(s), "
              f"{len(grandfathered)} baselined, "
              f"{len(suppressed)} suppressed "
              f"({', '.join(rules)})")
    return 1 if fresh else 0
