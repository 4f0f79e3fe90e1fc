"""Documentation link & symbol checker (the CI docs lane).

Docs rot silently: a refactor renames a function and the
equation-to-code table in ``docs/ARCHITECTURE.md`` quietly points at
nothing.  This checker makes that a CI failure.  Over ``README.md`` and
every ``docs/*.md`` it verifies:

* **Code references** — every backticked ``path/to/file.py:symbol``
  span resolves: the file exists and the symbol is a module-level
  function/class/constant or a ``Class.method`` in that file (checked
  via AST, no imports — works without PYTHONPATH).
* **Relative links** — every ``[text](target)`` / image link that
  resolves inside the repository points at an existing file.  External
  URLs, anchors, and paths escaping the repo (e.g. GitHub badge
  routes) are skipped.
* **Required equations** — ``docs/ARCHITECTURE.md`` exists and its
  table still covers the paper's load-bearing equations (Eq. 12, 13,
  23, 25), each with at least one code reference on the same line.
* **Protocol surface** — the query/reply registries and the error
  taxonomy extracted from ``src/repro/serve/protocol.py`` (via AST)
  must match ``docs/API.md``: every registered query/reply class is
  mentioned, every taxonomy error has a table row whose ``code`` and
  HTTP status match the class, and the table documents no class the
  protocol does not define.  Likewise every field rule declared in the
  protocol's dataclass field metadata has a row in the API.md "Field
  rules" table with the same requirement and code, and the table lists
  no field without a rule.  Rules are callables built from shared
  constants, so they are read by loading ``protocol.py`` by path (it
  imports only the standard library) instead of by AST.  Skipped for
  trees without the protocol module (the synthetic fixtures in the test
  suite).
* **Removed surface** — no ``Class``, ``Class.method``, function or
  ``repro.module.Symbol`` named in the first column of the API.md
  "Removed" table is defined again under ``src/repro`` (via AST), so a
  deleted duplicate path cannot quietly come back.
* **Metric catalogue** — the ``COUNTERS`` / ``GAUGES`` / ``HISTOGRAMS``
  kind registries extracted from ``src/repro/obs/names.py`` (via AST)
  must match the catalogue table in ``docs/OBSERVABILITY.md``: every
  registered metric has a row with the matching kind, and the table
  documents no series the registry does not define.  Skipped for trees
  without the names module.

Usage::

    python tools/check_docs.py [--root PATH]

Exits non-zero on any failure; prints every failure first.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

CODE_REF = re.compile(r"`([A-Za-z0-9_\-./]+\.py):([A-Za-z_][A-Za-z0-9_.]*)`")
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# The acceptance-critical rows of the ARCHITECTURE.md equation table.
REQUIRED_EQUATIONS = ("Eq. 12", "Eq. 13", "Eq. 23", "Eq. 25")

# Wire-protocol module + the doc that tabulates its surface.
PROTOCOL_REL = Path("src") / "repro" / "serve" / "protocol.py"
API_DOC_REL = Path("docs") / "API.md"

# Error-taxonomy table row: | `Class` | `code` | HTTP | ...
ERROR_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|\s*`(\w+)`\s*\|\s*(\d+)\s*\|")

# Field-rules table row, under API.md's "## Field rules" heading:
# | `field` | requirement | `code` |
FIELD_RULES_HEADING = "## Field rules"
RULE_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|\s*(.+?)\s*\|\s*`(\w+)`\s*\|$")

# API.md's table of removed surface; first-column names must stay gone.
REMOVED_HEADING = "## Removed"
REMOVED_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")
SOURCE_REL = Path("src") / "repro"

# Metric-name module + the doc that tabulates its catalogue.
METRICS_REL = Path("src") / "repro" / "obs" / "names.py"
OBS_DOC_REL = Path("docs") / "OBSERVABILITY.md"

# Metric-catalogue table row: | `metric_name` | kind | ...
METRIC_ROW = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|\s*"
                        r"(counter|gauge|histogram)\s*\|")


def _bound_names(body) -> set:
    """Names a block's defs, classes and plain assignments bind."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def module_symbols(path: Path) -> set:
    """Module-level defs/classes/constants plus ``Class.member`` names
    (methods, class attributes and dataclass fields)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = _bound_names(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{member}"
                         for member in _bound_names(node.body))
    return names


def check_code_refs(doc: Path, root: Path, failures: list) -> int:
    checked = 0
    for match in CODE_REF.finditer(doc.read_text(encoding="utf-8")):
        rel_path, symbol = match.groups()
        checked += 1
        target = root / rel_path
        if not target.is_file():
            failures.append(f"{doc.relative_to(root)}: referenced file "
                            f"{rel_path} does not exist")
            continue
        if symbol not in module_symbols(target):
            failures.append(f"{doc.relative_to(root)}: {rel_path} has no "
                            f"symbol '{symbol}'")
    return checked


def check_links(doc: Path, root: Path, failures: list) -> int:
    checked = 0
    for match in MD_LINK.finditer(doc.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        try:
            resolved.relative_to(root.resolve())
        except ValueError:
            # Outside the repo (e.g. the CI badge's web route): not a
            # file this checker can vouch for either way.
            continue
        checked += 1
        if not resolved.exists():
            failures.append(f"{doc.relative_to(root)}: broken link "
                            f"{target}")
    return checked


def _registry_class_names(value: ast.AST) -> list:
    """Class names referenced by a ``{cls.TYPE: cls for cls in (...)}``
    registry assignment (robust to literal-dict forms too)."""
    return sorted({node.id for node in ast.walk(value)
                   if isinstance(node, ast.Name)
                   and node.id[:1].isupper()})


def protocol_surface(path: Path) -> dict:
    """Query/reply class names and the error taxonomy, extracted from
    the protocol module without importing it.

    Returns ``{"queries": [...], "replies": [...], "errors": {name:
    (code, http_status)}}``.  Error ``code``/``http_status`` resolve
    through the (single-inheritance) base chain, mirroring ClassVar
    inheritance at runtime.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = {}
    registries = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            classes[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in (
                        "QUERY_TYPES", "REPLY_TYPES", "ERROR_TYPES"):
                    registries[target.id] = \
                        _registry_class_names(node.value)

    def class_var(name: str, attr: str):
        seen = set()
        while name in classes and name not in seen:
            seen.add(name)
            node = classes[name]
            for item in node.body:
                target = None
                if isinstance(item, ast.AnnAssign):
                    target = item.target
                elif isinstance(item, ast.Assign) and item.targets:
                    target = item.targets[0]
                if isinstance(target, ast.Name) and target.id == attr \
                        and isinstance(item.value, ast.Constant):
                    return item.value.value
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            name = bases[0] if bases else None
        return None

    queries = list(registries.get("QUERY_TYPES", []))
    if "BatchEnvelope" in classes and "BatchEnvelope" not in queries:
        queries.append("BatchEnvelope")   # rides outside the registry
    errors = {name: (class_var(name, "code"),
                     class_var(name, "http_status"))
              for name in registries.get("ERROR_TYPES", [])}
    return {"queries": sorted(queries),
            "replies": list(registries.get("REPLY_TYPES", [])),
            "errors": errors}


def field_rules(path: Path) -> dict:
    """``{field: {(requirement, code), ...}}`` over every rule declared
    in a dataclass field's ``metadata["rule"]`` in the protocol module,
    which is loaded by path."""
    spec = importlib.util.spec_from_file_location("_check_docs_protocol",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    rules = {}
    for value in vars(module).values():
        if isinstance(value, type) and dataclasses.is_dataclass(value):
            for declared in dataclasses.fields(value):
                rule = declared.metadata.get("rule")
                if rule is not None:
                    rules.setdefault(declared.name, set()).add(
                        (rule.requirement, rule.code))
    return rules


def documented_field_rules(text: str) -> dict:
    """``{field: (requirement, code)}`` from the Field rules table."""
    rows = {}
    in_section = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = line.strip() == FIELD_RULES_HEADING
        elif in_section:
            match = RULE_ROW.match(line.strip())
            if match:
                rows[match.group(1)] = (match.group(2), match.group(3))
    return rows


def check_field_rules(protocol: Path, text: str, failures: list) -> int:
    """API.md's field-rules table must list exactly the declared rules."""
    rules = field_rules(protocol)
    documented = documented_field_rules(text)
    checked = 0
    for name, declared in sorted(rules.items()):
        checked += 1
        if len(declared) > 1:
            failures.append(f"{PROTOCOL_REL}: field `{name}` declares "
                            f"differing rules {sorted(declared)}, but "
                            f"the field-rules table has one row per "
                            f"field name")
        elif name not in documented:
            failures.append(f"{API_DOC_REL}: field-rules table has no "
                            f"row for `{name}`")
        elif documented[name] != next(iter(declared)):
            failures.append(f"{API_DOC_REL}: `{name}` documents rule "
                            f"{documented[name]} but the protocol "
                            f"declares {next(iter(declared))}")
    for name in sorted(set(documented) - set(rules)):
        failures.append(f"{API_DOC_REL}: field-rules table documents "
                        f"`{name}`, which declares no rule")
    return checked


def check_protocol_surface(root: Path, failures: list) -> int:
    """docs/API.md must track the protocol module's typed surface."""
    protocol = root / PROTOCOL_REL
    if not protocol.is_file():
        return 0   # synthetic fixture trees have no protocol module
    api_doc = root / API_DOC_REL
    if not api_doc.is_file():
        failures.append(f"{API_DOC_REL}: missing, but the protocol "
                        f"module {PROTOCOL_REL} exists")
        return 0
    surface = protocol_surface(protocol)
    text = api_doc.read_text(encoding="utf-8")
    checked = 0

    for kind in ("queries", "replies"):
        for name in surface[kind]:
            checked += 1
            if f"`{name}`" not in text:
                failures.append(f"{API_DOC_REL}: protocol "
                                f"{kind[:-1]} type `{name}` is not "
                                f"documented")

    documented = {}
    for line in text.splitlines():
        match = ERROR_ROW.match(line.strip())
        if match:
            documented[match.group(1)] = (match.group(2),
                                          int(match.group(3)))
    for name, (code, status) in sorted(surface["errors"].items()):
        checked += 1
        if name not in documented:
            failures.append(f"{API_DOC_REL}: error taxonomy table has "
                            f"no row for `{name}`")
            continue
        doc_code, doc_status = documented[name]
        if doc_code != code:
            failures.append(f"{API_DOC_REL}: `{name}` documents code "
                            f"`{doc_code}` but the protocol says "
                            f"`{code}`")
        if doc_status != status:
            failures.append(f"{API_DOC_REL}: `{name}` documents HTTP "
                            f"{doc_status} but the protocol says "
                            f"{status}")
    for name in sorted(set(documented) - set(surface["errors"])):
        failures.append(f"{API_DOC_REL}: error taxonomy table "
                        f"documents `{name}`, which the protocol does "
                        f"not register")
    return checked + check_field_rules(protocol, text, failures)


def removed_names(text: str) -> list:
    """Backticked names in the first column of the Removed table."""
    names = []
    in_section = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = line.strip() == REMOVED_HEADING
        elif in_section and line.startswith("|"):
            names.extend(REMOVED_NAME.findall(line.split("|")[1]))
    return names


def check_removed_surface(root: Path, failures: list) -> int:
    """Nothing API.md lists as removed is defined under ``src/repro``.

    ``Name`` and ``Class.method`` match a definition in any module;
    ``repro.module.Symbol`` matches only in that module.
    """
    api_doc = root / API_DOC_REL
    source = root / SOURCE_REL
    if not api_doc.is_file() or not source.is_dir():
        return 0
    defined = {}
    for path in sorted(source.rglob("*.py")):
        module = ".".join(path.relative_to(root / "src")
                          .with_suffix("").parts)
        for symbol in module_symbols(path):
            defined.setdefault(symbol, path.relative_to(root))
            defined.setdefault(f"{module}.{symbol}", path.relative_to(root))
    names = removed_names(api_doc.read_text(encoding="utf-8"))
    for name in names:
        if name in defined:
            failures.append(f"{API_DOC_REL}: `{name}` is listed as "
                            f"removed, but {defined[name]} defines it")
    return len(names)


def metric_catalogue(path: Path) -> dict:
    """``{metric_name: kind}`` extracted from the names module's
    ``COUNTERS`` / ``GAUGES`` / ``HISTOGRAMS`` registries (via AST:
    constants resolve through the module-level string assignments)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = {}
    registries = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                constants[target.id] = node.value.value
            elif target.id in ("COUNTERS", "GAUGES", "HISTOGRAMS") \
                    and isinstance(node.value, (ast.Tuple, ast.List)):
                registries[target.id] = [
                    constants.get(el.id) if isinstance(el, ast.Name)
                    else el.value if isinstance(el, ast.Constant)
                    else None
                    for el in node.value.elts]
    catalogue = {}
    for registry, kind in (("COUNTERS", "counter"), ("GAUGES", "gauge"),
                           ("HISTOGRAMS", "histogram")):
        for name in registries.get(registry, []):
            if name is not None:
                catalogue[name] = kind
    return catalogue


def check_metric_catalogue(root: Path, failures: list) -> int:
    """docs/OBSERVABILITY.md must track the registered metric names."""
    names_module = root / METRICS_REL
    if not names_module.is_file():
        return 0   # synthetic fixture trees have no obs package
    obs_doc = root / OBS_DOC_REL
    if not obs_doc.is_file():
        failures.append(f"{OBS_DOC_REL}: missing, but the metric-name "
                        f"module {METRICS_REL} exists")
        return 0
    catalogue = metric_catalogue(names_module)
    documented = {}
    for line in obs_doc.read_text(encoding="utf-8").splitlines():
        match = METRIC_ROW.match(line.strip())
        if match:
            documented[match.group(1)] = match.group(2)
    checked = 0
    for name, kind in sorted(catalogue.items()):
        checked += 1
        if name not in documented:
            failures.append(f"{OBS_DOC_REL}: metric catalogue has no "
                            f"row for `{name}`")
        elif documented[name] != kind:
            failures.append(f"{OBS_DOC_REL}: `{name}` documents kind "
                            f"'{documented[name]}' but {METRICS_REL} "
                            f"registers it as a {kind}")
    for name in sorted(set(documented) - set(catalogue)):
        failures.append(f"{OBS_DOC_REL}: metric catalogue documents "
                        f"`{name}`, which {METRICS_REL} does not "
                        f"register")
    return checked


def check_required_equations(root: Path, failures: list) -> None:
    architecture = root / "docs" / "ARCHITECTURE.md"
    if not architecture.is_file():
        failures.append("docs/ARCHITECTURE.md is missing")
        return
    lines = architecture.read_text(encoding="utf-8").splitlines()
    for equation in REQUIRED_EQUATIONS:
        rows = [line for line in lines
                if equation in line and CODE_REF.search(line)]
        if not rows:
            failures.append(f"docs/ARCHITECTURE.md: no equation-table row "
                            f"maps '{equation}' to a code reference")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this checkout)")
    args = parser.parse_args()
    root = args.root.resolve()

    docs = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.is_file():
        docs.insert(0, readme)
    if not docs:
        print(f"check_docs: no documentation found under {root}")
        return 1

    failures: list = []
    refs = links = 0
    for doc in docs:
        refs += check_code_refs(doc, root, failures)
        links += check_links(doc, root, failures)
    check_required_equations(root, failures)
    protocol = check_protocol_surface(root, failures)
    removed = check_removed_surface(root, failures)
    metrics = check_metric_catalogue(root, failures)

    if failures:
        print(f"check_docs: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"check_docs: ok ({len(docs)} files, {refs} code references, "
          f"{links} relative links, {protocol} protocol surface checks, "
          f"{removed} removed names, {metrics} metric catalogue checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
