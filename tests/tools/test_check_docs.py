"""Negative-path coverage for ``tools/check_docs.py``.

``tests/test_docs.py`` proves the checker passes on this repository and
fails on vanished symbols/files/links; this suite covers the parts it
does not: the in-process check functions themselves, the
protocol-surface cross-check against ``docs/API.md`` (class mentions,
error-table codes and HTTP statuses, field-rule rows, both drift
directions) and the Removed-table check.
"""

import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402

PROTOCOL = """
    class ScoreQuery:
        TYPE = "score"

    class RecordEvent:
        TYPE = "record"

    class BatchEnvelope:
        TYPE = "batch"

    class ScoreReply:
        TYPE = "score_reply"

    class ServiceError:
        code = "internal_error"
        http_status = 500

    class UnknownStudent(ServiceError):
        code = "unknown_student"
        http_status = 404

    class InternalError(ServiceError):
        pass

    QUERY_TYPES = {cls.TYPE: cls for cls in (ScoreQuery, RecordEvent)}
    REPLY_TYPES = {cls.TYPE: cls for cls in (ScoreReply,)}
    ERROR_TYPES = {cls.code: cls for cls in (UnknownStudent,
                                             InternalError)}
"""

API_DOC = """
    # API

    Queries: `ScoreQuery`, `RecordEvent`, `BatchEnvelope`.
    Replies: `ScoreReply`.

    | Class | `code` | HTTP | Raised when |
    | --- | --- | --- | --- |
    | `UnknownStudent` | `unknown_student` | 404 | no history |
    | `InternalError` | `internal_error` | 500 | catch-all |
"""


def write_tree(root: Path, protocol: str = PROTOCOL,
               api: str = API_DOC) -> Path:
    module = root / "src" / "repro" / "serve" / "protocol.py"
    module.parent.mkdir(parents=True)
    module.write_text(textwrap.dedent(protocol))
    doc = root / "docs" / "API.md"
    doc.parent.mkdir(parents=True)
    doc.write_text(textwrap.dedent(api))
    return root


def surface_failures(root: Path) -> list:
    failures: list = []
    check_docs.check_protocol_surface(root, failures)
    return failures


def test_protocol_surface_extraction(tmp_path):
    write_tree(tmp_path)
    surface = check_docs.protocol_surface(
        tmp_path / "src" / "repro" / "serve" / "protocol.py")
    assert surface["queries"] == ["BatchEnvelope", "RecordEvent",
                                  "ScoreQuery"]
    assert surface["replies"] == ["ScoreReply"]
    # InternalError inherits code/status from the ServiceError base.
    assert surface["errors"] == {
        "UnknownStudent": ("unknown_student", 404),
        "InternalError": ("internal_error", 500)}


def test_protocol_surface_accepts_a_synced_doc(tmp_path):
    write_tree(tmp_path)
    assert surface_failures(tmp_path) == []


def test_protocol_surface_skips_trees_without_the_protocol(tmp_path):
    assert surface_failures(tmp_path) == []


def test_protocol_surface_flags_an_undocumented_query(tmp_path):
    write_tree(tmp_path, api=API_DOC.replace("`RecordEvent`", "records"))
    failures = surface_failures(tmp_path)
    assert any("`RecordEvent`" in f and "not documented" in f
               for f in failures)


def test_protocol_surface_flags_a_missing_error_row(tmp_path):
    api = "\n".join(line for line in textwrap.dedent(API_DOC).splitlines()
                    if "UnknownStudent" not in line)
    write_tree(tmp_path, api=api)
    failures = surface_failures(tmp_path)
    assert any("no row for `UnknownStudent`" in f for f in failures)


def test_protocol_surface_flags_a_drifted_code_and_status(tmp_path):
    api = API_DOC.replace("`unknown_student` | 404",
                          "`missing_student` | 400")
    write_tree(tmp_path, api=api)
    failures = surface_failures(tmp_path)
    assert any("`missing_student`" in f for f in failures)
    assert any("HTTP 400" in f for f in failures)


def test_protocol_surface_flags_a_phantom_documented_error(tmp_path):
    api = API_DOC + "| `GhostError` | `ghost` | 410 | never |\n"
    write_tree(tmp_path, api=api)
    failures = surface_failures(tmp_path)
    assert any("`GhostError`" in f and "does not register" in f
               for f in failures)


RULED_PROTOCOL = PROTOCOL + """
    import dataclasses
    from typing import NamedTuple

    class FieldRule(NamedTuple):
        requirement: str
        check: object
        code: str = "malformed_query"

    @dataclasses.dataclass
    class RankQuery:
        top_k: int = dataclasses.field(default=5, metadata={
            "rule": FieldRule("an integer >= 1", None)})
        op: str = dataclasses.field(default="flip", metadata={
            "rule": FieldRule("one of ['flip']", None, "invalid_edit")})
"""

RULED_API_DOC = API_DOC + """
    ## Field rules

    | Field | Requirement | Code |
    | --- | --- | --- |
    | `top_k` | an integer >= 1 | `malformed_query` |
    | `op` | one of ['flip'] | `invalid_edit` |

    ## Next section
"""


def test_field_rules_accept_a_synced_table(tmp_path):
    write_tree(tmp_path, protocol=RULED_PROTOCOL, api=RULED_API_DOC)
    assert surface_failures(tmp_path) == []


def test_field_rules_flag_a_row_that_drifts_from_its_rule(tmp_path):
    api = RULED_API_DOC.replace("an integer >= 1", "an integer >= 0") \
        .replace("`invalid_edit`", "`malformed_query`")
    write_tree(tmp_path, protocol=RULED_PROTOCOL, api=api)
    failures = surface_failures(tmp_path)
    assert len(failures) == 2
    assert any("`top_k`" in f and "an integer >= 0" in f for f in failures)
    assert any("`op`" in f and "invalid_edit" in f for f in failures)


def test_field_rules_flag_missing_and_phantom_rows(tmp_path):
    api = RULED_API_DOC.replace("| `op` |", "| `beam_width` |")
    write_tree(tmp_path, protocol=RULED_PROTOCOL, api=api)
    failures = surface_failures(tmp_path)
    assert any("no row for `op`" in f for f in failures)
    assert any("`beam_width`" in f and "declares no rule" in f
               for f in failures)


def test_code_ref_check_reports_missing_symbols(tmp_path):
    (tmp_path / "mod.py").write_text("def real():\n    pass\n")
    doc = tmp_path / "doc.md"
    doc.write_text("see `mod.py:real` and `mod.py:imaginary`\n")
    failures: list = []
    checked = check_docs.check_code_refs(doc, tmp_path, failures)
    assert checked == 2
    assert len(failures) == 1 and "imaginary" in failures[0]


def test_link_check_reports_broken_relative_links(tmp_path):
    (tmp_path / "real.md").write_text("hi\n")
    doc = tmp_path / "doc.md"
    doc.write_text("[ok](real.md) [bad](gone.md) "
                   "[web](https://example.com)\n")
    failures: list = []
    checked = check_docs.check_links(doc, tmp_path, failures)
    assert checked == 2   # the external URL is skipped
    assert len(failures) == 1 and "gone.md" in failures[0]


# ---------------------------------------------------------------------------
# Removed surface: API.md's Removed table vs src/repro
# ---------------------------------------------------------------------------
REMOVED_API_DOC = """
    # API

    ## Removed

    | Removed | Replacement |
    | --- | --- |
    | `Engine.reload`, `Registry.swap` | `Service.rollout` |
    | `score_all`; the `workers` parameter | `Service.execute_batch` |
    | `repro.utils.timing.Timer` | `repro.obs.Timer` |

    ## Next

    | `Service` | not part of the table |
"""

REMOVED_ENGINE = """
    class Engine:
        def standby(self):
            pass
"""


def write_removed_tree(root: Path, engine: str = REMOVED_ENGINE,
                       api: str = REMOVED_API_DOC) -> Path:
    module = root / "src" / "repro" / "serve" / "engine.py"
    module.parent.mkdir(parents=True)
    module.write_text(textwrap.dedent(engine))
    (root / "src" / "repro" / "obs.py").write_text("class Timer:\n"
                                                   "    pass\n")
    doc = root / "docs" / "API.md"
    doc.parent.mkdir(parents=True)
    doc.write_text(textwrap.dedent(api))
    return root


def removed_failures(root: Path) -> list:
    failures: list = []
    check_docs.check_removed_surface(root, failures)
    return failures


def test_removed_names_read_only_the_first_column(tmp_path):
    names = check_docs.removed_names(textwrap.dedent(REMOVED_API_DOC))
    assert names == ["Engine.reload", "Registry.swap", "score_all",
                     "workers", "repro.utils.timing.Timer"]


def test_removed_surface_accepts_a_tree_without_them(tmp_path):
    write_removed_tree(tmp_path)
    assert removed_failures(tmp_path) == []


def test_removed_surface_flags_a_method_defined_again(tmp_path):
    write_removed_tree(tmp_path, engine=REMOVED_ENGINE + """
        def reload(self, path):
            pass

    def score_all():
        pass
    """)
    failures = removed_failures(tmp_path)
    assert len(failures) == 2
    assert "`Engine.reload` is listed as removed" in failures[0]
    assert "src/repro/serve/engine.py defines it" in failures[0]
    assert "`score_all`" in failures[1]


def test_removed_surface_flags_a_class_field_defined_again(tmp_path):
    write_removed_tree(tmp_path, engine=REMOVED_ENGINE + """
        reload: object = None
    """)
    failures = removed_failures(tmp_path)
    assert len(failures) == 1
    assert "`Engine.reload` is listed as removed" in failures[0]


def test_real_api_doc_spells_out_every_removed_member():
    """The real Removed table names each removed member in full: a row
    abbreviated as ``InferenceEngine.submit / flush`` checks the bare
    ``flush`` as a module-level name and lets ``InferenceEngine.flush``
    come back."""
    names = check_docs.removed_names(
        (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8"))
    for name in ("InferenceEngine.flush", "InferenceEngine.score",
                 "Service.flush", "ExplainReply.computation"):
        assert name in names


def test_removed_surface_flags_a_module_symbol_only_in_its_module(
        tmp_path):
    write_removed_tree(tmp_path)
    timing = tmp_path / "src" / "repro" / "utils" / "timing.py"
    timing.parent.mkdir()
    timing.write_text("class Timer:\n    pass\n")
    failures = removed_failures(tmp_path)
    assert len(failures) == 1
    assert "`repro.utils.timing.Timer`" in failures[0]


# ---------------------------------------------------------------------------
# Metric catalogue: docs/OBSERVABILITY.md vs src/repro/obs/names.py
# ---------------------------------------------------------------------------
NAMES_MODULE = """
    SERVICE_REQUESTS_TOTAL = "service_requests_total"
    STREAM_CACHE_ENTRIES = "stream_cache_entries"
    SERVICE_BATCH_SECONDS = "service_batch_seconds"

    COUNTERS = (SERVICE_REQUESTS_TOTAL,)
    GAUGES = (STREAM_CACHE_ENTRIES,)
    HISTOGRAMS = (SERVICE_BATCH_SECONDS,)
"""

OBS_DOC = """
    # Observability

    | Metric | Kind | Meaning |
    | --- | --- | --- |
    | `service_requests_total` | counter | admitted queries |
    | `stream_cache_entries` | gauge | resident entries |
    | `service_batch_seconds` | histogram | batch latency |
"""


def write_obs_tree(root: Path, names: str = NAMES_MODULE,
                   doc: str = OBS_DOC) -> Path:
    module = root / "src" / "repro" / "obs" / "names.py"
    module.parent.mkdir(parents=True)
    module.write_text(textwrap.dedent(names))
    obs_doc = root / "docs" / "OBSERVABILITY.md"
    obs_doc.parent.mkdir(parents=True, exist_ok=True)
    obs_doc.write_text(textwrap.dedent(doc))
    return root


def catalogue_failures(root: Path) -> list:
    failures: list = []
    check_docs.check_metric_catalogue(root, failures)
    return failures


def test_metric_catalogue_extraction(tmp_path):
    write_obs_tree(tmp_path)
    catalogue = check_docs.metric_catalogue(
        tmp_path / "src" / "repro" / "obs" / "names.py")
    assert catalogue == {"service_requests_total": "counter",
                         "stream_cache_entries": "gauge",
                         "service_batch_seconds": "histogram"}


def test_metric_catalogue_accepts_a_synced_doc(tmp_path):
    write_obs_tree(tmp_path)
    assert catalogue_failures(tmp_path) == []


def test_metric_catalogue_skips_trees_without_the_names_module(tmp_path):
    assert catalogue_failures(tmp_path) == []


def test_metric_catalogue_requires_the_doc_when_names_exist(tmp_path):
    write_obs_tree(tmp_path)
    (tmp_path / "docs" / "OBSERVABILITY.md").unlink()
    failures = catalogue_failures(tmp_path)
    assert len(failures) == 1 and "missing" in failures[0]


def test_metric_catalogue_flags_an_undocumented_metric(tmp_path):
    names = NAMES_MODULE.replace(
        "COUNTERS = (SERVICE_REQUESTS_TOTAL,)",
        'COUNTERS = (SERVICE_REQUESTS_TOTAL, "wal_fsync_total")')
    write_obs_tree(tmp_path, names=names)
    failures = catalogue_failures(tmp_path)
    assert any("no row for `wal_fsync_total`" in f for f in failures)


def test_metric_catalogue_flags_a_drifted_kind(tmp_path):
    doc = OBS_DOC.replace(
        "| `stream_cache_entries` | gauge |",
        "| `stream_cache_entries` | counter |")
    write_obs_tree(tmp_path, doc=doc)
    failures = catalogue_failures(tmp_path)
    assert any("`stream_cache_entries`" in f and "gauge" in f
               for f in failures)


def test_metric_catalogue_flags_a_phantom_documented_metric(tmp_path):
    doc = OBS_DOC + "| `ghost_total` | counter | never |\n"
    write_obs_tree(tmp_path, doc=doc)
    failures = catalogue_failures(tmp_path)
    assert any("`ghost_total`" in f and "does not register" in f
               for f in failures)
