"""Versioned typed query protocol of the serving API (v2).

Every serving capability — scoring, per-response influence explanation,
counterfactual what-if replay, recommendation, counterfactual recourse
search, event recording — is a typed *query* dataclass that flows
through :class:`repro.serve.Service` and comes back as a typed *reply*
dataclass.  Failures are part of the protocol: structured
:class:`ServiceError` values (one subclass per failure mode) are
**returned, not raised**, so the same taxonomy crosses the in-process
facade and the HTTP gateway unchanged.

Wire format and version negotiation
-----------------------------------
``to_wire`` turns any protocol object into a JSON-ready dict tagged with
``{"v": <version>, "type": <tag>}``; ``query_from_wire`` /
``reply_from_wire`` invert it.  The server speaks every version in
:data:`SUPPORTED_PROTOCOL_VERSIONS`: a v1 envelope still decodes (its
nested batch queries inherit the envelope's version), and replies are
stamped with the *negotiated* version — whatever supported version the
request carried (:func:`negotiated_version`).  A version outside the
supported set decodes to :class:`UnsupportedVersion`; a type tag the
negotiated version does not know (``"recourse"`` under v1, or a tag no
version knows) decodes to :class:`UnknownQueryType` — both are
:class:`MalformedQuery` values, never exceptions, with identical bytes
from the gateway and the cluster router.  :func:`capabilities`
enumerates the supported versions and per-version query types for the
health reply.

Field rules
-----------
Well-shaped queries carrying ill-*typed* values (an object as
``student_id``, a fractional ``top_k``, a NaN ``value_weight``) decode
structurally; the field rules, not Service code, reject them.  Each
non-id query field declares one :class:`FieldRule` in its field
metadata, and :func:`admission_error` — called by the facade and the
cluster router alike — answers the first violation as ``"<field> must
be <requirement>, got <value>"``.  Ids stay with the engine, which
knows the checkpoint's vocabulary.  Every field of every query and
reply crosses the wire: in process and over HTTP, a reply carries the
same fields.

The full field-by-field reference lives in ``docs/API.md``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Tuple

PROTOCOL_VERSION = 2

#: Every protocol version this build decodes.  v1 payloads (including
#: journaled RecordEvent frames from pre-v2 deployments) stay valid.
SUPPORTED_PROTOCOL_VERSIONS = (1, 2)

#: Registry name queries address when they don't specify one.
DEFAULT_MODEL = "default"

#: Hottest students a rollout pre-warms when the caller gives no count
#: (every backend's ``rollout`` and the admin rollout body's
#: ``warm_top``).
DEFAULT_WARM_TOP = 64

EDIT_OPS = ("flip", "set", "remove")

#: Hard recourse search-budget caps, enforced by the field rules.
MAX_EDITS = 16
MAX_BEAM_WIDTH = 32


# ---------------------------------------------------------------------------
# Field rules
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FieldRule:
    """What one query field may carry.

    A value failing ``check`` is answered as the taxonomy error whose
    ``code`` this names, with the message ``"<field> must be
    <requirement>, got <value>"``.  ``docs/API.md`` tabulates every
    rule (kept in step by ``tools/check_docs.py``).
    """

    requirement: str
    check: Callable[[object], bool]
    code: str = "malformed_query"


def _ruled(rule: FieldRule, item: Optional[type] = None, **kwargs):
    """A dataclass field declaring its rule; ``item`` is the dataclass
    each element of a tuple field decodes into and is checked against."""
    metadata = {"rule": rule}
    if item is not None:
        metadata["item"] = item
    return field(metadata=metadata, **kwargs)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def _is_binary(value) -> bool:
    # int and float first: wire values skip the slower ABC check that
    # admits NumPy scalars.
    return isinstance(value, (int, float, numbers.Real)) and value in (0, 1)


def _is_student_id(value) -> bool:
    # A NaN id never equals itself, so it could never find its history.
    if type(value) is str or type(value) is int:
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(_is_student_id(item) for item in value)
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _array_of(cls) -> Callable[[object], bool]:
    return lambda value: type(value) is tuple and all(
        type(item) is cls for item in value)


_STUDENT_ID = FieldRule("a hashable value without NaN or infinity",
                        _is_student_id)
_MODEL = FieldRule("a string", lambda value: isinstance(value, str))
_AT_LEAST_ONE = FieldRule("an integer >= 1",
                          lambda value: _is_integer(value) and value >= 1)
_FINITE = FieldRule("a finite number", _is_finite_number)



# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScoreQuery:
    """P(correct) for ``student_id`` answering ``question_id`` next."""

    TYPE: ClassVar[str] = "score"

    student_id: object = _ruled(_STUDENT_ID)
    question_id: int
    concept_ids: Tuple[int, ...]
    model: str = _ruled(_MODEL, default=DEFAULT_MODEL)

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))


@dataclass(frozen=True)
class ExplainQuery:
    """Per-response influences of the history on the latest response."""

    TYPE: ClassVar[str] = "explain"

    student_id: object = _ruled(_STUDENT_ID)
    model: str = _ruled(_MODEL, default=DEFAULT_MODEL)


@dataclass(frozen=True)
class HistoryEdit:
    """One counterfactual edit to a recorded history position.

    ``op`` is one of :data:`EDIT_OPS`: ``"flip"`` toggles the response's
    correctness, ``"set"`` forces it to ``value`` (0/1), ``"remove"``
    deletes the interaction entirely.  ``position`` indexes the
    student's *full* recorded history (0-based, before any edits are
    applied; a batch of edits is applied highest-position-first so the
    indices never shift under each other — which is also why a query
    may edit each position at most once: duplicates are rejected as
    ``invalid_edit``).
    """

    TYPE: ClassVar[str] = "edit"

    position: int = _ruled(FieldRule("an integer", _is_integer,
                                     "invalid_edit"))
    op: str = _ruled(FieldRule(
        f"one of {list(EDIT_OPS)}",
        lambda value: isinstance(value, str) and value in EDIT_OPS,
        "invalid_edit"))
    value: Optional[int] = None


@dataclass(frozen=True)
class WhatIfQuery:
    """Counterfactual replay: edit past responses, then re-score a probe.

    Applies ``edits`` to a *copy* of the student's history (the recorded
    history is never mutated) and scores ``question_id`` on the edited
    timeline.  The reply also carries the unedited baseline score of the
    same probe, so the delta is one round-trip.
    """

    TYPE: ClassVar[str] = "what_if"

    student_id: object = _ruled(_STUDENT_ID)
    question_id: int
    concept_ids: Tuple[int, ...]
    edits: Tuple[HistoryEdit, ...] = _ruled(
        FieldRule("an array of HistoryEdit", _array_of(HistoryEdit)),
        item=HistoryEdit)
    model: str = _ruled(_MODEL, default=DEFAULT_MODEL)

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))
        object.__setattr__(self, "edits", tuple(self.edits))


@dataclass(frozen=True)
class CandidateQuestion:
    """One candidate in a :class:`RecommendQuery`."""

    TYPE: ClassVar[str] = "candidate"

    question_id: int
    concept_ids: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))


_CANDIDATES = FieldRule("an array of CandidateQuestion",
                        _array_of(CandidateQuestion))


@dataclass(frozen=True)
class RecommendQuery:
    """Rank candidate next questions for a student (Sec. V-C workload)."""

    TYPE: ClassVar[str] = "recommend"

    student_id: object = _ruled(_STUDENT_ID)
    candidates: Tuple[CandidateQuestion, ...] = _ruled(
        _CANDIDATES, item=CandidateQuestion)
    top_k: int = _ruled(_AT_LEAST_ONE, default=5)
    target_success: float = _ruled(_FINITE, default=0.6)
    value_weight: float = _ruled(_FINITE, default=1.0)
    horizon: int = _ruled(_AT_LEAST_ONE, default=4)
    model: str = _ruled(_MODEL, default=DEFAULT_MODEL)

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))


@dataclass(frozen=True)
class RecourseQuery:
    """Counterfactual recourse search (protocol v2, KTCF-style).

    Given a target question, search for the **minimal** set of edits —
    fixing an in-window incorrect past response to correct
    (``allow_history_edits``) and/or appending candidate practice items
    answered correctly (``candidates``, the same assumed-answer worlds
    RecommendQuery scores) — that lifts the predicted success
    probability of ``question_id`` past ``threshold``.  ``beam_width``
    1 is greedy; wider beams explore more edit paths at the same number
    of search generations (at most ``max_edits``).  Every generation is
    scored as rows of one shared forward-stream batch.
    """

    TYPE: ClassVar[str] = "recourse"

    student_id: object = _ruled(_STUDENT_ID)
    question_id: int
    concept_ids: Tuple[int, ...]
    threshold: float = _ruled(FieldRule(
        "a finite number in [0, 1]",
        lambda value: _is_finite_number(value) and 0 <= value <= 1),
        default=0.75)
    max_edits: int = _ruled(FieldRule(
        f"an integer in [1, {MAX_EDITS}]",
        lambda value: _is_integer(value) and 1 <= value <= MAX_EDITS),
        default=3)
    beam_width: int = _ruled(FieldRule(
        f"an integer in [1, {MAX_BEAM_WIDTH}]",
        lambda value: _is_integer(value) and 1 <= value <= MAX_BEAM_WIDTH),
        default=1)
    candidates: Tuple[CandidateQuestion, ...] = _ruled(
        _CANDIDATES, item=CandidateQuestion, default=())
    allow_history_edits: bool = _ruled(
        FieldRule("a boolean", lambda value: isinstance(value, bool)),
        default=True)
    model: str = _ruled(_MODEL, default=DEFAULT_MODEL)

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))
        object.__setattr__(self, "candidates", tuple(self.candidates))


@dataclass(frozen=True)
class RecordEvent:
    """Append one observed response to a student's history."""

    TYPE: ClassVar[str] = "record"

    student_id: object = _ruled(_STUDENT_ID)
    question_id: int
    correct: int = _ruled(FieldRule("0 or 1", _is_binary))
    concept_ids: Tuple[int, ...]
    model: str = _ruled(_MODEL, default=DEFAULT_MODEL)

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))


@dataclass(frozen=True)
class BatchEnvelope:
    """Many queries admitted as one batch.

    Semantics (documented in ``docs/API.md``): all :class:`RecordEvent`
    entries apply first, in envelope order; every read query then
    observes the same post-record snapshot, and read queries for the
    same model are coalesced into shared forward-stream batches.
    Replies come back in envelope order regardless.

    ``request_id`` is the optional trace ID the gateway stamps at
    admission and the router propagates on the router→worker hop
    (``docs/OBSERVABILITY.md``).  It is protocol-v2-only and omitted
    from the wire when absent, so an envelope without one is
    byte-identical between v1 and v2.
    """

    TYPE: ClassVar[str] = "batch"

    queries: Tuple[object, ...]
    request_id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))


QUERY_TYPES = {cls.TYPE: cls for cls in
               (ScoreQuery, ExplainQuery, WhatIfQuery, RecommendQuery,
                RecourseQuery, RecordEvent)}

#: First protocol version each query type appeared in (default: 1).
#: A v1 envelope carrying a newer type decodes to
#: :class:`UnknownQueryType` — exactly what a genuine v1-only server
#: would have answered.
_QUERY_MIN_VERSION = {RecourseQuery.TYPE: 2}


def query_types_for(version: int) -> Tuple[str, ...]:
    """Sorted query type tags (plus ``"batch"``) ``version`` accepts."""
    tags = [tag for tag in QUERY_TYPES
            if _QUERY_MIN_VERSION.get(tag, 1) <= version]
    return tuple(sorted(tags + [BatchEnvelope.TYPE]))


# ---------------------------------------------------------------------------
# Replies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Reply:
    """Marker base for success replies (``ok`` discriminates errors)."""

    ok: ClassVar[bool] = True


@dataclass(frozen=True)
class ScoreReply(Reply):
    TYPE: ClassVar[str] = "score_reply"

    student_id: object
    question_id: int
    score: float
    history_length: int
    model: str = DEFAULT_MODEL


@dataclass(frozen=True)
class InfluenceItem:
    """One history position's influence on the explained target.

    ``position`` is absolute in the student's recorded history;
    ``influence`` is the per-position backward delta (Eq. 12): the
    contribution of keeping this response to the target's predicted
    correctness.
    """

    TYPE: ClassVar[str] = "influence_item"

    position: int
    question_id: int
    correct: int
    influence: float


@dataclass(frozen=True)
class ExplainReply(Reply):
    TYPE: ClassVar[str] = "explain_reply"

    student_id: object
    target_question_id: int
    target_correct: int
    score: float
    influences: Tuple[InfluenceItem, ...] = field(
        metadata={"item": InfluenceItem})
    model: str = DEFAULT_MODEL

    def __post_init__(self):
        object.__setattr__(self, "influences", tuple(self.influences))


@dataclass(frozen=True)
class WhatIfReply(Reply):
    TYPE: ClassVar[str] = "what_if_reply"

    student_id: object
    question_id: int
    score: float                 # probe score on the edited timeline
    baseline_score: float        # same probe on the recorded timeline
    history_length: int          # length of the edited timeline
    model: str = DEFAULT_MODEL

    @property
    def delta(self) -> float:
        return self.score - self.baseline_score


@dataclass(frozen=True)
class RecommendationItem:
    TYPE: ClassVar[str] = "recommendation_item"

    question_id: int
    concept_ids: Tuple[int, ...]
    success_probability: float
    value: float
    score: float

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))


@dataclass(frozen=True)
class RecommendReply(Reply):
    TYPE: ClassVar[str] = "recommend_reply"

    student_id: object
    items: Tuple[RecommendationItem, ...] = field(
        metadata={"item": RecommendationItem})
    model: str = DEFAULT_MODEL

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class RecourseStep:
    """One edit along a recourse path, with the score after applying it.

    ``kind`` is ``"fix_history"`` (set the incorrect recorded response
    at ``position`` to correct) or ``"practice"`` (append
    ``question_id`` answered correctly to the timeline).  ``score`` is
    the target question's predicted success probability on the timeline
    *after* this step; ``lowered_score`` flags the monotonicity
    diagnostic — this step added a correct response yet the prediction
    went down.
    """

    TYPE: ClassVar[str] = "recourse_step"

    kind: str
    question_id: int
    score: float
    position: Optional[int] = None
    concept_ids: Tuple[int, ...] = ()
    lowered_score: bool = False

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))


@dataclass(frozen=True)
class RecourseReply(Reply):
    """Result of a recourse search (protocol v2).

    ``steps`` is the chosen edit path in application order (empty when
    the baseline already clears the threshold); when ``achieved`` is
    False it is the best path found within the search budget.
    ``monotonic`` is False when any step's added correct response
    lowered the predicted score; ``generations`` counts search rounds
    (each one coalesced shared forward-stream batch) and
    ``worlds_scored`` the candidate timelines evaluated across them.
    """

    TYPE: ClassVar[str] = "recourse_reply"

    student_id: object
    question_id: int
    achieved: bool
    threshold: float
    baseline_score: float
    final_score: float
    steps: Tuple[RecourseStep, ...] = field(metadata={"item": RecourseStep})
    monotonic: bool
    generations: int
    worlds_scored: int
    history_length: int
    model: str = DEFAULT_MODEL

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def trajectory(self) -> Tuple[float, ...]:
        """Per-step score trajectory, baseline first."""
        return (self.baseline_score,) + tuple(s.score for s in self.steps)


@dataclass(frozen=True)
class RecordReply(Reply):
    TYPE: ClassVar[str] = "record_reply"

    student_id: object
    history_length: int
    model: str = DEFAULT_MODEL


@dataclass(frozen=True)
class BatchReply(Reply):
    TYPE: ClassVar[str] = "batch_reply"

    replies: Tuple[object, ...]

    def __post_init__(self):
        object.__setattr__(self, "replies", tuple(self.replies))


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceError:
    """Structured failure value.

    ``code`` is the stable machine-readable discriminator (one per
    subclass), ``message`` the human-readable diagnosis — which names
    the offending ids, the valid ranges, and the model/student context —
    and ``details`` optional structured fields for programmatic
    handling.  ``http_status`` is the status the gateway maps the error
    to; the wire body is the same either way.
    """

    ok: ClassVar[bool] = False
    TYPE: ClassVar[str] = "error"
    code: ClassVar[str] = "internal_error"
    http_status: ClassVar[int] = 500

    message: str
    details: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "details", tuple(
            (str(k), v) for k, v in
            (self.details.items() if isinstance(self.details, dict)
             else self.details)))

    def detail(self, key: str, default=None):
        for k, v in self.details:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class UnknownStudent(ServiceError):
    """The query requires a recorded history and the student has none."""

    code: ClassVar[str] = "unknown_student"
    http_status: ClassVar[int] = 404


@dataclass(frozen=True)
class InvalidQuestion(ServiceError):
    """``question_id`` outside the model's checkpoint vocabulary."""

    code: ClassVar[str] = "invalid_question"
    http_status: ClassVar[int] = 400


@dataclass(frozen=True)
class InvalidConcept(ServiceError):
    """A concept id outside the vocabulary, or an empty concept set."""

    code: ClassVar[str] = "invalid_concept"
    http_status: ClassVar[int] = 400


@dataclass(frozen=True)
class EmptyHistory(ServiceError):
    """The query needs more recorded history than the student has."""

    code: ClassVar[str] = "empty_history"
    http_status: ClassVar[int] = 409


@dataclass(frozen=True)
class InvalidEdit(ServiceError):
    """A :class:`HistoryEdit` that cannot apply to the recorded history."""

    code: ClassVar[str] = "invalid_edit"
    http_status: ClassVar[int] = 400


@dataclass(frozen=True)
class ModelNotLoaded(ServiceError):
    """The addressed model name is not (or no longer) in the registry."""

    code: ClassVar[str] = "model_not_loaded"
    http_status: ClassVar[int] = 503


@dataclass(frozen=True)
class MalformedQuery(ServiceError):
    """The payload does not decode to a protocol query."""

    code: ClassVar[str] = "malformed_query"
    http_status: ClassVar[int] = 400


@dataclass(frozen=True)
class UnsupportedVersion(MalformedQuery):
    """The envelope's ``v`` is outside the supported version set.

    A :class:`MalformedQuery` subclass so pre-v2 callers matching on
    the base class keep working, with a distinct ``code`` for clients
    that negotiate.
    """

    code: ClassVar[str] = "unsupported_version"
    http_status: ClassVar[int] = 400


@dataclass(frozen=True)
class UnknownQueryType(MalformedQuery):
    """The type tag is not a query type of the negotiated version.

    Covers both tags no version knows and tags that need a newer
    version than the envelope carried (``details["requires"]``).
    """

    code: ClassVar[str] = "unknown_query_type"
    http_status: ClassVar[int] = 400


@dataclass(frozen=True)
class RolloutRefused(ServiceError):
    """A drift gate vetoed a checkpoint rollout (the rollout did not run).

    Produced by :meth:`repro.serve.Service.rollout` when its ``gate``
    callback rejects the candidate (and by the ``repro.online``
    auto-rollout path) — a *refusal*, not a failure: the incumbent keeps
    serving untouched, and the decision details (prequential AUCs,
    threshold) ride in ``details``.  Like every taxonomy member it is
    returned as a value, never raised — CI-gate semantics, exactly how
    ``check_regression.py`` fails a benchmark run without crashing it.
    """

    code: ClassVar[str] = "rollout_refused"
    http_status: ClassVar[int] = 409


@dataclass(frozen=True)
class ShardUnavailable(ServiceError):
    """The shard owning this query's student cannot be reached.

    Only the cluster router produces this: a worker crash, a draining
    shard, or a transport failure mid-fan-out surfaces as one of these
    values *per affected query slot* — sibling queries on healthy shards
    answer normally, and nothing ever raises across the scatter-gather
    boundary.  A supervisor restart (with journal replay) clears it.
    """

    code: ClassVar[str] = "shard_unavailable"
    http_status: ClassVar[int] = 503


@dataclass(frozen=True)
class NotFound(ServiceError):
    """No such gateway route (distinct from a malformed payload)."""

    code: ClassVar[str] = "not_found"
    http_status: ClassVar[int] = 404


@dataclass(frozen=True)
class InternalError(ServiceError):
    """Unexpected server-side failure (the catch-all; never silent)."""

    code: ClassVar[str] = "internal_error"
    http_status: ClassVar[int] = 500


ERROR_TYPES = {cls.code: cls for cls in
               (UnknownStudent, InvalidQuestion, InvalidConcept,
                EmptyHistory, InvalidEdit, ModelNotLoaded, MalformedQuery,
                UnsupportedVersion, UnknownQueryType, RolloutRefused,
                ShardUnavailable, NotFound, InternalError)}

REPLY_TYPES = {cls.TYPE: cls for cls in
               (ScoreReply, ExplainReply, WhatIfReply, RecommendReply,
                RecourseReply, RecordReply, BatchReply)}


def is_error(obj) -> bool:
    """True for any :class:`ServiceError` value."""
    return isinstance(obj, ServiceError)


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------
def _rule_table(cls) -> tuple:
    """``(field, rule, item table)`` for each ruled field; the item
    table is empty unless the field holds nested dataclasses."""
    return tuple((spec.name, spec.metadata["rule"],
                  _rule_table(spec.metadata["item"])
                  if "item" in spec.metadata else ())
                 for spec in dataclasses.fields(cls)
                 if "rule" in spec.metadata)


#: Built once at import, looked up by the query's exact type.
_QUERY_RULES = {cls: _rule_table(cls) for cls in QUERY_TYPES.values()}


def _rule_violation(obj, table) -> Optional[ServiceError]:
    for name, rule, item_table in table:
        value = getattr(obj, name)
        if not rule.check(value):
            return ERROR_TYPES[rule.code](
                f"{name} must be {rule.requirement}, got {value!r}",
                details={name: value})
        if item_table:
            for item in value:
                error = _rule_violation(item, item_table)
                if error is not None:
                    return error
    return None


def admission_error(query) -> Optional[ServiceError]:
    """Why ``query`` may not be routed, or ``None`` when it may.

    The one admission check before any model, shard, or history is
    consulted — :meth:`repro.serve.Service.execute_batch` and the
    cluster router both run it over every slot, so their rejections are
    the same values.  A decoding failure answers as itself; a nested
    envelope or a non-query object is a :class:`MalformedQuery`; a
    query answers with its first :class:`FieldRule` violation, fields
    in declaration order and tuple items after their field.
    """
    table = _QUERY_RULES.get(type(query))
    if table is not None:
        return _rule_violation(query, table)
    if is_error(query):
        return query
    if isinstance(query, BatchEnvelope):
        return MalformedQuery(
            "batch envelopes cannot ride inside another batch — "
            "pass the envelope itself to execute()/POST /v1/batch")
    return MalformedQuery(f"not a protocol query: {type(query).__name__!s}")


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------
#: Optional fields omitted from the wire when ``None``, so payloads
#: that never set them stay byte-identical to pre-field builds.
_OPTIONAL_WIRE_FIELDS = {"request_id"}


def _jsonable(value, exact: bool):
    """JSON-ready form of one wire value.

    Non-finite floats become the strings ``"nan"``, ``"inf"`` and
    ``"-inf"``: RFC 8259 has no token for them, and a reply can echo
    one from its request (an error's details quote the offending
    value).  ``exact`` keeps them as floats — a query is re-sent as it
    was decoded (the router's hop to its shards), and Python's ``json``
    reads the ``NaN``/``Infinity`` tokens back.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _dataclass_wire(value, exact)
    if isinstance(value, (tuple, list)):
        return [_jsonable(item, exact) for item in value]
    if hasattr(value, "item") and callable(value.item) \
            and getattr(value, "shape", None) == ():
        value = value.item()   # NumPy scalar -> native Python
    if not exact and isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _dataclass_wire(obj, exact: bool) -> dict:
    payload = {"type": obj.TYPE}
    if is_error(obj):
        payload["code"] = obj.code
    for spec in dataclasses.fields(obj):
        value = getattr(obj, spec.name)
        if spec.name in _OPTIONAL_WIRE_FIELDS and value is None:
            continue
        if spec.name == "details":
            payload[spec.name] = {k: _jsonable(v, exact) for k, v in value}
        else:
            payload[spec.name] = _jsonable(value, exact)
    return payload


def to_wire(obj, version: int = PROTOCOL_VERSION) -> dict:
    """JSON-ready dict for any protocol query, reply, or error.

    ``version`` stamps the envelope — the gateway and router pass the
    *negotiated* version here so a v1 caller gets v1-stamped replies.
    Passing an unsupported version is a server-side programming error
    and raises.  Replies and errors render non-finite floats as
    strings, so every reply body is strict JSON; queries keep them.
    """
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        raise ValueError(f"cannot serialize protocol version {version!r} "
                         f"(supported: {SUPPORTED_PROTOCOL_VERSIONS})")
    payload = _dataclass_wire(
        obj, exact=isinstance(obj, (BatchEnvelope, *QUERY_TYPES.values())))
    if version < 2:
        # request_id is a v2 addition; a v1 payload never carries it.
        payload.pop("request_id", None)
    payload["v"] = version
    return payload


def negotiated_version(payload) -> int:
    """The protocol version replies to ``payload`` should carry.

    A supported explicit ``v`` is echoed; everything else — missing
    version, unsupported version, garbage payloads — answers at the
    server's own :data:`PROTOCOL_VERSION` (the error value in the body
    says why).
    """
    if isinstance(payload, dict):
        version = payload.get("v", PROTOCOL_VERSION)
        if version in SUPPORTED_PROTOCOL_VERSIONS:
            return version
    return PROTOCOL_VERSION


def capabilities() -> dict:
    """What this build speaks, for the health reply.

    ``query_types`` is the full (current-version) set; the per-version
    breakdown lets a client pick the newest mutually supported version
    without probing.
    """
    return {
        "protocol_version": PROTOCOL_VERSION,
        "protocol_versions": list(SUPPORTED_PROTOCOL_VERSIONS),
        "query_types": list(query_types_for(PROTOCOL_VERSION)),
        "query_types_by_version": {
            str(v): list(query_types_for(v))
            for v in SUPPORTED_PROTOCOL_VERSIONS},
        "error_codes": sorted(ERROR_TYPES),
    }


def _decode_into(cls, payload: dict):
    """Instantiate ``cls`` from wire fields (raises on mismatch).

    An array field whose metadata names an ``item`` dataclass decodes
    each element into it; any other array becomes a tuple.
    """
    if not isinstance(payload, dict):
        raise TypeError(f"{cls.TYPE} must be an object, got "
                        f"{type(payload).__name__}")
    kwargs = {}
    for spec in dataclasses.fields(cls):
        if spec.name in payload:
            value = payload[spec.name]
        elif spec.default is not dataclasses.MISSING:
            value = spec.default
        elif spec.default_factory is not dataclasses.MISSING:
            value = spec.default_factory()
        else:
            raise KeyError(f"missing field '{spec.name}'")
        if isinstance(value, list):
            item = spec.metadata.get("item")
            value = tuple(value) if item is None else tuple(
                _decode_into(item, element) for element in value)
        kwargs[spec.name] = value
    return cls(**kwargs)


def query_from_wire(payload, default_version: Optional[int] = None) -> object:
    """Decode one wire dict into a query — or a :class:`MalformedQuery`.

    Decoding failures are protocol values, not exceptions: the gateway
    forwards whatever this returns, so a garbage payload produces a
    structured 400 instead of a stack trace.  Versions outside
    :data:`SUPPORTED_PROTOCOL_VERSIONS` decode to
    :class:`UnsupportedVersion`; type tags the negotiated version does
    not know decode to :class:`UnknownQueryType`.  ``default_version``
    is what an envelope with no ``v`` is assumed to speak — the batch
    recursion threads the *outer* envelope's version through it, so a
    v1 batch gates its nested queries at v1.
    """
    if not isinstance(payload, dict):
        return MalformedQuery(f"query payload must be an object, got "
                              f"{type(payload).__name__}")
    if default_version is None:
        default_version = PROTOCOL_VERSION
    version = payload.get("v", default_version)
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        return UnsupportedVersion(
            f"unsupported protocol version {version!r} (this server "
            f"speaks {', '.join(f'v{v}' for v in SUPPORTED_PROTOCOL_VERSIONS)})",
            details={"version": version,
                     "supported": list(SUPPORTED_PROTOCOL_VERSIONS)})
    tag = payload.get("type")
    if tag == BatchEnvelope.TYPE:
        queries = payload.get("queries")
        if not isinstance(queries, list):
            return MalformedQuery("batch envelope needs a 'queries' list")
        request_id = payload.get("request_id")
        if request_id is not None:
            if version < 2:
                return MalformedQuery(
                    "batch field 'request_id' requires protocol version "
                    f">= 2 (envelope is v{version})",
                    details={"version": version, "requires": 2})
            if not isinstance(request_id, str):
                return MalformedQuery(
                    "batch field 'request_id' must be a string",
                    details={"request_id": request_id})
        return BatchEnvelope(
            tuple(query_from_wire(q, default_version=version)
                  for q in queries),
            request_id=request_id)
    cls = QUERY_TYPES.get(tag)
    if cls is None:
        return UnknownQueryType(
            f"unknown query type {tag!r} (expected one of "
            f"{list(query_types_for(version))})",
            details={"type": tag, "version": version})
    if _QUERY_MIN_VERSION.get(tag, 1) > version:
        return UnknownQueryType(
            f"query type {tag!r} requires protocol version "
            f">= {_QUERY_MIN_VERSION[tag]} (envelope is v{version})",
            details={"type": tag, "version": version,
                     "requires": _QUERY_MIN_VERSION[tag]})
    try:
        return _decode_into(cls, payload)
    except (KeyError, TypeError, ValueError) as error:
        return MalformedQuery(f"cannot decode {tag!r} query: {error}",
                              details={"type": tag})


def wire_json_bytes(payload) -> bytes:
    """Canonical compact JSON bytes for a wire payload.

    One byte-level codec for everything that persists or checksums wire
    dicts (the cluster's durable record journal frames, CRC-checks, and
    snapshots ride on this): keys sorted, no whitespace, UTF-8, NaN/Inf
    rejected — the same logical payload always serializes to the same
    bytes, so a CRC over them is meaningful across processes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False).encode("utf-8")


def wire_json_loads(data: bytes):
    """Invert :func:`wire_json_bytes` (raises ``ValueError`` on garbage —
    the caller decides whether that means a torn tail or corruption)."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise ValueError(f"payload bytes are not UTF-8: {error}") from None


def reply_from_wire(payload) -> object:
    """Decode one wire dict into a reply or error value.

    Used by the client side; raises ``ValueError`` when the payload is
    not a recognizable protocol reply (a broken server, not a broken
    request).
    """
    if not isinstance(payload, dict):
        raise ValueError(f"reply payload must be an object, got "
                         f"{type(payload).__name__}")
    tag = payload.get("type")
    if tag == ServiceError.TYPE:
        cls = ERROR_TYPES.get(payload.get("code"), InternalError)
        details = payload.get("details", {})
        return cls(payload.get("message", ""),
                   details=tuple(details.items())
                   if isinstance(details, dict) else tuple(details))
    if tag == BatchReply.TYPE:
        replies = payload.get("replies", [])
        return BatchReply(tuple(reply_from_wire(r) for r in replies))
    cls = REPLY_TYPES.get(tag)
    if cls is None:
        raise ValueError(f"unknown reply type {tag!r}")
    try:
        return _decode_into(cls, payload)
    except (KeyError, TypeError) as error:
        raise ValueError(f"cannot decode {tag!r} reply: {error}") from None
