"""Per-student interaction caches, and the one way to derive a timeline.

Serving a score request needs the student's full history as dense arrays.
Rebuilding :class:`~repro.data.StudentSequence` objects and re-collating
them per request costs O(history) Python-loop work every time; instead the
store keeps each student's log as geometrically-grown NumPy arrays, so

* appending one new response is an O(1) amortized array write, and
* assembling a request batch is one row-slice memcpy per student — no
  per-interaction Python loops anywhere on the request path.

Every other timeline the serving stack scores is derived from a history
by :class:`Timeline`, which the stored :class:`StudentHistory` and the
detached :class:`ArrayHistory` share: :meth:`Timeline.snapshot` (an
admission-time copy), :meth:`Timeline.suffix` (a window, as views) and
:meth:`Timeline.edited` — the one builder of counterfactual worlds:
what-if edits, the monotonicity report's corrected timelines, recourse
fix and practice worlds, and recommend value worlds.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data import PAD_ID, StudentSequence


class Timeline:
    """The derivations shared by every history type.

    A subclass provides ``student_id``, ``length``, ``concept_width``
    and ``view()`` (the ``(questions, responses, concepts,
    concept_counts)`` arrays); everything here reads only those.
    """

    __slots__ = ()

    def question_at(self, position: int) -> Tuple[int, Tuple[int, ...]]:
        """``(question_id, concept_ids)`` asked at ``position``: the
        probe that re-asks it."""
        questions, _, concepts, counts = self.view()
        return (int(questions[position]),
                tuple(int(c) for c in concepts[position, :counts[position]]))

    def snapshot(self) -> "ArrayHistory":
        """A detached copy that later appends cannot change."""
        return ArrayHistory(self.student_id,
                            *(array.copy() for array in self.view()))

    def suffix(self, start: int) -> "ArrayHistory":
        """The interactions from position ``start`` on, as views.

        The sliding-window serving mode scores students over the suffix
        that fits their window; views (not copies) keep window assembly
        O(window) memcpy work with no per-step loops.
        """
        if not 0 <= start <= self.length:
            raise ValueError(f"suffix start {start} outside history of "
                             f"length {self.length}")
        return ArrayHistory(self.student_id,
                            *(array[start:] for array in self.view()))

    def edited(self, responses: Optional[Mapping[int, int]] = None,
               removed: Sequence[int] = (),
               appended: Sequence[Tuple[int, Sequence[int], int]] = ()
               ) -> "ArrayHistory":
        """A counterfactual world: this timeline with one edit step.

        ``responses`` maps positions to their new 0/1 response,
        ``removed`` drops positions and ``appended`` adds
        ``(question_id, concept_ids, correct)`` interactions at the
        end.  Positions index this timeline before the edit, so a
        position is edited at most once.  The world's arrays are
        allocated once, at full size; only a removal gathers the kept
        rows into a second copy.
        """
        length = self.length
        total = length + len(appended)
        width = max([self.concept_width]
                    + [len(concept_ids) for _, concept_ids, _ in appended])
        questions = np.empty(total, dtype=np.int64)
        answers = np.empty(total, dtype=np.int64)
        concepts = np.full((total, width), PAD_ID, dtype=np.int64)
        counts = np.ones(total, dtype=np.int64)
        q, r, c, k = self.view()
        questions[:length] = q
        answers[:length] = r
        concepts[:length, :c.shape[1]] = c
        counts[:length] = k
        for position, value in (responses or {}).items():
            answers[position] = value
        for position, (question_id, concept_ids, correct) in enumerate(
                appended, start=length):
            questions[position] = question_id
            answers[position] = correct
            concepts[position, :len(concept_ids)] = concept_ids
            counts[position] = len(concept_ids)
        arrays = (questions, answers, concepts, counts)
        if removed:
            keep = np.ones(total, dtype=bool)
            keep[list(removed)] = False
            arrays = tuple(array[keep] for array in arrays)
        return ArrayHistory(self.student_id, *arrays)


class StudentHistory(Timeline):
    """One student's growable interaction log."""

    __slots__ = ("student_id", "length", "_questions", "_responses",
                 "_concepts", "_concept_counts")

    INITIAL_CAPACITY = 8

    def __init__(self, student_id):
        self.student_id = student_id
        self.length = 0
        capacity = self.INITIAL_CAPACITY
        self._questions = np.zeros(capacity, dtype=np.int64)
        self._responses = np.zeros(capacity, dtype=np.int64)
        self._concepts = np.full((capacity, 1), PAD_ID, dtype=np.int64)
        self._concept_counts = np.ones(capacity, dtype=np.int64)

    @property
    def concept_width(self) -> int:
        return self._concepts.shape[1]

    def _grow(self, min_capacity: int, min_width: int) -> None:
        capacity = len(self._questions)
        new_capacity = max(capacity, min_capacity)
        if min_capacity > capacity:
            new_capacity = max(2 * capacity, min_capacity)
        width = self.concept_width
        new_width = max(width, min_width)
        if new_capacity == capacity and new_width == width:
            return
        for name in ("_questions", "_responses", "_concept_counts"):
            old = getattr(self, name)
            fresh = np.zeros(new_capacity, dtype=np.int64)
            if name == "_concept_counts":
                fresh[:] = 1
            fresh[:self.length] = old[:self.length]
            setattr(self, name, fresh)
        fresh = np.full((new_capacity, new_width), PAD_ID, dtype=np.int64)
        fresh[:self.length, :width] = self._concepts[:self.length]
        self._concepts = fresh

    def append(self, question_id: int, correct: int,
               concept_ids: Sequence[int]) -> None:
        if question_id <= PAD_ID:
            raise ValueError(f"question_id must be positive, got {question_id}")
        if correct not in (0, 1):
            raise ValueError(f"correct must be 0 or 1, got {correct}")
        concept_ids = tuple(concept_ids)
        if not concept_ids or any(c <= PAD_ID for c in concept_ids):
            raise ValueError("concept ids must be a non-empty positive tuple")
        self._grow(self.length + 1, len(concept_ids))
        row = self.length
        self._questions[row] = question_id
        self._responses[row] = correct
        self._concepts[row, :len(concept_ids)] = concept_ids
        self._concept_counts[row] = len(concept_ids)
        self.length += 1

    def view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(questions, responses, concepts, concept_counts) live views."""
        n = self.length
        return (self._questions[:n], self._responses[:n],
                self._concepts[:n], self._concept_counts[:n])


class ArrayHistory(Timeline):
    """A timeline over explicit arrays: a snapshot, a window or a world.

    :meth:`Timeline.snapshot` copies a history into one,
    :meth:`Timeline.suffix` views its window and
    :meth:`Timeline.edited` builds a counterfactual world, so these
    timelines flow through batch assembly and stream-cache warm-up
    exactly like the stored history.
    """

    __slots__ = ("student_id", "length", "_questions", "_responses",
                 "_concepts", "_concept_counts")

    def __init__(self, student_id, questions: np.ndarray,
                 responses: np.ndarray, concepts: np.ndarray,
                 concept_counts: np.ndarray):
        lengths = {len(questions), len(responses), len(concepts),
                   len(concept_counts)}
        if len(lengths) != 1:
            raise ValueError("history arrays must share one length")
        self.student_id = student_id
        self.length = len(questions)
        self._questions = np.asarray(questions, dtype=np.int64)
        self._responses = np.asarray(responses, dtype=np.int64)
        self._concepts = np.asarray(concepts, dtype=np.int64)
        self._concept_counts = np.asarray(concept_counts, dtype=np.int64)

    @property
    def concept_width(self) -> int:
        return self._concepts.shape[1] if self.length else 1

    def view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self._questions, self._responses, self._concepts,
                self._concept_counts)


class HistoryStore:
    """All students' interaction caches, keyed by student id."""

    def __init__(self):
        self._students: Dict[object, StudentHistory] = {}

    def __len__(self) -> int:
        return len(self._students)

    def __contains__(self, student_id) -> bool:
        return student_id in self._students

    def peek(self, student_id) -> Optional[StudentHistory]:
        """Non-creating lookup: None for unknown students."""
        return self._students.get(student_id)

    def get(self, student_id) -> StudentHistory:
        """Lookup that registers an empty history for unknown students.

        Write paths only — read/score paths use :meth:`peek` (plus a
        transient empty history) so probing a misspelled id doesn't
        pollute the store.
        """
        history = self._students.get(student_id)
        if history is None:
            history = StudentHistory(student_id)
            self._students[student_id] = history
        return history

    def record(self, student_id, question_id: int, correct: int,
               concept_ids: Sequence[int]) -> StudentHistory:
        history = self.get(student_id)
        history.append(question_id, correct, concept_ids)
        return history

    def load_sequence(self, sequence: StudentSequence,
                      student_id=None) -> StudentHistory:
        """Bulk-load an existing sequence (e.g. an offline training log)."""
        history = self.get(sequence.student_id if student_id is None
                           else student_id)
        for interaction in sequence:
            history.append(interaction.question_id, interaction.correct,
                           interaction.concept_ids)
        return history
