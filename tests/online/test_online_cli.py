"""``python -m repro.online``: one journal-driven refresh."""

import json

import pytest

from repro.cluster import RecordJournal
from repro.core import RCKT, RCKTConfig
from repro.data import SimulationConfig, StudentSimulator
from repro.online.__main__ import main
from repro.serve import InferenceEngine, RecordEvent, Service, to_wire

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5


@pytest.fixture()
def journal_setup(tmp_path):
    checkpoint = tmp_path / "incumbent.npz"
    InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                         RCKTConfig(encoder="dkt", dim=8, layers=1,
                                    seed=0))).save(checkpoint)
    simulator = StudentSimulator(SimulationConfig(
        num_students=12, num_questions=NUM_QUESTIONS,
        num_concepts=NUM_CONCEPTS, sequence_length=(8, 12)), seed=3)
    journal = RecordJournal(tmp_path / "journal", fsync="off")
    for sequence in simulator.simulate():
        for position, interaction in enumerate(sequence):
            event = RecordEvent(f"s-{sequence.student_id}",
                                interaction.question_id,
                                interaction.correct,
                                interaction.concept_ids)
            assert journal.append(sequence.student_id % 2, to_wire(event),
                                  position + 1) is None
    journal.close()
    return tmp_path, checkpoint


def test_run_mode_produces_checkpoint_and_report(journal_setup):
    tmp_path, checkpoint = journal_setup
    output = tmp_path / "refreshed.npz"
    report_path = tmp_path / "report.json"
    code = main(["--journal-dir", str(tmp_path / "journal"),
                 "--checkpoint", str(checkpoint),
                 "--output", str(output),
                 "--report", str(report_path),
                 "--epochs", "2", "--max-auc-drop", "0.1",
                 "--horizons", "1", "2"])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["journal"]["events"] > 0
    assert report["prequential"]["events"] == report["journal"]["events"]
    assert report["fine_tune"]["batches"] > 0
    assert report["gate"]["allowed"] in (True, False)
    assert report["rollout"]["refused"] is not report["gate"]["allowed"]
    assert sorted(report["multi_step"]) == ["1", "2"]
    # the refreshed checkpoint is servable as-is
    service = Service.from_checkpoint(output)
    service.close()


def test_run_mode_argument_validation(journal_setup, capsys):
    tmp_path, checkpoint = journal_setup
    assert main(["--checkpoint", str(checkpoint)]) == 2
    assert main(["--journal-dir", str(tmp_path / "journal"),
                 "--checkpoint", str(checkpoint),
                 "--output", str(tmp_path / "out.npz"),
                 "--eval-fraction", "1.5"]) == 2
    empty = tmp_path / "empty-journal"
    assert main(["--journal-dir", str(empty),
                 "--checkpoint", str(checkpoint),
                 "--output", str(tmp_path / "out.npz")]) == 1
    capsys.readouterr()
