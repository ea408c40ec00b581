import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import aag
import aag.cli  # noqa: F401  (the traced call sites live in the CLI module)
import run
import spans
import workloads

SMALL = workloads.Workload("small", train_rows=300, score_rows=200, groups=2,
                           categorical=1, missing_share=0.05, unseen_share=0.05)


def _files(inputs):
    return inputs.train_csv.read_bytes(), inputs.score_csv.read_bytes()


def test_generator_is_deterministic_per_seed(tmp_path):
    a = workloads.generate(SMALL, 7, 0, tmp_path / "a")
    b = workloads.generate(SMALL, 7, 0, tmp_path / "b")
    c = workloads.generate(SMALL, 8, 0, tmp_path / "c")
    assert _files(a) == _files(b)
    assert np.array_equal(a.labels, b.labels)
    assert _files(a) != _files(c)
    assert a.labels.sum() == round(workloads.ANOMALY_SHARE * SMALL.score_rows)


def test_generator_damages_only_score_rows(tmp_path):
    inputs = workloads.generate(SMALL, 3, 0, tmp_path)
    train = aag.load_csv(inputs.train_csv)
    score = aag.load_csv(inputs.score_csv)
    kinds = [c.kind for c in train.columns]
    # the last attribute of the first group is the categorical one
    assert kinds == ["numeric"] * 3 + ["categorical"] + ["numeric"] * 4
    assert [c.kind for c in score.columns] == kinds
    assert not any(np.isnan(c.values).any() for c in train.columns if c.kind == "numeric")
    assert any(np.isnan(c.values).any() for c in score.columns if c.kind == "numeric")
    symbols = set(score.columns[3].values) - {None}
    assert set(train.columns[3].values) <= {f"s{k}" for k in range(5)}
    assert symbols & {"new0", "new1", "new2"}


def test_self_time_on_a_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["c", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 6.0, 0, "r"],
        ["late", 9.5, 11.0, 0, "r"],  # runs past its parent: only the overlap counts
    ]
    assert spans.self_times(tree) == [10.0 - 3.0 - 1.0 - 0.5, 2.0, 1.0, 1.0, 1.5]
    total, own = spans.totals(tree)
    assert total["a"] == 3.0 and own["a"] == 2.0


def _table(tmp_path, instance=0):
    inputs = workloads.generate(SMALL, 5, instance, tmp_path / f"t{instance}")
    return run.Table(instance, inputs, None)


def test_corrupt_model_is_a_failed_score_not_a_crash(tmp_path):
    ledger = run.Ledger()
    table = _table(tmp_path)
    assert run.train(aag, table, ledger) is not None
    table.model_path.write_text('{"alpha": 0.05', encoding="utf-8")
    assert run.score(aag, table, ledger) is None
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.problems[0].startswith("score table 0: exit code")


def test_classify_round_checks_every_call_and_a_corrupt_model_fails(tmp_path):
    ledger = run.Ledger()
    table = _table(tmp_path)
    run.train(aag, table, ledger)
    run.score(aag, table, ledger)
    run.load_sample(aag, table, 1, 0, ledger)
    rounds = [[]]
    run.classify_round(aag, [table], ledger, rounds)
    assert ledger.failed == 0 and len(rounds[0][0]) == len(table.sample)
    table.sample[0] = (table.sample[0][0], table.sample[0][1] + 0.5, table.sample[0][2])
    run.classify_round(aag, [table], ledger, rounds)
    assert len(rounds[0]) == 1 and ledger.problems == ["classify table 0: aag.classify disagrees with scores.csv"]
    fresh = _table(tmp_path, 1)
    run.train(aag, fresh, ledger)
    run.score(aag, fresh, ledger)
    fresh.model_path.write_text("[]", encoding="utf-8")
    run.load_sample(aag, fresh, 1, 0, ledger)
    assert fresh.sample is None and ledger.problems[-1].startswith("classify table 1: raised")


def test_row_latencies_take_each_rows_fastest_call():
    rounds = [[[5.0, 9.0], [7.0, 3.0], [6.0, 4.0]], [], [[2.0]]]
    assert run.row_latencies(rounds) == [[5.0, 3.0], [2.0]]


def test_changed_output_is_a_failed_check(tmp_path):
    ledger = run.Ledger()
    table = _table(tmp_path)
    run.train(aag, table, ledger)
    run.score(aag, table, ledger)
    table.reference = {"subspaces": table.subspaces, "rho": table.rho + 0.01}
    table.model_sha = None
    assert run.train(aag, table, ledger) is None
    assert ledger.problems == ["train table 0: rho %r differs from the reference %r"
                               % (table.rho, table.rho + 0.01)]


def test_tracer_restores_every_original(tmp_path):
    targets = spans._targets(aag)
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    table = _table(tmp_path)
    ledger = run.Ledger()
    tracer = spans.Tracer("test")
    tracer.install(aag)
    try:
        assert len(spans.wrapped_names(aag)) == len(targets)
        run.train(aag, table, ledger, tracer)
        run.score(aag, table, ledger, tracer)
    finally:
        tracer.restore()
    assert spans.wrapped_names(aag) == []
    assert all(vars(owner)[attr] is obj for (owner, attr, _, _), obj in zip(targets, before))
    assert ledger.failed == 0
    m = spans.layer_metrics(tracer)
    assert m["measures.joint_entropy.calls"] > m["measures.joint_entropy.distinct_sets"] > 0
    assert m["ensemble.detectors"] == len(table.subspaces)
    assert m["ensemble.detector_evals"] == SMALL.score_rows * len(table.subspaces)
    assert 0 < m["cli.train.self_s"] < m["cli.train_s"]
    tracer.write(tmp_path / "spans.json", {})
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert doc["fields"] == list(spans.FIELDS) and len(doc["spans"]) == m["trace.spans"]


def test_kernel_sets_are_distinct_and_seeded():
    sets = run.kernel_sets(12, seed=4)
    assert len(sets) == len(set(sets)) == 66 + 220 + 20
    assert sets == run.kernel_sets(12, seed=4)


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "score-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    emitted = run.pass_metrics(spans.Tracer("empty"), 0.0, 1.0, 1)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {n: run.unit(n) for n in emitted}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
