"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from kdbench import formats
from measure import measure
from tracer import Tracer
from workloads import STAGE_OUTPUTS, WORKLOADS, Chain, prepare

ROOT = Path(__file__).resolve().parents[2]
SEED = 3  # not the pinned seed: small workloads have no pinned digests

SMALL = {
    "full-pipeline": dict(keys=6, max_len=6),
    "external-verifier": dict(subjects=200, eval_count=60),
    "rescore-unordered": dict(keys=8, max_len=6),
}


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def prepared_chain(name: str, work: Path) -> Chain:
    w = small(name)
    prepare(w, SEED, work / "inputs")
    chain = Chain(w, SEED, work)
    if w.shuffle:
        assert chain.reference().failed == 0
    return chain


def corrupt_write_scores(monkeypatch, edit) -> None:
    original = formats.write_scores

    def write_scores(scores, path, digest=None):
        original(edit(list(scores)), path, digest)

    monkeypatch.setattr(formats, "write_scores", write_scores)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracer_leaves_every_output_unchanged(name, tmp_path):
    chain = prepared_chain(name, tmp_path)
    plain = chain.run()
    listing = sorted(p.name for p in chain.out.iterdir())
    with Tracer() as tracer:
        traced = chain.run()
        stats = tracer.take()
    # A pass that differs from the first one is a failed check.
    assert (plain.failed, traced.failed) == (0, 0), plain.problems + traced.problems
    assert sorted(p.name for p in chain.out.iterdir()) == listing
    assert tracer.absent == []
    for stage in chain.w.stages:
        assert stats[f"cli.run_{stage}"].calls == 1
    assert sum(s.calls for s in stats.values()) > len(chain.w.stages)


def test_tracer_restores_every_binding(tmp_path):
    import kdbench.baseline
    import kdbench.cli

    before = (kdbench.cli.extract_features, kdbench.baseline.extract_features)
    with Tracer():
        assert kdbench.cli.extract_features is not before[0]
        assert kdbench.baseline.extract_features is kdbench.cli.extract_features
    assert (kdbench.cli.extract_features, kdbench.baseline.extract_features) == before


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_printed_metric_is_declared(name, trace, tmp_path):
    result, problems = measure(small(name), SEED, 0, trace, tmp_path)
    assert result["correct"] and problems == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = declared()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_corrupted_scores_count_as_failed(monkeypatch, tmp_path):
    # Dropping a score breaks "one score per comparison" and makes evaluate
    # reject the pair: two failed calls per pass.
    corrupt_write_scores(monkeypatch, lambda scores: scores[:-1])
    result, problems = measure(small("full-pipeline"), SEED, 0, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 2 * result["attempted"] // 4
    assert any("scores for" in p for p in problems)


def test_shuffled_log_must_score_like_the_ordered_one(monkeypatch, tmp_path):
    chain = prepared_chain("rescore-unordered", tmp_path)
    corrupt_write_scores(monkeypatch, lambda scores: scores[:-1] + [0.5])
    rep = chain.run()
    assert rep.failed == 1
    assert rep.problems == ["score: shuffled log scored differently from the ordered log"]


def test_pinned_digest_mismatch_counts_as_failed(monkeypatch, tmp_path):
    clean = prepared_chain("full-pipeline", tmp_path)
    assert clean.run().failed == 0
    golden = {"seed": SEED, "workloads": {"full-pipeline": clean.first}}
    chain = Chain(clean.w, SEED, tmp_path, golden)
    corrupt_write_scores(monkeypatch, lambda scores: [0.5] + scores[1:])
    rep = chain.run()
    # The altered score also changes what evaluate writes.
    assert rep.failed == 2
    assert rep.problems[0] == "score: scores.txt differs from its pinned digest"
    assert all(p.startswith("evaluate: ") for p in rep.problems[1:])


def test_pinned_digests_cover_every_output():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    assert golden["seed"] == 7
    for w in WORKLOADS.values():
        expected = {name for stage in w.stages for name in STAGE_OUTPUTS[stage]}
        assert set(golden["workloads"][w.name]) == expected, w.name
