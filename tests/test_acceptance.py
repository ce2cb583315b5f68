"""Acceptance gate: one test per release criterion, each at its stated
tolerance. The conftest summary hook prints one PASS/FAIL line per
criterion after the run.
"""

from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np
import pytest

from kdbench.baseline import embed_dataset, fit_normalization, score_comparisons
from kdbench.cli import main
from kdbench.core import ALL_GROUPS, Session
from kdbench.fairmetrics import (
    FairnessConfig,
    GroupRates,
    accuracy_spread,
    fdr,
    garbe,
    group_rates,
    inequity_rate,
    sir,
)
from kdbench.features import FeatureConfig, FeatureSet, extract_features
from kdbench.protocol import (
    ScoreSet,
    SplitConfig,
    aggregate_scores,
    build_comparison_plan,
    split_dataset,
)
from kdbench.synthgen import GeneratorConfig, generate
from kdbench.verifmetrics import (
    accuracy_at,
    auc,
    compute_metrics_report,
    eer,
    fnmr_at_fmr,
    per_subject_metrics,
    roc,
)
from kdbench.fairmetrics import impostor_score_entries

from oracles import (
    auc_brute,
    eer_brute,
    fnmr_at_fmr_brute,
    group_rates_brute,
    rank1_brute,
)
from test_fairmetrics import (
    DESKTOP_GROUP_ACCURACIES,
    MOBILE_GROUP_ACCURACIES,
    sir_entries_from_matrix,
)


@pytest.mark.acceptance("Comparison-count law (15k/750k/2.25M entries, 15k case < 60 s)")
def test_comparison_count_law():
    for n_subjects, expected in ((100, 15_000), (5_000, 750_000)):
        ev = generate(GeneratorConfig(n_subjects=n_subjects, seed=123, keys_per_session=1))
        assert len(build_comparison_plan(ev, seed=0).entries) == expected

    started = time.monotonic()
    ev = generate(GeneratorConfig(n_subjects=15_000, seed=123, keys_per_session=1))
    plan = build_comparison_plan(ev, seed=0)
    elapsed = time.monotonic() - started
    assert len(plan.entries) == 2_250_000
    assert elapsed < 60.0, f"15k-subject protocol took {elapsed:.1f} s"


@pytest.mark.acceptance("Accuracy-spread reproduction (STD/SER vs published tables)")
def test_spread_statistics_reproduce_reference_tables():
    std, ser = accuracy_spread(DESKTOP_GROUP_ACCURACIES)
    assert std == pytest.approx(0.641, abs=0.001)
    assert ser == pytest.approx(1.025, abs=0.001)
    std, ser = accuracy_spread(MOBILE_GROUP_ACCURACIES)
    assert std == pytest.approx(0.664, abs=0.001)
    assert ser == pytest.approx(1.025, abs=0.001)


@pytest.mark.acceptance("Accuracy equals 100 - EER at the EER threshold (half step)")
def test_accuracy_eer_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n_g = int(rng.integers(20, 2000))
        n_i = int(rng.integers(20, 2000))
        genuine = rng.normal(0.62, 0.1, n_g)
        impostor = rng.normal(0.45, 0.1, n_i)
        eer_value, threshold = eer(roc(genuine, impostor))
        accuracy = accuracy_at(genuine, impostor, threshold)
        # Tie-free scores: realized FNMR/FMR at the interpolated threshold
        # each sit within one count of the crossing, so the accuracy gap is
        # at most half of one genuine-plus-impostor quantization step.
        half_step = 100.0 / (n_g + n_i)
        assert abs(accuracy - (100.0 - eer_value)) <= half_step + 1e-12


@pytest.mark.acceptance("Metric oracle equivalence (1,000 instances, exact, < 30 s)")
def test_metric_oracle_equivalence():
    rng = np.random.default_rng(31337)
    started = time.monotonic()
    for i in range(1000):
        if i % 100 == 99:
            n_g = n_i = 1000
        else:
            n_g = int(rng.integers(1, 500))
            n_i = int(rng.integers(1, 500))
        if rng.random() < 0.3:
            genuine = rng.integers(0, 20, n_g) / 20.0
            impostor = rng.integers(0, 20, n_i) / 20.0
        else:
            genuine = rng.uniform(0, 1, n_g)
            impostor = rng.uniform(0, 1, n_i)

        curve = roc(genuine, impostor)
        assert eer(curve) == eer_brute(genuine, impostor)
        x = float(rng.choice([0.1, 1.0, 10.0]))
        assert fnmr_at_fmr(curve, x) == fnmr_at_fmr_brute(genuine, impostor, x)
        assert auc(genuine, impostor) == auc_brute(genuine, impostor)

        if i % 5 == 0:
            n_subjects = int(rng.integers(2, 25))
            sets, demographics = [], {}
            for s_idx in range(n_subjects):
                sid = f"u{s_idx:03d}"
                sets.append(
                    ScoreSet(
                        sid,
                        tuple(rng.uniform(0.3, 1.0, 10)),
                        tuple(rng.uniform(0.0, 0.7, 10)),
                        tuple(rng.uniform(0.0, 0.7, 10)),
                    )
                )
                demographics[sid] = ALL_GROUPS[int(rng.integers(len(ALL_GROUPS)))]
            assert per_subject_metrics(sets).rank1 == rank1_brute(sets)
            rates = group_rates(sets, demographics)
            assert rates.rates == group_rates_brute(sets, demographics, rates.threshold)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f} s"


@pytest.mark.acceptance("Fairness fixpoints and hand-computed cases (1e-9)")
def test_fairness_fixpoints_and_hand_cases():
    identical = GroupRates(
        rates={g: (0.02, 0.05) for g in ALL_GROUPS}, threshold=0.5
    )
    assert fdr(identical) == pytest.approx(100.0, abs=1e-9)
    assert inequity_rate(identical) == pytest.approx(1.0, abs=1e-9)
    assert garbe(identical) == pytest.approx(0.0, abs=1e-9)
    std, ser = accuracy_spread([96.5] * 12)
    assert std == pytest.approx(0.0, abs=1e-9)
    assert ser == pytest.approx(1.0, abs=1e-9)
    _, scalar = sir(sir_entries_from_matrix([[0.4, 0.4], [0.4, 0.4]]), "gender")
    assert scalar == pytest.approx(0.0, abs=1e-9)

    two = GroupRates(
        rates={ALL_GROUPS[0]: (0.01, 0.10), ALL_GROUPS[1]: (0.03, 0.20)},
        threshold=0.5,
    )
    config = FairnessConfig(alpha=0.5)
    assert fdr(two, config) == pytest.approx(94.0, abs=1e-9)
    assert inequity_rate(two, config) == pytest.approx(math.sqrt(6.0), abs=1e-9)
    assert garbe(two, config) == pytest.approx(0.5 * 0.5 + 0.5 / 3.0, abs=1e-9)
    _, scalar = sir(sir_entries_from_matrix([[0.5, 0.3], [0.3, 0.5]]), "gender")
    assert scalar == pytest.approx(20.0, abs=1e-9)


@pytest.mark.acceptance("Feature extraction exactness on the 4-key example (1e-12)")
def test_feature_extraction_exactness():
    session = Session(
        "w",
        (
            (97, 0, 80),
            (98, 100, 180),
            (99, 250, 340),
            (100, 300, 420),
        ),
    )
    expected = np.array(
        [
            # ht, ipt, irt, ikt, ipt2, irt2, ikt2, ipt3, irt3, ikt3, ascii
            [0.08, 0.10, 0.10, 0.02, 0.25, 0.26, 0.17, 0.30, 0.34, 0.22, 97 / 255],
            [0.08, 0.15, 0.16, 0.07, 0.20, 0.24, 0.12, 0.0, 0.0, 0.0, 98 / 255],
            [0.09, 0.05, 0.08, -0.04, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 99 / 255],
            [0.12, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100 / 255],
            [0.0] * 11,
            [0.0] * 11,
        ]
    )
    matrix = extract_features(session, FeatureConfig(FeatureSet.F11, max_len=6))
    assert matrix.valid_len == 4
    np.testing.assert_allclose(matrix.values, expected, atol=1e-12)
    # The same rows restricted to the four base channels plus the key code.
    f5 = extract_features(session, FeatureConfig(FeatureSet.F5, max_len=6))
    np.testing.assert_allclose(
        f5.values, expected[:, [0, 1, 2, 3, 10]], atol=1e-12
    )


def run_pipeline(n_subjects, seed, skew, eval_count):
    dataset = generate(
        GeneratorConfig(n_subjects=n_subjects, seed=seed, skew_strength=skew)
    )
    development, evaluation = split_dataset(
        dataset, SplitConfig(seed=seed, eval_count=eval_count)
    )
    plan = build_comparison_plan(evaluation, seed)
    config = FeatureConfig(FeatureSet.F5, max_len=48)
    stats = fit_normalization(development, config)
    raw = score_comparisons(plan, embed_dataset(evaluation, config, stats))
    score_sets = aggregate_scores(plan, raw)
    return evaluation, plan, raw, score_sets


@pytest.mark.acceptance("End-to-end discrimination and threshold adaptivity (< 2 min)")
def test_end_to_end_discrimination_and_adaptivity():
    started = time.monotonic()
    _, _, _, score_sets = run_pipeline(200, seed=7, skew=0.0, eval_count=60)
    report = compute_metrics_report(score_sets)
    elapsed = time.monotonic() - started
    assert report.global_metrics.eer < 40.0
    assert report.per_subject.eer <= report.global_metrics.eer
    assert elapsed < 120.0, f"end-to-end run took {elapsed:.1f} s"
    # Accuracy at the global EER threshold complements the EER on the real
    # pipeline output as well.
    g = report.global_metrics
    n_scores = 30 * len(score_sets)
    assert abs(g.accuracy - (100.0 - g.eer)) <= 100.0 / n_scores + 1e-12


@pytest.mark.acceptance("Skew sensitivity: SIR grows with generator skew")
def test_sir_skew_sensitivity():
    scalars = {}
    for skew in (0.0, 0.5):
        evaluation, plan, raw, _ = run_pipeline(240, seed=11, skew=skew, eval_count=96)
        demographics = {s.subject_id: s.demographics for s in evaluation.subjects}
        entries = impostor_score_entries(plan, raw, demographics)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, sir_age = sir(entries, "age")
            _, sir_gender = sir(entries, "gender")
        scalars[skew] = (sir_age, sir_gender)
    assert scalars[0.5][0] > scalars[0.0][0]
    assert scalars[0.5][1] > scalars[0.0][1]


def _demo(out, threads):
    code = main(
        [
            "demo",
            "--subjects", "100",
            "--eval-count", "30",
            "--seed", "31",
            "--threads", str(threads),
            "--out", str(out),
        ]
    )
    assert code == 0


@pytest.mark.acceptance("Determinism: byte-identical outputs across runs and thread counts")
def test_pipeline_determinism(tmp_path):
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        _demo(tmp_path / name, threads)
    baseline_dir = tmp_path / "a"
    outputs = sorted(p.name for p in baseline_dir.iterdir())
    assert "metrics.json" in outputs and "scores.txt" in outputs
    for other in ("b", "c"):
        for name in outputs:
            mine = (baseline_dir / name).read_bytes()
            theirs = (tmp_path / other / name).read_bytes()
            if name.startswith("manifest_"):
                a = json.loads(mine)
                b = json.loads(theirs)
                a.pop("timestamp"), b.pop("timestamp")
                assert a == b, f"manifest {name} differs vs {other}"
            else:
                assert mine == theirs, f"{name} differs between runs a/{other}"
