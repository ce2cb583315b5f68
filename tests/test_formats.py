from __future__ import annotations

import numpy as np
import pytest

from kdbench.core import AgeGroup, Demographics, Gender, attach_demographics
from kdbench.errors import AlignmentError, ConfigError, ParseError
from kdbench.fairmetrics import sir
from kdbench.formats import (
    load_comparisons,
    load_demographics,
    load_det_csv,
    load_raw_log,
    load_scores,
    load_sir_csv,
    sha256_file,
    verify_strict_digest,
    write_comparisons,
    write_demographics,
    write_det_csv,
    write_raw_log,
    write_scores,
    write_sir_csv,
)
from kdbench.protocol import build_comparison_plan
from kdbench.synthgen import GeneratorConfig, generate
from kdbench.verifmetrics import roc

from test_fairmetrics import sir_entries_from_matrix


@pytest.fixture
def dataset():
    # Seed chosen so every demographic group holds at least two subjects,
    # satisfying the comparison-plan preconditions.
    return generate(GeneratorConfig(n_subjects=48, seed=31, keys_per_session=6))


def test_raw_log_round_trip(tmp_path, dataset):
    path = tmp_path / "raw.tsv"
    write_raw_log(dataset, path)
    parsed = attach_demographics(
        load_raw_log(path), {s.subject_id: s.demographics for s in dataset.subjects}
    )
    assert parsed.subjects == dataset.subjects


def test_demographics_round_trip(tmp_path, dataset):
    path = tmp_path / "demo.tsv"
    write_demographics(dataset, path)
    mapping = load_demographics(path)
    assert mapping == {s.subject_id: s.demographics for s in dataset.subjects}


def test_demographics_bad_gender(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("u1\t18-26\tX\n")
    with pytest.raises(ParseError, match="gender"):
        load_demographics(path)


def test_demographics_bad_age_group(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("u1\t18-25\tM\n")
    with pytest.raises(ParseError, match="age group"):
        load_demographics(path)


def test_demographics_conflicting_lines(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("u1\t18-26\tF\nu2\t18-26\tM\nu1\t18-26\tF\nu1\t18-26\tM\n")
    with pytest.raises(ParseError, match="^line 4: conflicting demographics for subject 'u1'"):
        load_demographics(path)


def test_comparisons_round_trip(tmp_path, dataset):
    plan = build_comparison_plan(dataset, seed=5)
    path = tmp_path / "comparisons.txt"
    write_comparisons(plan, path)
    assert load_comparisons(path) == plan


def test_comparisons_line_shape(tmp_path, dataset):
    plan = build_comparison_plan(dataset, seed=5)
    path = tmp_path / "comparisons.txt"
    write_comparisons(plan, path)
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 4
    assert ":" in first[0] and ":" in first[1]
    assert first[2] in {"G", "S", "D"}
    assert first[3].isdigit()


def test_comparisons_reject_bad_kind(tmp_path):
    path = tmp_path / "comparisons.txt"
    path.write_text("a:s1\tb:s2\tX\t0\n")
    with pytest.raises(ParseError, match="kind"):
        load_comparisons(path)


def test_scores_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, 100)
    path = tmp_path / "scores.txt"
    write_scores(scores.tolist(), path)
    loaded, digest = load_scores(path)
    assert digest is None
    assert np.array_equal(loaded, scores)


def test_scores_strict_header(tmp_path):
    comparisons = tmp_path / "comparisons.txt"
    comparisons.write_text("a:s1\tb:s2\tG\t0\n")
    digest = sha256_file(comparisons)
    path = tmp_path / "scores.txt"
    write_scores([0.5], path, comparisons_digest=digest)
    loaded, found = load_scores(path)
    assert found == digest
    verify_strict_digest(found, comparisons)
    comparisons.write_text("a:s1\tb:s2\tG\t1\n")
    with pytest.raises(AlignmentError, match="different comparison file"):
        verify_strict_digest(found, comparisons)


def test_scores_reject_garbage(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("0.5\nabc\n")
    with pytest.raises(ParseError, match="line 2"):
        load_scores(path)


def test_det_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    curve = roc(rng.uniform(0, 1, 50), rng.uniform(0, 1, 80))
    path = tmp_path / "det.csv"
    write_det_csv(curve, path)
    loaded = load_det_csv(path)
    assert np.array_equal(loaded.thresholds, curve.thresholds)
    assert np.array_equal(loaded.fmr, curve.fmr)
    assert np.array_equal(loaded.fnmr, curve.fnmr)


def test_det_csv_fmr_column_non_increasing(tmp_path):
    rng = np.random.default_rng(3)
    curve = roc(rng.uniform(0, 1, 50), rng.uniform(0, 1, 80))
    path = tmp_path / "det.csv"
    write_det_csv(curve, path)
    fmr = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert all(a >= b for a, b in zip(fmr, fmr[1:]))


def test_sir_csv_round_trip(tmp_path):
    matrix, _ = sir(sir_entries_from_matrix([[0.5, 0.3], [0.2, 0.6]]), "gender")
    path = tmp_path / "sir_gender.csv"
    write_sir_csv(matrix, path)
    labels, values, missing = load_sir_csv(path)
    assert labels == matrix.labels
    assert np.array_equal(values, matrix.values)
    assert not missing.any()


def test_sir_csv_missing_cells(tmp_path):
    entries = [
        e
        for e in sir_entries_from_matrix([[0.5, 0.3], [0.2, 0.6]])
        if not (e[0].gender is Gender.FEMALE and e[1].gender is Gender.MALE)
    ]
    with pytest.warns(UserWarning):
        matrix, _ = sir(entries, "gender")
    path = tmp_path / "sir_gender.csv"
    write_sir_csv(matrix, path)
    _, values, missing = load_sir_csv(path)
    assert missing[1, 0]
    assert not missing[0, 0]


def test_identifier_validation(tmp_path, dataset):
    from kdbench.core import Dataset, Session, Subject

    bad = Dataset(
        (
            Subject(
                "u:1",
                Demographics(AgeGroup.A10_13, Gender.MALE),
                (Session("s0", [(97, 0, 10)]),),
            ),
        )
    )
    with pytest.raises(ConfigError, match="colon"):
        write_raw_log(bad, tmp_path / "x.tsv")
