from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench.cli import main
from kdbench.formats import (
    load_comparisons,
    load_scores,
    write_comparisons,
    write_demographics,
    write_scores,
)
from kdbench.protocol import ComparisonKind, build_comparison_plan
from kdbench.synthgen import GeneratorConfig, generate

from oracles import plan_of_rows

METRIC_KEYS = {
    "eer_global",
    "fnmr_at_fmr_0p1",
    "fnmr_at_fmr_1",
    "fnmr_at_fmr_10",
    "auc_global",
    "acc_global",
    "eer_subject_mean",
    "auc_subject_mean",
    "acc_subject_mean",
    "rank1",
}
FAIRNESS_KEYS = {"std", "ser", "fdr", "ir", "garbe", "sir_age", "sir_gender"}


def run(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_expected_subject_count(self, tmp_path):
        assert run("synth", "--subjects", 10, "--seed", 7, "--out", tmp_path) == 0
        lines = (tmp_path / "demographics.tsv").read_text().splitlines()
        assert len(lines) == 10
        raw = (tmp_path / "raw_log.tsv").read_text().splitlines()
        assert len(raw) == 10 * 15 * 48

    def test_same_flags_byte_identical(self, tmp_path):
        run("synth", "--subjects", 5, "--seed", 3, "--out", tmp_path / "a")
        run("synth", "--subjects", 5, "--seed", 3, "--out", tmp_path / "b")
        for name in ("raw_log.tsv", "demographics.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_zero_subjects_empty_files_exit_zero(self, tmp_path):
        assert run("synth", "--subjects", 0, "--seed", 1, "--out", tmp_path) == 0
        assert (tmp_path / "raw_log.tsv").read_text() == ""
        assert (tmp_path / "demographics.tsv").read_text() == ""

    def test_negative_subjects_exit_two(self, tmp_path):
        assert run("synth", "--subjects", -1, "--seed", 1, "--out", tmp_path) == 2

    def test_manifest_written(self, tmp_path):
        run("synth", "--subjects", 2, "--seed", 9, "--out", tmp_path)
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 9
        assert manifest["config"]["n_subjects"] == 2


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run("synth", "--subjects", 90, "--seed", 31, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def protocol_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("protocol")
    code = run(
        "protocol",
        "--data", synth_dir / "raw_log.tsv",
        "--demographics", synth_dir / "demographics.tsv",
        "--eval-count", 30,
        "--seed", 5,
        "--out", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def scores_dir(tmp_path_factory, synth_dir, protocol_dir):
    out = tmp_path_factory.mktemp("scores")
    code = run(
        "score",
        "--data", synth_dir / "raw_log.tsv",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--features", "5f",
        "--out", out,
    )
    assert code == 0
    return out


class TestProtocolCommand:
    def test_comparison_line_count(self, protocol_dir):
        lines = (protocol_dir / "comparisons.txt").read_text().splitlines()
        assert len(lines) == 30 * 150

    def test_split_listing_disjoint(self, protocol_dir):
        split = json.loads((protocol_dir / "split.json").read_text())
        assert not set(split["development"]) & set(split["evaluation"])
        assert len(split["evaluation"]) == 30

    def test_missing_demographics_exit_three(self, synth_dir, tmp_path):
        code = run(
            "protocol",
            "--data", synth_dir / "raw_log.tsv",
            "--demographics", synth_dir / "nope.tsv",
            "--eval-count", 30,
            "--out", tmp_path,
        )
        assert code == 3


class TestScoreCommand:
    def test_score_line_count_matches_comparisons(self, protocol_dir, scores_dir):
        n_comparisons = len((protocol_dir / "comparisons.txt").read_text().splitlines())
        n_scores = len((scores_dir / "scores.txt").read_text().splitlines())
        assert n_scores == n_comparisons

    def test_scores_in_unit_interval(self, scores_dir):
        scores, _ = load_scores(scores_dir / "scores.txt")
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_feature_set_choice_changes_scores(
        self, synth_dir, protocol_dir, scores_dir, tmp_path
    ):
        out4 = tmp_path / "4f"
        code = run(
            "score",
            "--data", synth_dir / "raw_log.tsv",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--features", "4f",
            "--out", out4,
        )
        assert code == 0
        four, _ = load_scores(out4 / "scores.txt")
        five, _ = load_scores(scores_dir / "scores.txt")  # scored with 5f
        assert not np.array_equal(four, five)

    def test_missing_session_exit_four(self, synth_dir, protocol_dir, tmp_path):
        # Point the plan at a session id that does not exist.
        plan = load_comparisons(protocol_dir / "comparisons.txt")
        rows = plan.entries
        entry = rows[0]
        broken = plan_of_rows(
            (type(entry)(
                entry.enrol_subject, "zz99", entry.verif_subject,
                entry.verif_session, entry.kind, entry.score_index,
                entry.enrol_index,
            ),) + rows[1:]
        )
        write_comparisons(broken, tmp_path / "broken.txt")
        code = run(
            "score",
            "--data", synth_dir / "raw_log.tsv",
            "--comparisons", tmp_path / "broken.txt",
            "--out", tmp_path / "out",
        )
        assert code == 4

    def test_ineligible_subject_leaves_scores_unchanged(
        self, synth_dir, scores_dir, protocol_dir, tmp_path
    ):
        # A 4-session copy of u00000 is not protocol-eligible, so it must not
        # join the subjects that fit the normalization.
        log = (synth_dir / "raw_log.tsv").read_text()
        copy = [
            "zz_short" + line[len("u00000"):]
            for line in log.splitlines(keepends=True)
            if line.split("\t")[:2] in (["u00000", f"s{j:02d}"] for j in range(4))
        ]
        assert copy
        (tmp_path / "raw_log.tsv").write_text(log + "".join(copy))
        code = run(
            "score",
            "--data", tmp_path / "raw_log.tsv",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--features", "5f",
            "--out", tmp_path / "out",
        )
        assert code == 0
        expected = (scores_dir / "scores.txt").read_bytes()
        assert (tmp_path / "out" / "scores.txt").read_bytes() == expected


class TestEvaluateCommand:
    def test_full_report_keys(self, synth_dir, protocol_dir, scores_dir, tmp_path):
        code = run(
            "evaluate",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--scores", scores_dir / "scores.txt",
            "--demographics", synth_dir / "demographics.tsv",
            "--out", tmp_path,
        )
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert METRIC_KEYS <= set(metrics)
        fairness = json.loads((tmp_path / "fairness.json").read_text())
        assert FAIRNESS_KEYS <= set(fairness)
        assert FAIRNESS_KEYS <= set(metrics["fairness"])
        for name in ("det.csv", "sir_age.csv", "sir_gender.csv"):
            assert (tmp_path / name).is_file()

    def test_line_count_mismatch_exit_five(
        self, synth_dir, protocol_dir, scores_dir, tmp_path
    ):
        scores, _ = load_scores(scores_dir / "scores.txt")
        write_scores(scores[:-1].tolist(), tmp_path / "short.txt")
        code = run(
            "evaluate",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--scores", tmp_path / "short.txt",
            "--demographics", synth_dir / "demographics.tsv",
            "--out", tmp_path / "out",
        )
        assert code == 5

    def test_strict_digest_mismatch_exit_five(
        self, synth_dir, protocol_dir, scores_dir, tmp_path
    ):
        scores, _ = load_scores(scores_dir / "scores.txt")
        write_scores(
            scores.tolist(), tmp_path / "strict.txt", comparisons_digest="0" * 64
        )
        code = run(
            "evaluate",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--scores", tmp_path / "strict.txt",
            "--demographics", synth_dir / "demographics.tsv",
            "--out", tmp_path / "out",
        )
        assert code == 5

    def test_perfectly_separated_fixture(self, tmp_path):
        # Hand-built scores with disjoint genuine/impostor supports must
        # produce a zero EER and full AUC through the file interface.
        ds = generate(GeneratorConfig(n_subjects=48, seed=31, keys_per_session=4))
        plan = build_comparison_plan(ds, seed=1)
        rng = np.random.default_rng(0)
        raw = np.where(
            [e.kind is ComparisonKind.GENUINE for e in plan.entries],
            rng.uniform(0.8, 1.0, len(plan.entries)),
            rng.uniform(0.0, 0.2, len(plan.entries)),
        )
        write_comparisons(plan, tmp_path / "comparisons.txt")
        write_scores(raw.tolist(), tmp_path / "scores.txt")
        write_demographics(ds, tmp_path / "demographics.tsv")
        code = run(
            "evaluate",
            "--comparisons", tmp_path / "comparisons.txt",
            "--scores", tmp_path / "scores.txt",
            "--demographics", tmp_path / "demographics.tsv",
            "--out", tmp_path / "out",
        )
        assert code == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["eer_global"] == 0.0
        assert metrics["auc_global"] == 100.0
        assert metrics["rank1"] == 100.0

    def test_joint_permutation_leaves_metrics_unchanged(
        self, synth_dir, protocol_dir, scores_dir, tmp_path
    ):
        plan = load_comparisons(protocol_dir / "comparisons.txt")
        scores, _ = load_scores(scores_dir / "scores.txt")
        rng = np.random.default_rng(3)
        order = rng.permutation(len(scores))
        rows = plan.entries
        permuted = plan_of_rows(rows[i] for i in order)
        write_comparisons(permuted, tmp_path / "comparisons.txt")
        write_scores(scores[order].tolist(), tmp_path / "scores.txt")
        for args, out in (
            ((protocol_dir / "comparisons.txt", scores_dir / "scores.txt"), "a"),
            ((tmp_path / "comparisons.txt", tmp_path / "scores.txt"), "b"),
        ):
            code = run(
                "evaluate",
                "--comparisons", args[0],
                "--scores", args[1],
                "--demographics", synth_dir / "demographics.tsv",
                "--out", tmp_path / out,
            )
            assert code == 0
        a = (tmp_path / "a" / "metrics.json").read_bytes()
        b = (tmp_path / "b" / "metrics.json").read_bytes()
        assert a == b


class TestDemo:
    def test_demo_pipeline_green(self, tmp_path):
        code = run(
            "demo", "--subjects", 100, "--eval-count", 30, "--seed", 31,
            "--out", tmp_path,
        )
        assert code == 0
        for name in (
            "raw_log.tsv",
            "demographics.tsv",
            "comparisons.txt",
            "scores.txt",
            "metrics.json",
            "fairness.json",
            "det.csv",
            "sir_age.csv",
            "sir_gender.csv",
        ):
            assert (tmp_path / name).is_file()


# -- bad inputs: each ends with its documented exit code and a one-line
# message, never a traceback.


def _colon_ids(synth_dir, protocol_dir, scores_dir, tmp_path):
    # Every subject id gains a ':', so every evaluated subject has one.
    for name in ("raw_log.tsv", "demographics.tsv"):
        text = (synth_dir / name).read_text().replace("u0", "u:0")
        (tmp_path / name).write_text(text)
    return (
        "protocol",
        "--data", tmp_path / "raw_log.tsv",
        "--demographics", tmp_path / "demographics.tsv",
        "--eval-count", 30,
        "--out", tmp_path / "out",
    )


def _demographics_missing_evaluated_subject(synth_dir, protocol_dir, scores_dir, tmp_path):
    evaluated = json.loads((protocol_dir / "split.json").read_text())["evaluation"]
    lines = (synth_dir / "demographics.tsv").read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(evaluated[0] + "\t")]
    assert len(kept) == len(lines) - 1
    (tmp_path / "demographics.tsv").write_text("".join(kept))
    return (
        "evaluate",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--scores", scores_dir / "scores.txt",
        "--demographics", tmp_path / "demographics.tsv",
        "--out", tmp_path / "out",
    )


def _empty_comparisons_and_scores(synth_dir, protocol_dir, scores_dir, tmp_path):
    (tmp_path / "comparisons.txt").write_text("")
    (tmp_path / "scores.txt").write_text("")
    return (
        "evaluate",
        "--comparisons", tmp_path / "comparisons.txt",
        "--scores", tmp_path / "scores.txt",
        "--demographics", synth_dir / "demographics.tsv",
        "--out", tmp_path / "out",
    )


def _malformed_raw_log(synth_dir, protocol_dir, scores_dir, tmp_path):
    lines = (synth_dir / "raw_log.tsv").read_text().splitlines(keepends=True)
    lines[7] = lines[7].rstrip("\n") + "zz\n"
    (tmp_path / "raw_log.tsv").write_text("".join(lines))
    return (
        "score",
        "--data", tmp_path / "raw_log.tsv",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--out", tmp_path / "out",
    )


def _zero_max_len(synth_dir, protocol_dir, scores_dir, tmp_path):
    return (
        "score",
        "--data", synth_dir / "raw_log.tsv",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--max-len", 0,
        "--out", tmp_path / "out",
    )


def _alpha_above_one(synth_dir, protocol_dir, scores_dir, tmp_path):
    return (
        "evaluate",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--scores", scores_dir / "scores.txt",
        "--demographics", synth_dir / "demographics.tsv",
        "--alpha", 2,
        "--out", tmp_path / "out",
    )


def _evaluate_edited(dirs, edit_comparisons=None, edit_demographics=None, extra_scores=""):
    """evaluate on the fixture run with its comparison lines, demographics
    lines or score file edited."""
    synth_dir, protocol_dir, scores_dir, tmp_path = dirs
    files = {
        "comparisons.txt": (protocol_dir, edit_comparisons),
        "demographics.tsv": (synth_dir, edit_demographics),
    }
    for name, (source, edit) in files.items():
        lines = (source / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join(edit(lines) if edit else lines))
    (tmp_path / "scores.txt").write_text((scores_dir / "scores.txt").read_text() + extra_scores)
    return (
        "evaluate",
        "--comparisons", tmp_path / "comparisons.txt",
        "--scores", tmp_path / "scores.txt",
        "--demographics", tmp_path / "demographics.tsv",
        "--out", tmp_path / "out",
    )


def _fields(line):
    return line.rstrip("\n").split("\t")


def _slot_outside_range(*dirs):
    # Five more genuine lines in slot 10, with five more scores: formerly
    # ignored in silence.
    def add_slot_ten(lines):
        extra = ["\t".join(_fields(line)[:3] + ["10"]) + "\n" for line in lines[:5]]
        return lines + extra

    return _evaluate_edited(dirs, edit_comparisons=add_slot_ten, extra_scores="0.5\n" * 5)


def _genuine_line_across_subjects(*dirs):
    def point_at_impostor(lines):
        enrol, verif, kind, slot = _fields(lines[0])
        impostor = next(_fields(line)[1] for line in lines if _fields(line)[2] == "S")
        assert kind == "G"
        lines[0] = "\t".join([enrol, impostor, kind, slot]) + "\n"
        return lines

    return _evaluate_edited(dirs, edit_comparisons=point_at_impostor)


def _impostor_is_enrolled_subject(*dirs):
    def self_impostor(lines):
        i = next(i for i, line in enumerate(lines) if _fields(line)[2] == "S")
        enrol, verif, kind, slot = _fields(lines[i])
        lines[i] = "\t".join([enrol, enrol, kind, slot]) + "\n"
        return lines

    return _evaluate_edited(dirs, edit_comparisons=self_impostor)


def _flipped_gender(*dirs):
    evaluated = json.loads((dirs[1] / "split.json").read_text())["evaluation"]

    def flip(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(evaluated[0] + "\t"))
        subject, age, gender = _fields(lines[i])
        lines[i] = f"{subject}\t{age}\t{'F' if gender == 'M' else 'M'}\n"
        return lines

    return _evaluate_edited(dirs, edit_demographics=flip)


def _non_utf8_scores(synth_dir, protocol_dir, scores_dir, tmp_path):
    data = (scores_dir / "scores.txt").read_bytes()
    (tmp_path / "scores.txt").write_bytes(data[:40] + b"\xff" + data[40:])
    return (
        "evaluate",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--scores", tmp_path / "scores.txt",
        "--demographics", synth_dir / "demographics.tsv",
        "--out", tmp_path / "out",
    )


def _non_utf8_raw_log(synth_dir, protocol_dir, scores_dir, tmp_path):
    data = (synth_dir / "raw_log.tsv").read_bytes()
    (tmp_path / "raw_log.tsv").write_bytes(data[:300] + b"\xff" + data[300:])
    return (
        "score",
        "--data", tmp_path / "raw_log.tsv",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--out", tmp_path / "out",
    )


def _non_utf8_comparisons(synth_dir, protocol_dir, scores_dir, tmp_path):
    data = (protocol_dir / "comparisons.txt").read_bytes()
    (tmp_path / "comparisons.txt").write_bytes(data[:50_000] + b"\xff" + data[50_000:])
    return (
        "evaluate",
        "--comparisons", tmp_path / "comparisons.txt",
        "--scores", scores_dir / "scores.txt",
        "--demographics", synth_dir / "demographics.tsv",
        "--out", tmp_path / "out",
    )


def _score_empty_comparisons(synth_dir, protocol_dir, scores_dir, tmp_path):
    (tmp_path / "comparisons.txt").write_text("")
    return (
        "score",
        "--data", synth_dir / "raw_log.tsv",
        "--comparisons", tmp_path / "comparisons.txt",
        "--out", tmp_path / "out",
    )


BAD_INPUTS = [
    (_colon_ids, 2, "contains tab/newline/colon"),
    (_demographics_missing_evaluated_subject, 3, "no demographics for subject"),
    (_empty_comparisons_and_scores, 2, "has no comparisons"),
    (_malformed_raw_log, 2, "line 8: non-integer event field"),
    (_zero_max_len, 2, "max_len must be >= 1"),
    (_alpha_above_one, 2, "alpha 2.0 outside [0, 1]"),
    (_slot_outside_range, 3, "outside [0, 10)"),
    (_genuine_line_across_subjects, 3, "genuine lines pair a subject with itself"),
    (_impostor_is_enrolled_subject, 3, "impostor lines with another"),
    (_flipped_gender, 3, "plan and demographics disagree"),
    (_non_utf8_scores, 2, "scores.txt is not UTF-8 text (invalid start byte)"),
    (_non_utf8_raw_log, 2, "raw_log.tsv is not UTF-8 text (invalid start byte)"),
    (_non_utf8_comparisons, 2, "comparisons.txt is not UTF-8 text (invalid start byte)"),
    (_score_empty_comparisons, 2, "has no comparisons"),
]


@pytest.mark.parametrize(
    "make_argv, exit_code, message", BAD_INPUTS, ids=[c[0].__name__ for c in BAD_INPUTS]
)
def test_bad_input_exit_code(
    make_argv, exit_code, message, synth_dir, protocol_dir, scores_dir, tmp_path, capsys
):
    argv = make_argv(synth_dir, protocol_dir, scores_dir, tmp_path)
    capsys.readouterr()
    assert run(*argv) == exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    # A stage that fails writes none of its outputs.
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_threads_flag_must_be_positive(tmp_path):
    assert run("synth", "--subjects", 1, "--threads", 0, "--out", tmp_path) == 2


# -- fuzz: one input of a small valid run mutated, then run through main.

# Each stage's arguments; those with a "." name an input file.
STAGE_ARGS = {
    "protocol": ("--data", "raw_log.tsv", "--demographics", "demographics.tsv",
                 "--eval-count", "30", "--seed", "5"),
    "score": ("--data", "raw_log.tsv", "--comparisons", "comparisons.txt"),
    "evaluate": ("--comparisons", "comparisons.txt", "--scores", "scores.txt",
                 "--demographics", "demographics.tsv"),
}
TOKENS = [b"", b"\t", b"\n", b":", b"\xff", b"-", b"0", b"9", b"e", b"nan", b"G", b"S", b"D"]


def _inputs(command):
    return [a for a in STAGE_ARGS[command] if "." in a]


def _stage(command, inputs, out):
    return run(command, *(inputs / a if "." in a else a for a in STAGE_ARGS[command]),
               "--out", out)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Every input of a 90-subject run with one key per session."""
    d = tmp_path_factory.mktemp("small")
    assert run("synth", "--subjects", 90, "--keys", 1, "--seed", 31, "--out", d) == 0
    assert _stage("protocol", d, d) == 0 and _stage("score", d, d) == 0
    return d


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STAGE_ARGS)), st.data())
def test_mutated_input_ends_with_a_documented_exit_code(small_run, command, data):
    name = data.draw(st.sampled_from(_inputs(command)), label="file")
    lines = (small_run / name).read_bytes().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    op = data.draw(st.sampled_from(["edit", "drop", "repeat"]), label="op")
    if op == "edit":
        at = data.draw(st.integers(0, len(lines[i])), label="at")
        cut = data.draw(st.integers(0, 3), label="cut")
        lines[i] = lines[i][:at] + data.draw(st.sampled_from(TOKENS)) + lines[i][at + cut:]
    elif op == "drop":
        del lines[i]
    else:
        lines.insert(data.draw(st.integers(0, len(lines)), label="to"), lines[i])

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for other in _inputs(command):
            shutil.copy(small_run / other, d / other)
        (d / name).write_bytes(b"".join(lines))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _stage(command, d, d / "out")
    assert code in {0, 2, 3, 4, 5}, err.getvalue()
    assert err.getvalue().count("\n") == (code != 0), err.getvalue()
