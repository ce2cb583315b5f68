from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench.baseline import fit_normalization
from kdbench.cli import main
from kdbench.core import ALL_GROUPS, CHUNK_BYTES, Dataset
from kdbench.fairmetrics import FairnessConfig
from kdbench.features import FeatureConfig
from kdbench.formats import (
    load_comparisons,
    load_scores,
    write_comparisons,
    write_demographics,
    write_scores,
)
from kdbench.protocol import ComparisonKind, SplitConfig, build_comparison_plan
from kdbench.synthgen import GeneratorConfig, generate

from oracles import plan_of_rows
from test_formats import load_sir_csv

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

    def test_diagnostics_name_the_dropped_subjects(self, synth_dir, protocol_dir, tmp_path):
        # A 14-session copy of u00000 is dropped before the split, so the
        # plan stays as it was; reruns report it alike.
        manifest = json.loads((protocol_dir / "manifest_protocol.json").read_text())
        assert manifest["diagnostics"] == {
            "subjects_dropped": 0, "dropped_by_issue": {}, "first_dropped": []
        }
        log = (synth_dir / "raw_log.tsv").read_text()
        copy = [
            "zz_short" + line[len("u00000"):]
            for line in log.splitlines(keepends=True)
            if line.split("\t")[:2] in (["u00000", f"s{j:02d}"] for j in range(14))
        ]
        (tmp_path / "raw_log.tsv").write_text(log + "".join(copy))
        diagnostics = []
        for out in ("a", "b"):
            code = run(
                "protocol",
                "--data", tmp_path / "raw_log.tsv",
                "--demographics", synth_dir / "demographics.tsv",
                "--eval-count", 30,
                "--seed", 5,
                "--out", tmp_path / out,
            )
            assert code == 0
            manifest = json.loads((tmp_path / out / "manifest_protocol.json").read_text())
            diagnostics.append(manifest["diagnostics"])
        assert diagnostics[0] == diagnostics[1] == {
            "subjects_dropped": 1,
            "dropped_by_issue": {"session count < 15": 1},
            "first_dropped": ["zz_short"],
        }
        plan = (tmp_path / "a" / "comparisons.txt").read_bytes()
        assert plan == (protocol_dir / "comparisons.txt").read_bytes()


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
        broken = plan_of_rows((rows[0]._replace(enrol_session="zz99"),) + rows[1:])
        write_comparisons(broken, tmp_path / "broken.txt")
        code = run(
            "score",
            "--data", synth_dir / "raw_log.tsv",
            "--comparisons", tmp_path / "broken.txt",
            "--out", tmp_path / "out",
        )
        assert code == 4

    def test_development_set_is_the_eligible_subjects_outside_the_plan(
        self, synth_dir, protocol_dir, tmp_path, monkeypatch
    ):
        # Every fifth subject loses its last session, so ineligible subjects
        # sit between eligible ones and shift the eligible subjects' indices.
        evaluated = set(json.loads((protocol_dir / "split.json").read_text())["evaluation"])
        lines = (synth_dir / "raw_log.tsv").read_text().splitlines(keepends=True)
        log_order = list(dict.fromkeys(_fields(line)[0] for line in lines))
        short = {s for s in log_order[::5] if s not in evaluated}
        first_short = min(map(log_order.index, short))
        assert evaluated & set(log_order[first_short:])
        (tmp_path / "raw_log.tsv").write_text("".join(
            line for line in lines if not (_fields(line)[0] in short and _fields(line)[1] == "s14")
        ))
        fitted = []

        def spy(development, config):
            fitted.append(development.subject_ids.tolist())
            return fit_normalization(development, config)

        monkeypatch.setattr("kdbench.cli.fit_normalization", spy)
        code = run(
            "score",
            "--data", tmp_path / "raw_log.tsv",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--out", tmp_path / "out",
        )
        assert code == 0
        assert fitted == [[s for s in log_order if s not in evaluated | short]]

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

    def test_diagnostics_equal_across_runs_and_match_outputs(
        self, synth_dir, protocol_dir, scores_dir, tmp_path
    ):
        # Only the first line's age bin is enrolled: 10 groups are left out
        # of the spread and most SIR age cells are empty.
        group = _enrolled_group(synth_dir)
        age = group((protocol_dir / "comparisons.txt").read_text())[0]
        argv = _evaluate_subset(
            (synth_dir, protocol_dir, scores_dir, tmp_path),
            lambda i, line: group(line)[0] == age,
        )
        manifests = []
        for out in ("a", "b"):
            assert run(*argv[:-1], tmp_path / out) == 0
            manifests.append(json.loads((tmp_path / out / "manifest_evaluate.json").read_text()))
        diagnostics = manifests[0]["diagnostics"]
        assert diagnostics == manifests[1]["diagnostics"]
        fairness = json.loads((tmp_path / "a" / "fairness.json").read_text())
        excluded = diagnostics["groups_excluded_from_spread"]
        assert len(excluded) == 10
        assert excluded == [
            g.label() for g in ALL_GROUPS if g.label() not in fairness["per_group_accuracy"]
        ]
        for attribute in ("age", "gender"):
            labels, _, missing = load_sir_csv(tmp_path / "a" / f"sir_{attribute}.csv")
            expected = [[labels[i], labels[j]] for i, j in np.argwhere(missing).tolist()]
            assert diagnostics["sir_missing_cells"][attribute] == expected
        assert diagnostics["sir_missing_cells"]["age"]

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

    def test_pipeline_builds_no_subject_views(self, tmp_path, monkeypatch):
        # Every stage reads the dataset's columns: with the views refused,
        # the demo still runs and scores the same.
        args = ("demo", "--subjects", 100, "--eval-count", 30, "--seed", 31)
        assert run(*args, "--out", tmp_path / "plain") == 0

        def refuse(dataset):
            raise AssertionError("a pipeline stage built Subject/Session views")

        monkeypatch.setattr(Dataset, "subjects", property(refuse))
        assert run(*args, "--out", tmp_path / "columns") == 0
        scores = [(tmp_path / out / "scores.txt").read_bytes() for out in ("plain", "columns")]
        assert scores[0] == scores[1]

    @pytest.mark.parametrize(
        "synth_flags, score_flags",
        [((), ()), (("--skew", 0.5), ("--features", "11f", "--max-len", 20))],
        ids=["defaults", "flags"],
    )
    def test_demo_writes_the_stage_configs(self, tmp_path, synth_flags, score_flags):
        # demo and the four stage subcommands, given the same flags, build
        # the same configs; each manifest lists its config's fields by name.
        demo, staged = tmp_path / "demo", tmp_path / "staged"
        common = ("--subjects", 90, "--seed", 3)
        assert run("demo", *common, *synth_flags, "--eval-count", 30, *score_flags,
                   "--out", demo) == 0
        assert run("synth", *common, *synth_flags, "--out", staged) == 0
        assert run("protocol", "--data", staged / "raw_log.tsv",
                   "--demographics", staged / "demographics.tsv",
                   "--eval-count", 30, "--seed", 3, "--out", staged) == 0
        assert run("score", "--data", staged / "raw_log.tsv",
                   "--comparisons", staged / "comparisons.txt", *score_flags,
                   "--out", staged) == 0
        assert run("evaluate", "--comparisons", staged / "comparisons.txt",
                   "--scores", staged / "scores.txt",
                   "--demographics", staged / "demographics.tsv", "--out", staged) == 0
        stages = {"synth": GeneratorConfig, "protocol": SplitConfig,
                  "score": FeatureConfig, "evaluate": FairnessConfig}
        for stage, config in stages.items():
            from_demo, from_stage = (
                json.loads((d / f"manifest_{stage}.json").read_text()) for d in (demo, staged)
            )
            assert from_demo["config"] == from_stage["config"], stage
            assert from_demo["seed"] == from_stage["seed"], stage
            names = {f.name for f in fields(config)} - {"seed"}
            assert set(from_demo["config"]) == names | ({"strict"} if stage == "score" else set())


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


def _clip_seconds(value):
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        return (
            "score",
            "--data", synth_dir / "raw_log.tsv",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--clip-seconds", value,
            "--out", tmp_path / "out",
        )
    make_argv.__name__ = f"_clip_seconds_{value}"
    return make_argv


def _skew(value):
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        return ("synth", "--subjects", 40, "--seed", 7, "--skew", value, "--out", tmp_path / "out")
    make_argv.__name__ = f"_skew_{value}"
    return make_argv


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


def _evaluate_subset(dirs, keep):
    """evaluate on the fixture run's comparison lines, and their scores,
    for which `keep(index, line)` holds."""
    synth_dir, protocol_dir, scores_dir, tmp_path = dirs
    lines = (protocol_dir / "comparisons.txt").read_text().splitlines(keepends=True)
    scores = (scores_dir / "scores.txt").read_text().splitlines(keepends=True)
    assert len(scores) == len(lines)
    kept = [i for i, line in enumerate(lines) if keep(i, line)]
    (tmp_path / "comparisons.txt").write_text("".join(lines[i] for i in kept))
    (tmp_path / "scores.txt").write_text("".join(scores[i] for i in kept))
    return (
        "evaluate",
        "--comparisons", tmp_path / "comparisons.txt",
        "--scores", tmp_path / "scores.txt",
        "--demographics", synth_dir / "demographics.tsv",
        "--out", tmp_path / "out",
    )


def _enrolled_group(synth_dir):
    """The (age bin, gender) of a comparison line's enrolled subject."""
    demographics = {
        line.split("\t")[0]: tuple(line.split("\t")[1:])
        for line in (synth_dir / "demographics.tsv").read_text().splitlines()
    }
    return lambda line: demographics[line.split(":")[0]]


def _one_enrolled_group(*dirs):
    # 300 lines: the 2 evaluated subjects of the first line's group, 14-17/M.
    group = _enrolled_group(dirs[0])
    first = group((dirs[1] / "comparisons.txt").read_text())
    return _evaluate_subset(dirs, lambda i, line: group(line) == first)


def _slot_without_lines(*dirs):
    # The file's first five lines are its first subject's genuine slot 0.
    return _evaluate_subset(dirs, lambda i, line: i >= 5)


def _slot_with_four_lines(*dirs):
    return _evaluate_subset(dirs, lambda i, line: i != 2)


def _slot_with_six_lines(*dirs):
    # The first line again, at the end, with one more score: reported at
    # the slot's first line.
    return _evaluate_edited(
        dirs, edit_comparisons=lambda lines: lines + lines[:1], extra_scores="0.5\n"
    )


def _synth_too_large(synth_dir, protocol_dir, scores_dir, tmp_path):
    # 1.53 PiB of events: more than the address space, so numpy refuses the
    # block at once.
    return ("synth", "--subjects", 100_000_000_000, "--out", tmp_path / "out")


def _scores_set_to(value, lines=slice(17, 18)):
    """evaluate with `value` in place of the fixture run's scores at `lines`."""
    def make_argv(*dirs):
        argv = _evaluate_edited(dirs)
        path = dirs[3] / "scores.txt"
        scores = path.read_text().splitlines(keepends=True)
        scores[lines] = [f"{value}\n"] * len(scores[lines])
        path.write_text("".join(scores))
        return argv
    make_argv.__name__ = f"_scores_set_to_{value}"
    return make_argv


def _score_enrolling(enrol):
    """score with the first comparison line's enrolment side set to `enrol`."""
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        lines = (protocol_dir / "comparisons.txt").read_text().splitlines(keepends=True)
        lines[0] = "\t".join([enrol] + _fields(lines[0])[1:]) + "\n"
        (tmp_path / "comparisons.txt").write_text("".join(lines))
        return (
            "score",
            "--data", synth_dir / "raw_log.tsv",
            "--comparisons", tmp_path / "comparisons.txt",
            "--out", tmp_path / "out",
        )
    make_argv.__name__ = f"_score_enrolling_{enrol.replace(':', '_')}"
    return make_argv


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


def _non_utf8_raw_log(synth_dir, protocol_dir, scores_dir, tmp_path, at=300):
    data = (synth_dir / "raw_log.tsv").read_bytes()
    assert len(data) > at
    (tmp_path / "raw_log.tsv").write_bytes(data[:at] + b"\xff" + data[at:])
    return (
        "score",
        "--data", tmp_path / "raw_log.tsv",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--out", tmp_path / "out",
    )


def _non_utf8_raw_log_past_the_first_chunk(synth_dir, protocol_dir, scores_dir, tmp_path):
    return _non_utf8_raw_log(synth_dir, protocol_dir, scores_dir, tmp_path, CHUNK_BYTES + 300)


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


def _score_on_evaluated(count):
    """score with the fixture run's raw log cut to the first `count`
    evaluated subjects (all of them for None): no development subject is
    left, and with a count, plan subjects are missing too."""
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        evaluated = json.loads((protocol_dir / "split.json").read_text())["evaluation"]
        kept = set(evaluated[:count])
        lines = (synth_dir / "raw_log.tsv").read_text().splitlines(keepends=True)
        (tmp_path / "raw_log.tsv").write_text(
            "".join(line for line in lines if _fields(line)[0] in kept)
        )
        return (
            "score",
            "--data", tmp_path / "raw_log.tsv",
            "--comparisons", protocol_dir / "comparisons.txt",
            "--out", tmp_path / "out",
        )
    make_argv.__name__ = f"_score_on_evaluated_{count or 'all'}"
    return make_argv


def _score_empty_comparisons(synth_dir, protocol_dir, scores_dir, tmp_path):
    (tmp_path / "comparisons.txt").write_text("")
    return (
        "score",
        "--data", synth_dir / "raw_log.tsv",
        "--comparisons", tmp_path / "comparisons.txt",
        "--out", tmp_path / "out",
    )


def _negative_seed(name, *argv):
    return _run_with(f"negative_seed_{name}", *argv)


# Each stage's arguments; those with a "." name an input file.
STAGE_ARGS = {
    "protocol": ("--data", "raw_log.tsv", "--demographics", "demographics.tsv",
                 "--eval-count", "30", "--seed", "5"),
    "score": ("--data", "raw_log.tsv", "--comparisons", "comparisons.txt"),
    "evaluate": ("--comparisons", "comparisons.txt", "--scores", "scores.txt",
                 "--demographics", "demographics.tsv"),
}
def _fixture_inputs(synth_dir, protocol_dir, scores_dir):
    """Each input file of the fixture run, by name."""
    return {
        "raw_log.tsv": synth_dir / "raw_log.tsv",
        "demographics.tsv": synth_dir / "demographics.tsv",
        "comparisons.txt": protocol_dir / "comparisons.txt",
        "scores.txt": scores_dir / "scores.txt",
    }


def _run_with(name, *argv):
    """A run of `argv`; arguments with a "." name a fixture input file."""
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        inputs = _fixture_inputs(synth_dir, protocol_dir, scores_dir)
        return (*(inputs.get(a, a) for a in argv), "--out", tmp_path / "out")
    make_argv.__name__ = f"_{name}"
    return make_argv


def _unwritable_out(name, *argv):
    """A stage whose --out lies under a regular file, so it cannot be made."""
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        inputs = _fixture_inputs(synth_dir, protocol_dir, scores_dir)
        (tmp_path / "file").write_text("")
        return (*(inputs.get(a, a) for a in argv), "--out", tmp_path / "file" / "out")
    make_argv.__name__ = f"_unwritable_out_{name}"
    return make_argv


def _directory_input(name, replaced, *argv):
    """A stage given a directory in place of its input file `replaced`."""
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        inputs = _fixture_inputs(synth_dir, protocol_dir, scores_dir)
        inputs[replaced] = tmp_path / "dir"
        inputs[replaced].mkdir()
        return (*(inputs.get(a, a) for a in argv), "--out", tmp_path / "out")
    make_argv.__name__ = f"_directory_input_{name}"
    return make_argv


def _evaluate_reading(replaced, content, name):
    """evaluate on the fixture run with its input `replaced` holding the
    bytes `content`, or replaced by the path `content`."""
    def make_argv(synth_dir, protocol_dir, scores_dir, tmp_path):
        inputs = _fixture_inputs(synth_dir, protocol_dir, scores_dir)
        if isinstance(content, bytes):
            inputs[replaced] = tmp_path / replaced
            inputs[replaced].write_bytes(content)
        else:
            inputs[replaced] = content
        argv = ("evaluate", *STAGE_ARGS["evaluate"])
        return (*(inputs.get(a, a) for a in argv), "--out", tmp_path / "out")
    make_argv.__name__ = f"_evaluate_reading_{name}"
    return make_argv


BAD_INPUTS = [
    (_colon_ids, 2, "contains tab/newline/colon"),
    (_demographics_missing_evaluated_subject, 3, "no demographics for subject"),
    (_empty_comparisons_and_scores, 2, "has no comparisons"),
    (_malformed_raw_log, 2, "line 8: non-integer event field"),
    (_zero_max_len, 2, "max_len must be >= 1"),
    (_clip_seconds("nan"), 2, "clip_seconds must be positive, got nan"),
    (_skew("nan"), 2, "skew_strength must be finite and >= 0, got nan"),
    (_skew("inf"), 2, "skew_strength must be finite and >= 0, got inf"),
    (_skew("1e308"), 2, "skew_strength 1e+308 gives group 27-35/F impossible timings "
                        "(event times past 2**62 ms)"),
    (_skew("100"), 2, "skew_strength 100.0 gives group 10-13/M impossible timings "
                      "(mean_hold_s and mean_gap_s must be positive)"),
    (_alpha_above_one, 2, "alpha 2.0 outside [0, 1]"),
    (_slot_outside_range, 3, "outside [0, 10)"),
    (_genuine_line_across_subjects, 3, "genuine lines pair a subject with itself"),
    (_impostor_is_enrolled_subject, 3, "impostor lines with another"),
    (_flipped_gender, 3, "plan and demographics disagree"),
    (_one_enrolled_group, 3, "fairness metrics need at least 2 populated groups; "
                             "the plan enrols subjects of 14-17/M only"),
    (_slot_without_lines, 3, "subject u00001 is missing genuine slot 0"),
    (_slot_with_four_lines, 3, "slot u00001/genuine/0 has 4 comparisons, expected 5"),
    (_slot_with_six_lines, 3, "slot u00001/genuine/0 has 6 comparisons, expected 5"),
    (_scores_set_to("7.5"), 5, "score 7.5 at entry 17 outside [0, 1]"),
    (_scores_set_to("-0.1"), 5, "score -0.1 at entry 17 outside [0, 1]"),
    # Every score 1e308: a slot's sum would overflow.
    (_scores_set_to("1e308", slice(None)), 5, "score 1e+308 at entry 0 outside [0, 1]"),
    (
        _synth_too_large, 2,
        "100000000000 subjects x 15 sessions x 48 keys is more events than memory holds",
    ),
    # Past numpy's limits on a shape or a size, not only past memory.
    (_run_with("synth_too_many_subjects", "synth", "--subjects", 10**23), 2,
     f"{10**23} subjects x 15 sessions x 48 keys is more events than memory holds"),
    (_run_with("synth_too_many_keys", "synth", "--subjects", 2, "--keys", 2**63 - 1), 2,
     f"2 subjects x 15 sessions x {2**63 - 1} keys is more events than memory holds"),
    (_run_with("demo_too_many_subjects", "demo", "--subjects", 10**23), 2,
     f"{10**23} subjects x 15 sessions x 48 keys is more events than memory holds"),
    (_run_with("score_max_len_past_int64", "score", *STAGE_ARGS["score"], "--max-len", 10**30),
     2, f"max_len must be < 2**63, got {10**30}"),
    (_run_with("demo_max_len_past_int64", "demo", "--max-len", 2**63), 2,
     f"max_len must be < 2**63, got {2**63}"),
    (_score_enrolling("u00001:zz99"), 4, "session 'zz99' of subject 'u00001' not in dataset"),
    (_score_enrolling("zz_ghost:s00"), 4,
     "subject 'zz_ghost' not in dataset or not protocol-eligible"),
    # Plan references resolve before the development set is needed.
    (_score_on_evaluated(1), 4, "not in dataset or not protocol-eligible"),
    (_score_on_evaluated(None), 3, "every eligible subject in the dataset is referenced"),
    (_non_utf8_scores, 2, "scores.txt is not UTF-8 text (invalid start byte)"),
    (_non_utf8_raw_log, 2, "raw_log.tsv is not UTF-8 text (invalid start byte)"),
    (
        _non_utf8_raw_log_past_the_first_chunk, 2,
        "raw_log.tsv is not UTF-8 text (invalid start byte)",
    ),
    (_non_utf8_comparisons, 2, "comparisons.txt is not UTF-8 text (invalid start byte)"),
    # A bad line before a line that is not UTF-8, in the same chunk, wins.
    (
        _evaluate_reading("comparisons.txt", b"u1:s1\tu1:s2\tG\n\xff\n", "bad_plan_line_first"),
        2, "line 1: expected 4 tab-separated fields, got 3",
    ),
    (_evaluate_reading("scores.txt", b"0.5\nabc\n\xff\n", "bad_score_line_first"),
     2, "line 2: non-numeric score 'abc'"),
    (
        _evaluate_reading(
            "demographics.tsv", b"u00000\t18-26\n\xff\n", "bad_demographics_line_first"
        ),
        2, "line 1: expected 3 tab-separated fields, got 2",
    ),
    (_evaluate_reading("scores.txt", Path("/dev/null"), "dev_null"),
     2, "input file is not a regular file: /dev/null"),
    (_score_empty_comparisons, 2, "has no comparisons"),
    (_negative_seed("synth", "synth", "--subjects", 2, "--seed", -1), 2,
     "seed must be >= 0, got -1"),
    # Rejected even when no subject would draw from the seed.
    (_negative_seed("synth_no_subjects", "synth", "--subjects", 0, "--seed", -1), 2,
     "seed must be >= 0, got -1"),
    (
        _negative_seed(
            "protocol", "protocol", "--data", "raw_log.tsv", "--demographics",
            "demographics.tsv", "--eval-count", 30, "--seed", -5,
        ),
        2, "seed must be >= 0, got -5",
    ),
    (_negative_seed("demo", "demo", "--seed", -2), 2, "seed must be >= 0, got -2"),
    (_unwritable_out("synth", "synth", "--subjects", 2), 2, "out: Not a directory"),
    *(
        (_unwritable_out(stage, stage, *STAGE_ARGS[stage]), 2, "out: Not a directory")
        for stage in ("protocol", "score", "evaluate")
    ),
    (_unwritable_out("demo", "demo", "--subjects", 2), 2, "out: Not a directory"),
    (
        _directory_input("score_data", "raw_log.tsv", "score", *STAGE_ARGS["score"]), 2,
        "input file is a directory: ",
    ),
    (
        _directory_input(
            "protocol_demographics", "demographics.tsv", "protocol", *STAGE_ARGS["protocol"]
        ),
        3, "input file is a directory: ",
    ),
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


def test_infinite_clip_seconds_means_no_clipping(synth_dir, protocol_dir, tmp_path):
    assert run(
        "score",
        "--data", synth_dir / "raw_log.tsv",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--clip-seconds", "inf",
        "--out", tmp_path,
    ) == 0
    assert (tmp_path / "scores.txt").stat().st_size > 0


def test_largest_int64_max_len_means_no_truncation(synth_dir, protocol_dir, scores_dir, tmp_path):
    assert run(
        "score",
        "--data", synth_dir / "raw_log.tsv",
        "--comparisons", protocol_dir / "comparisons.txt",
        "--max-len", 2**63 - 1,
        "--out", tmp_path,
    ) == 0
    # The fixture's sessions hold 48 keys, the default max_len.
    assert (tmp_path / "scores.txt").read_bytes() == (scores_dir / "scores.txt").read_bytes()


def test_threads_flag_must_be_positive(tmp_path):
    assert run("synth", "--subjects", 1, "--threads", 0, "--out", tmp_path) == 2


# -- fuzz: one input of a small valid run mutated, then run through main.

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
