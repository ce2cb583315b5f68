from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdbench.core import Session
from kdbench.features import FeatureConfig, FeatureSet, extract_features

from test_core import session_view

# Worked example: 'a' pressed 0 released 80, 'b' 100/180, 'c' 250/340,
# 'd' 300/420 (milliseconds). 'd' is pressed before 'c' is released.
WORKED_EVENTS = (
    (97, 0, 80),
    (98, 100, 180),
    (99, 250, 340),
    (100, 300, 420),
)
WORKED_SESSION = session_view("w", WORKED_EVENTS)


def config(feature_set=FeatureSet.F5, max_len=8, clip=10.0):
    return FeatureConfig(feature_set, max_len=max_len, clip_seconds=clip)


class TestChannelLayout:
    @pytest.mark.parametrize(
        "feature_set,count",
        [(FeatureSet.F4, 4), (FeatureSet.F5, 5), (FeatureSet.F10, 10), (FeatureSet.F11, 11)],
    )
    def test_channel_counts(self, feature_set, count):
        assert feature_set.n_channels == count
        matrix = extract_features(WORKED_SESSION, config(feature_set))
        assert matrix.values.shape == (8, count)

    def test_channel_order(self):
        assert FeatureSet.F5.channels == ("ht", "ipt", "irt", "ikt", "ascii")
        assert FeatureSet.F4.channels == ("ht", "ipt", "irt", "ikt")
        assert FeatureSet.F10.channels == (
            "ht", "ipt", "irt", "ikt",
            "ipt2", "irt2", "ikt2", "ipt3", "irt3", "ikt3",
        )
        assert FeatureSet.F11.channels == FeatureSet.F10.channels + ("ascii",)


class TestWorkedExample:
    def test_row0_five_channels(self):
        matrix = extract_features(WORKED_SESSION, config(FeatureSet.F5))
        expected = [0.08, 0.10, 0.10, 0.02, 97 / 255]
        assert matrix.values[0] == pytest.approx(expected, abs=1e-12)

    def test_row0_extended_channels(self):
        matrix = extract_features(WORKED_SESSION, config(FeatureSet.F10))
        expected = [0.08, 0.10, 0.10, 0.02, 0.25, 0.26, 0.17, 0.30, 0.34, 0.22]
        assert matrix.values[0] == pytest.approx(expected, abs=1e-12)

    def test_row2_negative_ikt_preserved(self):
        matrix = extract_features(WORKED_SESSION, config(FeatureSet.F5))
        ikt = matrix.values[2, 3]
        assert ikt == pytest.approx(-0.04, abs=1e-12)

    def test_trailing_rows_zero_padded(self):
        matrix = extract_features(WORKED_SESSION, config(FeatureSet.F11))
        assert matrix.valid_len == 4
        assert np.all(matrix.values[4:] == 0.0)

    def test_single_event_session(self):
        session = session_view("one", [(97, 0, 80)])
        matrix = extract_features(session, config(FeatureSet.F10, max_len=3))
        assert matrix.values[0] == pytest.approx([0.08] + [0.0] * 9, abs=1e-12)
        assert np.all(matrix.values[1:] == 0.0)


class TestExtractContracts:
    def test_empty_session_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            extract_features(session_view("e", ()), config())

    def test_truncation_to_max_len(self):
        matrix = extract_features(WORKED_SESSION, config(FeatureSet.F5, max_len=2))
        assert matrix.valid_len == 2
        assert matrix.values.shape == (2, 5)
        # Lookahead past the truncated end is zero, so row 1 has only HT
        # and the key-code channel.
        assert matrix.values[1] == pytest.approx([0.08, 0, 0, 0, 98 / 255], abs=1e-12)

    def test_clipping_bounds_time_channels(self):
        events = ((97, 0, 80), (98, 60_000, 60_080))
        matrix = extract_features(session_view("slow", events), config(clip=10.0))
        assert matrix.values[0, 1] == 10.0  # press-press gap of 60 s clipped

    def test_f4_equals_f5_without_ascii_column(self):
        f5 = extract_features(WORKED_SESSION, config(FeatureSet.F5))
        f4 = extract_features(WORKED_SESSION, config(FeatureSet.F4))
        assert np.array_equal(f4.values, f5.values[:, :4])

    def test_f10_equals_f11_without_ascii_column(self):
        f11 = extract_features(WORKED_SESSION, config(FeatureSet.F11))
        f10 = extract_features(WORKED_SESSION, config(FeatureSet.F10))
        assert np.array_equal(f10.values, f11.values[:, :10])

    def test_ascii_channel_in_unit_interval(self):
        matrix = extract_features(WORKED_SESSION, config(FeatureSet.F11))
        ascii_col = matrix.values[: matrix.valid_len, -1]
        assert np.all((ascii_col >= 0) & (ascii_col <= 1))


@st.composite
def sessions(draw):
    n = draw(st.integers(1, 12))
    events = []
    press = draw(st.integers(0, 1000))
    for _ in range(n):
        press += draw(st.integers(1, 400))
        hold = draw(st.integers(0, 350))
        events.append((draw(st.integers(0, 255)), press, press + hold))
    return session_view("h", events)


@settings(max_examples=60, deadline=None)
@given(sessions(), st.integers(-10**6, 10**6))
def test_time_shift_invariance(session, offset):
    shifted = Session(session.session_id, session.events + [0, offset, offset])
    cfg = config(FeatureSet.F11, max_len=12)
    assert np.array_equal(
        extract_features(session, cfg).values, extract_features(shifted, cfg).values
    )


@settings(max_examples=60, deadline=None)
@given(sessions(), st.integers(0, 11))
def test_prefix_consistency(session, k):
    # The first k rows only look 3 keys ahead, so a (k+3)-event prefix
    # already determines them.
    cfg = config(FeatureSet.F11, max_len=12)
    k = min(k, len(session.events))
    if k == 0:
        return
    prefix = Session(session.session_id, session.events[: k + 3])
    full = extract_features(session, cfg).values[:k]
    part = extract_features(prefix, cfg).values[:k]
    assert np.array_equal(full, part)
