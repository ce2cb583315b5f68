"""Golden digests: `kdbench demo` must keep writing the same bytes.

Two configurations run end to end: the demo defaults (5f, --max-len 48)
and an 11f run at --max-len 32, which truncates every 48-key session and
fills the 2- and 3-key look-ahead channels. Every artifact except the
manifests (they carry a timestamp) is pinned by SHA-256. A refactor that
changes any byte fails here; a deliberate format change re-pins the
digests and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from kdbench.cli import main

# Outputs of the synth and protocol stages, shared by both configurations.
_COMMON = {
    "raw_log.tsv": "0288ca1e495eff14719d434e0766ec598e6d263b6aeba32130972b7e7d65f23a",
    "demographics.tsv": "0db8616516a60f45e10a060b1879dbad0875b26dcfb753cad241c42f4cfc6f89",
    "comparisons.txt": "914fb04e044813c4558e75a39259c0dde83cd9aeff834ca6206299b533c2a815",
    "split.json": "5de291ff32d6bcab34e57ac4e5f9b4063a05e077435b02ccf59a87f7ce82c5b0",
}

GOLDEN = {
    "defaults": (
        (),
        {
            **_COMMON,
            "scores.txt": "d65f3b9c443377a318a8fdb68ef896eaa7ef6def180552abbb625195919cc535",
            "metrics.json": "0a0cd3a925b0b76f3f75fe54cfdad9c6e7550ccbf784b924c2cda0fa37b830ca",
            "fairness.json": "c8f49c4b51aa7037e3b124416006e1ca32ae170603d065e197a68ea1808e3e9d",
            "det.csv": "881979aa1ea3c61c643f6ffacf42dd2a080551991296d004ff85da0fca2937ad",
            "sir_age.csv": "5956ee12d9be0c718d3a207b98836471e9ecad70e4982aee4cda79befc5966d3",
            "sir_age_binarized.csv": "0dc5a382810296d9ba03db7e3d258da0aa6a2c611bfced08d0d4befd47e54dec",
            "sir_gender.csv": "dbf7d1bfbb9c427412d62a2893a0af5d251e0d377676395ba714ed61504932b2",
            "sir_gender_binarized.csv": "62738fbef67e75a33460219e810b89af700add7fae32fd8860ee571fb6063a75",
        },
    ),
    "11f-max-len-32": (
        ("--features", "11f", "--max-len", "32"),
        {
            **_COMMON,
            "scores.txt": "bb9c4f8adb9e1aa474ccb294a3cc23ab68787f9129d307e1a3bcfe4324bebec6",
            "metrics.json": "83c3c204e5e2435e2277616cb3155fe59c7e5d51d93ce6a4fc41cfce2143eef3",
            "fairness.json": "c72d0ee61bd08d0275efd918b46c71156c72d06a7cc695c17a539eaf6f911cf1",
            "det.csv": "f906b067976e7e76cc55863acb97aec26f998a64860f45d81b67817fe27c595b",
            "sir_age.csv": "cbf251af73b0f80319b15ff0d3bcd1c6dbe6cd6f0e4b0928c0cbee352d3782fe",
            "sir_age_binarized.csv": "d07d35edd176ad350578f47780ee385377a4d9a22c9cf2674c14424373280110",
            "sir_gender.csv": "f7c3f01ae0bf57053a8ee62c599d86a4fa34669d530f5f1790124b886b29a9df",
            "sir_gender_binarized.csv": "72da86fa5b80032f140f07057c700e97b80b28192eb3d53119e2fa418d34d6e5",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_demo_artifacts_match_pinned_digests(name, tmp_path):
    flags, expected = GOLDEN[name]
    assert main(["demo", *flags, "--out", str(tmp_path)]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
        if not p.name.startswith("manifest_")
    }
    assert written == expected
