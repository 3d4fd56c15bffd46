"""Golden replay gate: every committed manifest must replay byte-identically.

``tests/golden`` holds manifests and outputs written by the CLI at small
sizes and fixed seeds, one or more per replayable subcommand (the simulate
pipelines under both decoders, a CCSI seed with infeasible cosets, and a
quantization whose search spans several blocks).  Replaying a manifest
re-runs its command under a fresh prefix and compares SHA-256 digests, so a
refactor that changes any output byte fails here.
"""

import json
from pathlib import Path

import pytest

from compoundcode import cli

GOLDEN = Path(__file__).parent / "golden"
MANIFESTS = sorted(GOLDEN.glob("*_manifest.json"))


def test_golden_covers_every_replayable_subcommand():
    assert MANIFESTS, f"no manifests in {GOLDEN}"
    covered = {json.loads(p.read_text())["subcommand"] for p in MANIFESTS}
    assert covered == set(cli._REPLAYABLE)


@pytest.mark.parametrize("manifest", MANIFESTS, ids=lambda p: p.name)
def test_golden_manifest_replays(manifest, tmp_path, capsys):
    outputs = json.loads(manifest.read_text())["outputs"]
    rc = cli.main(["replay", str(manifest), "--out", str(tmp_path / "replay")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == cli.EXIT_OK
    assert not [line for line in lines if line.startswith("MISMATCH")]
    assert sum(line.startswith("MATCH ") for line in lines) == len(outputs)
