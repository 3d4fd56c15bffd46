"""CLI surface tests: files, manifests, replay, exit codes, determinism."""

import json

import pytest

from compoundcode.cli import main
from compoundcode.ensembles import load_code


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# sample


def test_sample_writes_code_and_manifest(tmp_path, capsys):
    out = tmp_path / "mycode"
    assert run(["sample", "--seed", 3, "--out", out]) == 0
    code = load_code(tmp_path / "mycode_code.json")
    assert code.n == 24 and code.m == 16
    manifest = json.loads((tmp_path / "mycode_manifest.json").read_text())
    assert manifest["subcommand"] == "sample"
    assert "mycode_code.json" in manifest["outputs"]
    captured = capsys.readouterr().out
    assert "rates:" in captured


# ---------------------------------------------------------------------------
# bounds


def test_bounds_rd_outputs(tmp_path, capsys):
    out = tmp_path / "rd"
    assert run(["bounds", "rd", "--distortion", 0.11, "--grid", 200,
                "--out", out]) == 0
    text = capsys.readouterr().out
    assert "shannon reference" in text
    compound = (tmp_path / "rd_compound.csv").read_text().splitlines()
    assert compound[0] == "w,value,units"
    first = compound[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 0.500084041835) < 1e-9
    assert (tmp_path / "rd_uncoded.csv").exists()
    assert (tmp_path / "rd_compound.meta.json").exists()


def test_bounds_enum_peak(tmp_path, capsys):
    out = tmp_path / "enum"
    assert run(["bounds", "enum", "--grid", 101, "--out", out]) == 0
    # value at w = 1/2 equals the design rate 0.5 for every pair
    for name in ("enum_dv3dc6.csv", "enum_dv4dc8.csv", "enum_dv5dc10.csv"):
        lookup = {}
        for line in (tmp_path / name).read_text().splitlines()[1:]:
            w, v, _ = line.split(",")
            lookup[float(w)] = float(v)
        assert abs(lookup[0.5] - 0.5) < 1e-10
        assert max(lookup.values()) == pytest.approx(0.5, abs=1e-10)


def test_bounds_overlap_endpoints(tmp_path):
    out = tmp_path / "ov"
    assert run(["bounds", "overlap", "--distortion", 0.11, "--grid", 64,
                "--out", out]) == 0
    curves = {}
    for d in (3, 4, 5):
        rows = (tmp_path / f"ov_d{d}.csv").read_text().splitlines()[1:]
        curves[d] = [float(r.split(",")[1]) for r in rows]
        assert curves[d][0] == 0.0
        assert abs(curves[d][-1] + 0.500084041835) < 1e-9
    # deeper top degree pushes the curve down pointwise on (0, 1/2]
    for a, b in ((3, 4), (4, 5)):
        assert all(x >= y - 1e-12 for x, y in zip(curves[a][1:], curves[b][1:]))


# ---------------------------------------------------------------------------
# simulate + replay + thread determinism


def test_simulate_scsi_and_replay(tmp_path):
    out = tmp_path / "s1"
    assert run(["simulate", "scsi", "--trials", 25, "--seed", 5,
                "--out", out, "--dump-traces"]) == 0
    summary = json.loads((tmp_path / "s1_summary.json").read_text())
    assert summary["summary"]["trials"] == 25
    assert summary["summary"]["violation_count"] == 0
    traces = json.loads((tmp_path / "s1_traces.json").read_text())
    assert len(traces) == 25 and set(traces[0]) >= {"source", "syndrome"}
    trials = (tmp_path / "s1_trials.csv").read_text().splitlines()
    assert trials[0] == "trial,recovered,distortion,channel_weight"
    assert len(trials) == 26

    assert run(["replay", tmp_path / "s1_manifest.json",
                "--out", tmp_path / "s2"]) == 0
    assert (tmp_path / "s2_summary.json").read_text() == \
        (tmp_path / "s1_summary.json").read_text()


def test_simulate_thread_count_independent(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t4"
    assert run(["simulate", "ccsi", "--trials", 16, "--seed", 9,
                "--out", a, "--threads", 1]) == 0
    assert run(["simulate", "ccsi", "--trials", 16, "--seed", 9,
                "--out", b, "--threads", 4]) == 0
    assert (tmp_path / "t1_trials.csv").read_bytes() == \
        (tmp_path / "t4_trials.csv").read_bytes()
    s1 = json.loads((tmp_path / "t1_summary.json").read_text())
    s4 = json.loads((tmp_path / "t4_summary.json").read_text())
    assert s1 == s4


def test_simulate_rd_and_channel(tmp_path, capsys):
    assert run(["simulate", "rd", "--trials", 10, "--seed", 1,
                "--out", tmp_path / "rd"]) == 0
    assert "mean distortion" in capsys.readouterr().out
    assert run(["simulate", "channel", "--trials", 10, "--seed", 1, "--p", 0.02,
                "--out", tmp_path / "ch"]) == 0
    rows = (tmp_path / "ch_trials.csv").read_text().splitlines()
    assert rows[0] == "trial,ml_ok,threshold_status,threshold_ok"


def test_simulate_zero_trials(tmp_path, capsys):
    assert run(["simulate", "rd", "--trials", 0, "--seed", 1,
                "--out", tmp_path / "z"]) == 0
    assert "empty summary" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify


def test_verify_exponents_passes(capsys):
    assert run(["verify", "exponents"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_partition_passes(capsys):
    assert run(["verify", "partition", "--seed", 2]) == 0
    assert "disjoint union covers" in capsys.readouterr().out


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as err:
        run(["verify", "nonsense"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_verify_failure(monkeypatch, capsys):
    from compoundcode import cli

    def failing_suite(seed):
        checks = [{"name": "always-fails", "passed": False, "detail": "forced"}]
        raise cli.VerificationFailure("forced failure", checks)

    monkeypatch.setitem(cli._VERIFY_SUITES, "exponents", failing_suite)
    assert run(["verify", "exponents"]) == 4
    out = capsys.readouterr().out
    assert "FAIL always-fails" in out


def test_exit_code_replay_mismatch(tmp_path):
    assert run(["simulate", "rd", "--trials", 3, "--seed", 2,
                "--out", tmp_path / "m1"]) == 0
    manifest_path = tmp_path / "m1_manifest.json"
    doc = json.loads(manifest_path.read_text())
    name = next(iter(doc["outputs"]))
    doc["outputs"][name] = "0" * 64
    manifest_path.write_text(json.dumps(doc))
    assert run(["replay", manifest_path, "--out", tmp_path / "m2"]) == 4


def test_exit_code_invalid_params(tmp_path):
    # edge-count mismatch caught by EnsembleParams
    assert run(["simulate", "rd", "--n", 24, "--m", 16, "--k", 7,
                "--trials", 1, "--out", tmp_path / "x"]) == 2


def test_exit_code_resource_cap(tmp_path):
    assert run(["simulate", "rd", "--n", 40, "--m", 40, "--k", 0,
                "--dv", 0, "--dc-prime", 0, "--trials", 1,
                "--out", tmp_path / "x"]) == 3


def test_exit_code_infeasible_plan(tmp_path):
    # explicit invalid split: k1 + k2 exceeds m
    assert run(["simulate", "scsi", "--k1", 30, "--k2", 4, "--trials", 1,
                "--out", tmp_path / "y"]) == 2


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(subcommand="simulate.nope"), "'simulate.nope'"),
    (lambda doc: doc.pop("outputs"), "'outputs'"),
])
def test_exit_code_malformed_manifest(tmp_path, capsys, edit, message):
    assert run(["simulate", "rd", "--trials", 1, "--seed", 2,
                "--out", tmp_path / "m1"]) == 0
    manifest_path = tmp_path / "m1_manifest.json"
    doc = json.loads(manifest_path.read_text())
    edit(doc)
    manifest_path.write_text(json.dumps(doc))
    assert run(["replay", manifest_path, "--out", tmp_path / "m2"]) == 2
    assert message in capsys.readouterr().err
