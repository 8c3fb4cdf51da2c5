"""Subcommand behaviour and exit codes by driving cli.main directly."""

import json

import pytest

from delzant.cli import main

SQUARE = '{"dim":2,"vertices":[["0/1","0/1"],["1/1","0/1"],["1/1","1/1"],["0/1","1/1"]]}'
BAD_TRIANGLE = '{"dim":2,"vertices":[["0/1","0/1"],["2/1","0/1"],["0/1","3/1"]]}'


def run(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_ok(monkeypatch, capsys):
    code, out, _ = run(["validate", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_failure_exit_2(monkeypatch, capsys):
    code, out, err = run(["validate", "--json"], BAD_TRIANGLE, monkeypatch, capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["failures"][0]["vertexIndex"] == 1
    assert "determinant" in err


def test_parse_error_exit_5(monkeypatch, capsys):
    code, _, err = run(
        ["validate"], '{"dim":2,"vertices":[["1/0","0/1"],["1/1","0/1"],["0/1","1/1"]]}',
        monkeypatch, capsys,
    )
    assert code == 5
    assert "error" in err


def test_clockwise_warning_diagnostic(monkeypatch, capsys):
    cw = '{"dim":2,"vertices":[["0/1","0/1"],["0/1","1/1"],["1/1","1/1"],["1/1","0/1"]]}'
    code, _, err = run(["validate", "--json"], cw, monkeypatch, capsys)
    assert code == 0
    assert "clockwise" in err


def test_generate_chop_spectral_reconstruct_pipeline(monkeypatch, capsys):
    code, out, _ = run(
        ["generate", "hirzebruch", "--m", "1", "--w", "1", "--h", "1", "--json"],
        None, monkeypatch, capsys,
    )
    assert code == 0
    polygon_doc = out

    code, out, _ = run(["spectral", "--json"], polygon_doc, monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 4 and data["area"] == "3/2"

    code, out, _ = run(["reconstruct", "--json"], out, monkeypatch, capsys)
    assert code == 0
    assert len(json.loads(out)["candidates"]) == 2


def test_reconstruct_too_many_pairs_exit_4(monkeypatch, capsys):
    doc = json.dumps(
        {
            "d": 8,
            "classes": [
                {"normal": [0, 1], "lengthSum": "4/1"},
                {"normal": [1, 0], "lengthSum": "4/1"},
                {"normal": [1, 1], "lengthSum": "2/1"},
                {"normal": [1, -1], "lengthSum": "2/1"},
            ],
            "area": "14/1",
        }
    )
    code, _, err = run(["reconstruct"], doc, monkeypatch, capsys)
    assert code == 4
    assert "parallel pairs" in err


def test_bundle_round_trip_infeasible_exit_3(monkeypatch, capsys):
    doc = json.dumps(
        {
            "dim": 2,
            "entries": [
                {"normal": [1, 0], "offset": "1/1", "volume": "1/1"},
                {"normal": [0, 1], "offset": "1/1", "volume": "1/1"},
                {"normal": [1, 1], "offset": "3/1", "volume": "1/1"},
            ],
        }
    )
    code, _, err = run(["bundle-reconstruct"], doc, monkeypatch, capsys)
    assert code == 3
    assert "unbounded" in err


def test_bundle_data_and_back(monkeypatch, capsys):
    code, out, _ = run(["bundle-data", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    code, out, _ = run(["bundle-reconstruct", "--json"], out, monkeypatch, capsys)
    assert code == 0
    assert sorted(json.loads(out)["vertices"]) == sorted(json.loads(SQUARE)["vertices"])


def test_chop_command(monkeypatch, capsys):
    code, out, _ = run(
        ["chop", "--vertex", "0", "--depth", "1/3", "--json"], SQUARE, monkeypatch, capsys
    )
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 5


def test_chop_inadmissible_exit_2(monkeypatch, capsys):
    code, _, err = run(["chop", "--vertex", "0", "--depth", "2/1"], SQUARE, monkeypatch, capsys)
    assert code == 2
    assert "depth" in err


def test_random_deterministic_payload(monkeypatch, capsys):
    code, out1, _ = run(["random", "--edges", "6", "--seed", "9", "--bound", "4", "--json"],
                        None, monkeypatch, capsys)
    code2, out2, _ = run(["random", "--edges", "6", "--seed", "9", "--bound", "4", "--json"],
                         None, monkeypatch, capsys)
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 9 and doc["bound"] == 4


def test_strata_and_heat(monkeypatch, capsys):
    code, out, _ = run(["strata", "--theta", "1,0", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    kinds = [s["kind"] for s in json.loads(out)["strata"]]
    assert kinds.count("edge") == 2 and kinds.count("vertex") == 4

    code, out, _ = run(["heat", "--theta", "0,0", "--eval", "1.0", "--json"], SQUARE,
                       monkeypatch, capsys)
    assert code == 0
    terms = json.loads(out)["terms"]
    assert terms[0]["tExponent"] == -2
    assert terms[0]["value"] == pytest.approx((2 * 3.141592653589793) ** 2)


def test_census_command(monkeypatch, capsys):
    code, out, _ = run(["census", "--edges", "4", "--bound", "2", "--json"],
                       None, monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == sum(doc["histogram"].values())
    assert doc["bound"] == 2


def test_equiv_command(tmp_path, monkeypatch, capsys):
    other = tmp_path / "rotated.json"
    rotated = '{"dim":2,"vertices":[["0/1","0/1"],["0/1","-1/1"],["1/1","-1/1"],["1/1","0/1"]]}'
    other.write_text(rotated)
    code, out, err = run(["equiv", "--other", str(other), "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True

    tri = tmp_path / "tri.json"
    tri.write_text('{"dim":2,"vertices":[["0/1","0/1"],["1/1","0/1"],["0/1","1/1"]]}')
    code, out, _ = run(["equiv", "--other", str(tri), "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["equivalent"] is False


def test_roundtrip_command(monkeypatch, capsys):
    code, out, _ = run(
        ["roundtrip", "--edges", "5", "--seed", "3", "--trials", "4", "--bound", "3", "--json"],
        None, monkeypatch, capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert len(doc["results"]) == 4


def test_render_to_file(tmp_path, monkeypatch, capsys):
    out_file = tmp_path / "square.svg"
    code, _, _ = run(["render", "--out", str(out_file)], SQUARE, monkeypatch, capsys)
    assert code == 0
    assert out_file.read_bytes().startswith(b"<?xml")


def test_render_with_overlay(tmp_path, monkeypatch, capsys):
    code, out, _ = run(["spectral", "--json"], SQUARE, monkeypatch, capsys)
    code, out, _ = run(["reconstruct", "--json"], out, monkeypatch, capsys)
    overlay = tmp_path / "cands.json"
    overlay.write_text(out)
    code, out, _ = run(["render", "--overlay", str(overlay)], SQUARE, monkeypatch, capsys)
    assert code == 0
    assert out.count("<path") == 2  # square plus one candidate


def test_info_command(monkeypatch, capsys):
    code, out, _ = run(["info", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 4 and doc["delzant"] is True and doc["area"] == "1/1"


def test_in_and_out_files(tmp_path, monkeypatch, capsys):
    src = tmp_path / "square.json"
    src.write_text(SQUARE)
    dst = tmp_path / "data.json"
    code, out, _ = run(["spectral", "--in", str(src), "--out", str(dst), "--json"],
                       None, monkeypatch, capsys)
    assert code == 0 and out == ""
    assert json.loads(dst.read_text())["d"] == 4


@pytest.mark.parametrize("normal", [[2, 0], [-1, 0]])
def test_reconstruct_rejects_noncanonical_normal_exit_5(normal, monkeypatch, capsys):
    data = json.dumps({"d": 3, "classes": [{"normal": [0, 1], "lengthSum": "1/1"},
                                           {"normal": [1, 1], "lengthSum": "1/1"},
                                           {"normal": normal, "lengthSum": "1/1"}],
                       "area": "1/2"})
    code, out, err = run(["reconstruct"], data, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert f"normal {normal}" in err


@pytest.mark.parametrize("command", [
    ["census", "--edges", "4"],
    ["random", "--edges", "5", "--seed", "1"],
    ["roundtrip", "--edges", "5", "--seed", "1", "--trials", "1"],
])
def test_bound_below_one_exit_2(command, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--bound", "0"])
    assert exit_info.value.code == 2
    assert "--bound: must be at least 1, got 0" in capsys.readouterr().err


def test_reconstruct_classes_not_a_list_exit_5(monkeypatch, capsys):
    code, out, err = run(["reconstruct"], '{"d": 4, "classes": 5, "area": "1/1"}', monkeypatch, capsys)
    assert code == 5 and out == ""
    assert "'classes' must be a list" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("d", 4.7),
    ("d", "4"),
    ("normal", [0.9, 1]),
    ("normal", [True, 1]),
    ("normal", ["0", 1]),
    ("count", True),
    ("count", 1.0),
])
def test_reconstruct_rejects_non_integer_fields_exit_5(field, value, monkeypatch, capsys):
    doc = {"d": 3, "classes": [{"normal": [0, 1], "lengthSum": "1/1", "count": 1},
                               {"normal": [1, 0], "lengthSum": "1/1", "count": 1},
                               {"normal": [1, 1], "lengthSum": "1/1", "count": 1}],
           "area": "1/2"}
    if field == "d":
        doc["d"] = value
    else:
        doc["classes"][0][field] = value
    code, out, err = run(["reconstruct"], json.dumps(doc), monkeypatch, capsys)
    assert code == 5 and out == ""
    assert f"got {json.dumps(value)}" in err


@pytest.mark.parametrize("normal", [[1.5, 0], [1, False], ["1", 0], [1, 0, 0]])
def test_bundle_reconstruct_rejects_non_integer_normal_exit_5(normal, monkeypatch, capsys):
    doc = json.dumps({"dim": 2, "entries": [
        {"normal": normal, "offset": "1/1", "volume": "1/1"},
        {"normal": [0, 1], "offset": "1/1", "volume": "1/1"},
        {"normal": [-1, -1], "offset": "0/1", "volume": "1/1"},
    ]})
    code, out, err = run(["bundle-reconstruct"], doc, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert f"normal must be a list of 2 integers, got {json.dumps(normal)}" in err


def test_roundtrip_genericity_budget_is_per_trial(monkeypatch, capsys):
    code, out, err = run(["roundtrip", "--edges", "20", "--seed", "1", "--trials", "5", "--json"],
                         None, monkeypatch, capsys)
    assert code == 3
    doc = json.loads(out)
    outcomes = [row["outcome"] for row in doc["results"]]
    assert len(outcomes) == 5 and "genericity_budget" in outcomes
    assert doc["failures"] == outcomes.count("genericity_budget")
    assert "trials failed" in err
