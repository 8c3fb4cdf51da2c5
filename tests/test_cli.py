"""Subcommand behaviour and exit codes by driving cli.main directly."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delzant import CandidateSet, zoo
from delzant.cli import main

SQUARE = '{"dim":2,"vertices":[["0/1","0/1"],["1/1","0/1"],["1/1","1/1"],["0/1","1/1"]]}'
BAD_TRIANGLE = '{"dim":2,"vertices":[["0/1","0/1"],["2/1","0/1"],["0/1","3/1"]]}'


def run(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        # The CLI reads stdin's bytes, as a real stdin has them.
        stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
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


def _halfplanes(*rows):
    return json.dumps({"dim": 2, "entries": [
        {"normal": list(normal), "offset": f"{offset}/1", "volume": f"{volume}/1"}
        for normal, offset, volume in rows
    ]})


@pytest.mark.parametrize("doc", [
    # y >= 1, x <= 0, y <= 0, x >= 1: the unit square, every normal negated
    _halfplanes(((0, -1), -1, 1), ((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, 0), -1, 1)),
    # y >= 2, x <= -1, y <= -2, x >= -2
    _halfplanes(((0, -1), -2, 1), ((1, 0), -1, 4), ((0, 1), -2, 1), ((-1, 0), 2, 4)),
    # x <= -2, y <= -1, x >= 2, y >= -2: a rectangle with the normals in order
    _halfplanes(((1, 0), -2, 1), ((0, 1), -1, 4), ((-1, 0), -2, 1), ((0, -1), 2, 4)),
], ids=["negated_square", "empty_rectangle", "empty_rectangle_in_order"])
def test_bundle_reconstruct_empty_system_exit_3(doc, monkeypatch, capsys):
    code, out, err = run(["bundle-reconstruct"], doc, monkeypatch, capsys)
    assert code == 3 and out == ""
    assert "half-planes do not bound a polygon" in err


@pytest.mark.parametrize("solid, message", [
    ({"dim": 2, "vertices": [["0/1", "0/1"], ["2/1", "0/1"], ["0/1", "1/1"]]},
     "rebuilt polygon is not Delzant: vertex 1 (0/1, 1/1) has determinant 2"),
    ({"dim": 3, "vertices": [["1/1", "0/1", "0/1"], ["-1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"],
                             ["0/1", "-1/1", "0/1"], ["0/1", "0/1", "1/1"], ["0/1", "0/1", "-1/1"]]},
     "rebuilt polytope is not Delzant: vertex 0 (-1/1, 0/1, 0/1) lies on 4 facets, not 3"),
], ids=["triangle", "octahedron"])
def test_bundle_reconstruct_refuses_a_non_delzant_rebuild_exit_3(solid, message, monkeypatch, capsys):
    code, data, _ = run(["bundle-data", "--json"], json.dumps(solid), monkeypatch, capsys)
    assert code == 0
    code, out, err = run(["bundle-reconstruct"], data, monkeypatch, capsys)
    assert (code, out, err) == (3, "", f"error: {message}\n")


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
    doc = json.loads(out)
    assert doc["terms"][0]["tExponent"] == -2
    assert doc["terms"][0]["value"] == pytest.approx((2 * 3.141592653589793) ** 2)
    assert doc["evaluatedAt"] == 1.0

    code, out, _ = run(["heat", "--theta", "1,0", "--json"], SQUARE, monkeypatch, capsys)
    doc = json.loads(out)
    assert code == 0 and "evaluatedAt" not in doc
    # The two edge strata fixed by theta, then a vertex.
    assert [term["direction"] for term in doc["terms"][:3]] == [[0, 1], [0, -1], None]


def test_census_command(monkeypatch, capsys):
    code, out, _ = run(["census", "--edges", "4", "--bound", "2", "--json"],
                       None, monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == sum(doc["histogram"].values())
    assert doc["bound"] == 2


def test_census_json_bytes(monkeypatch, capsys):
    code, out, err = run(["census", "--edges", "9", "--bound", "5", "--json"],
                         None, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out == ('{"d": 9, "histogram": {"1": 71740, "2": 41540, "3": 47180, "4": 37600}, '
                   '"total": 198060, "bound": 5}\n')


def test_census_budget_exit_4_bytes(monkeypatch, capsys):
    code, out, err = run(["census", "--edges", "8", "--bound", "4", "--max-instances", "5000"],
                         None, monkeypatch, capsys)
    assert (code, out, err) == (4, "", "error: census exceeded 5000 instances\n")


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


@pytest.mark.parametrize("command", ["validate", "info"])
@pytest.mark.parametrize("vertices", [
    [[0, 0], [1, 0], [-1, 2], [-1, -1], [1, 1], [-1, 1]],
    [[0, 0], [3, 2], [-1, 2], [2, 0], [1, 3]],
], ids=["hexagram", "pentagram"])
def test_star_exit_5(command, vertices, monkeypatch, capsys):
    doc = json.dumps({"dim": 2, "vertices": [[f"{x}/1", f"{y}/1"] for x, y in vertices]})
    code, out, err = run([command], doc, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert "more than once" in err


def test_info_command(monkeypatch, capsys):
    code, out, _ = run(["info", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 4 and doc["delzant"] is True and doc["area"] == "1/1"
    # Without --json the document is indented.
    code, out, _ = run(["info"], SQUARE, monkeypatch, capsys)
    assert code == 0 and out == json.dumps(doc, indent=2) + "\n"


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


@pytest.mark.parametrize("command, option", [
    (["roundtrip", "--edges", "5", "--seed", "0", "--trials", "-2", "--json"], "--trials"),
    (["census", "--edges", "5", "--bound", "3", "--max-instances", "-1"], "--max-instances"),
])
def test_count_below_one_exit_2(command, option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(command)
    assert exit_info.value.code == 2
    assert f"{option}: must be at least 1, got -" in capsys.readouterr().err


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


def test_roundtrip_counts_a_source_missing_from_its_candidates(monkeypatch, capsys):
    monkeypatch.setattr(CandidateSet, "__contains__", lambda self, polygon: False)
    code, out, err = run(["roundtrip", "--edges", "4", "--seed", "1", "--trials", "1", "--json"], None, monkeypatch, capsys)
    assert code == 3
    doc = json.loads(out)
    assert [row["outcome"] for row in doc["results"]] == ["missing"] and doc["failures"] == 1
    assert err == "1 trials failed\n"


def test_an_unmapped_error_is_raised_as_it_is(monkeypatch):
    def fault(*args, **kwargs):
        raise RuntimeError("fault")

    monkeypatch.setattr(zoo, "random_delzant", fault)
    with pytest.raises(RuntimeError, match="^fault$"):
        main(["roundtrip", "--edges", "4", "--seed", "1", "--trials", "1"])


RECORD = {"doubled": [], "signs": [1, 1], "splits": [], "parameter": None, "anchor": 1,
          "outcome": "emitted", "candidate": 0}


@pytest.mark.parametrize("overlay, message", [
    ("{not json", "invalid JSON: "),
    ("[]", "expected a JSON object at the top level"),
    ('{"candidates": [], "assignmentTrace": 5}', "'assignmentTrace' must be a list, got 5"),
    ('{"candidates": [], "assignmentTrace": [{"doubled": 5}]}', "trace record 0: doubled must be a list, got 5"),
    (json.dumps({"candidates": [json.loads(SQUARE)], "assignmentTrace": [dict(RECORD, signs=[1.7, 1])]}),
     "trace record 0: sign must be an integer, got 1.7"),
    (json.dumps({"candidates": [json.loads(SQUARE)], "assignmentTrace": [dict(RECORD, anchor=True)]}),
     "trace record 0: anchor must be an integer, got true"),
    ('{"candidates": [5]}', "candidate 0 must be an object, got 5"),
    ('{"candidates": [], "assignmentTrace": [5]}', "trace record 0 must be an object, got 5"),
    (json.dumps({"candidates": [], "assignmentTrace": [dict(RECORD, splits=[["1/1"]])]}),
     'trace record 0: splits must be pairs of rationals, got [["1/1"]]'),
    # A two-character string has length 2 too, but is not a pair.
    (json.dumps({"candidates": [], "assignmentTrace": [dict(RECORD, splits=["12"])]}),
     'trace record 0: splits must be pairs of rationals, got ["12"]'),
], ids=["invalid_json", "top_level_list", "trace_not_a_list", "doubled_not_a_list", "float_sign", "bool_anchor",
        "candidate_not_an_object", "record_not_an_object", "split_not_a_pair", "split_a_two_character_string"])
def test_render_rejects_malformed_overlay_exit_5(overlay, message, tmp_path, monkeypatch, capsys):
    path = tmp_path / "overlay.json"
    path.write_text(overlay)
    code, out, err = run(["render", "--overlay", str(path)], SQUARE, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


UNIT_SQUARE_DOC = {"dim": 2, "vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["1/1", "1/1"], ["0/1", "1/1"]]}


@pytest.mark.parametrize("candidates, record", [
    ([], dict(RECORD, outcome="bogus", candidate=None)),
    ([], dict(RECORD, outcome="bogus", candidate=99)),
    ([UNIT_SQUARE_DOC], {key: value for key, value in RECORD.items() if key != "outcome"}),
    ([UNIT_SQUARE_DOC], dict(RECORD, outcome="no_closure", candidate=0)),
    ([UNIT_SQUARE_DOC], dict(RECORD, candidate=None)),
    ([], dict(RECORD, candidate=0)),
    ([UNIT_SQUARE_DOC], dict(RECORD, candidate=1)),
    ([UNIT_SQUARE_DOC], dict(RECORD, candidate=-1)),
    ([], dict(RECORD, outcome="no_convex_ordering", candidate=None)),
], ids=["bogus_outcome", "bogus_outcome_and_index", "missing_outcome", "index_on_non_emitted",
        "emitted_without_index", "index_past_empty_list", "index_past_end", "negative_index",
        "no_convex_ordering"])
def test_render_rejects_inconsistent_trace_exit_5(candidates, record, tmp_path, monkeypatch, capsys):
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"candidates": candidates, "assignmentTrace": [record]}))
    code, out, err = run(["render", "--overlay", str(path)], SQUARE, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert err.startswith("error: ") and "trace record 0" in err


@pytest.mark.parametrize("record, message", [
    (dict(RECORD, signs=[7, 7, 7]), "sign must be one of [1, -1], got 7"),
    (dict(RECORD, anchor=5), "anchor must be one of [-1, 0, 1], got 5"),
    (dict(RECORD, doubled=[[2, 0]]), "doubled normal [2, 0] must be primitive"),
    (dict(RECORD, doubled=[[0, -1]]), "doubled normal [0, -1] must be primitive"),
], ids=["sign_out_of_range", "anchor_out_of_range", "doubled_not_primitive", "doubled_not_canonical"])
def test_render_rejects_trace_values_out_of_range_exit_5(record, message, tmp_path, monkeypatch, capsys):
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"candidates": [UNIT_SQUARE_DOC], "assignmentTrace": [record]}))
    code, out, err = run(["render", "--overlay", str(path)], SQUARE, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert err.startswith("error: trace record 0: ") and message in err


def test_render_accepts_consistent_trace(tmp_path, monkeypatch, capsys):
    records = [dict(RECORD), dict(RECORD, outcome="dropped_invalid", candidate=None)]
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"candidates": [UNIT_SQUARE_DOC], "assignmentTrace": records}))
    code, out, _ = run(["render", "--overlay", str(path)], SQUARE, monkeypatch, capsys)
    assert code == 0 and out.count("<path") == 2


@pytest.mark.parametrize("command, doc", [
    ("validate", {"dim": 2.0, "vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]]}),
    ("bundle-data", {"dim": 3.0, "vertices": [["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"],
                                              ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]]}),
])
def test_non_integer_dim_exit_5(command, doc, monkeypatch, capsys):
    code, out, err = run([command], json.dumps(doc), monkeypatch, capsys)
    assert code == 5 and out == ""
    assert f"got {doc['dim']!r}" in err


SIMPLEX3 = [["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]]


@pytest.mark.parametrize("vertices, message", [
    (SIMPLEX3 + [["1", "0", "0"]], "repeated vertex at index 4"),
    (SIMPLEX3[:2] + [["0/1", "1/x", "0/1"]] + SIMPLEX3[3:], "vertex 2: malformed rational '1/x'"),
    ([["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["1/1", "1/1", "0/1"]],
     "not the vertex set of a convex 3-polytope"),
    ([["0/1", "0/1"]] + SIMPLEX3[1:], "vertex 0 is not a coordinate triple"),
], ids=["repeated_vertex", "malformed_coordinate", "flat", "pair_in_3d"])
def test_bundle_data_rejects_bad_solid_exit_5(vertices, message, monkeypatch, capsys):
    code, out, err = run(["bundle-data"], json.dumps({"dim": 3, "vertices": vertices}), monkeypatch, capsys)
    assert code == 5 and out == ""
    assert message in err


@pytest.mark.parametrize("extra, message", [
    ((1, 0), "normals must be pairwise distinct"),
    ((2, 2), "normal (2, 2) is not a primitive integer vector"),
], ids=["repeated_normal", "non_primitive_normal"])
def test_bundle_reconstruct_malformed_normal_exit_3(extra, message, monkeypatch, capsys):
    doc = _halfplanes(((0, -1), 0, 1), ((1, 0), 1, 1), ((0, 1), 1, 1), ((-1, 0), 0, 1), (extra, 5, 1))
    code, out, err = run(["bundle-reconstruct"], doc, monkeypatch, capsys)
    assert code == 3 and out == ""
    assert message in err


def test_bundle_reconstruct_entry_without_offset_exit_5(monkeypatch, capsys):
    doc = json.dumps({"dim": 2, "entries": [{"normal": [1, 0], "volume": "1/1"}]})
    code, out, err = run(["bundle-reconstruct"], doc, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert "entry 0 is malformed" in err


def test_bundle_reconstruct_entry_not_an_object_exit_5(monkeypatch, capsys):
    code, out, err = run(["bundle-reconstruct"], '{"dim": 2, "entries": [5]}', monkeypatch, capsys)
    assert (code, out, err) == (5, "", "error: entry 0 must be an object, got 5\n")


TRIANGLE_DATA = {"d": 3, "classes": [{"normal": [0, 1], "lengthSum": "1/1"},
                                     {"normal": [1, 0], "lengthSum": "1/1"},
                                     {"normal": [1, 1], "lengthSum": "1/1"}], "area": "1/2"}


@pytest.mark.parametrize("field, value, message", [
    ("lengthSum", "0/1", "class 0: length sum must be positive"),
    ("lengthSum", "-1/1", "class 0: length sum must be positive"),
    ("normal", None, "class 0 is malformed"),
    ("area", "0/1", "area must be positive"),
    ("area", "-1/2", "area must be positive"),
    ("classes", [5], "class 0 must be an object, got 5"),
])
def test_reconstruct_rejects_malformed_data_exit_5(field, value, message, monkeypatch, capsys):
    doc = json.loads(json.dumps(TRIANGLE_DATA))
    target = doc if field in ("area", "classes") else doc["classes"][0]
    if value is None:
        del target[field]
    else:
        target[field] = value
    code, out, err = run(["reconstruct"], json.dumps(doc), monkeypatch, capsys)
    assert code == 5 and out == ""
    assert message in err


def test_reconstruct_has_no_max_pairs_option(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["reconstruct", "--max-pairs", "3"], json.dumps(TRIANGLE_DATA), monkeypatch, capsys)
    assert exit_info.value.code == 2


@pytest.mark.parametrize("command", [
    ["generate", "hirzebruch", "--m", "1", "--w", "1", "--h", "1"],
    ["random", "--edges", "5", "--seed", "1"],
    ["roundtrip", "--edges", "5", "--seed", "1", "--trials", "1"],
    ["census", "--edges", "4", "--bound", "2"],
], ids=["generate", "random", "roundtrip", "census"])
def test_a_command_that_reads_no_document_has_no_in_option(command, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(SQUARE)
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--in", str(path)])
    assert exit_info.value.code == 2


def test_chop_deeper_than_outgoing_edge_exit_2(monkeypatch, capsys):
    wide = '{"dim":2,"vertices":[["0/1","0/1"],["3/1","0/1"],["3/1","1/1"],["0/1","1/1"]]}'
    code, out, err = run(["chop", "--vertex", "1", "--depth", "2/1"], wide, monkeypatch, capsys)
    assert code == 2 and out == ""
    assert "of edge 1 out of vertex 1" in err


@pytest.mark.parametrize("theta, quoted", [
    ("1", "'1'"),
    # 64 characters are quoted whole, and one more is cut to them.
    ("1" * 64, repr("1" * 64)),
    ("1" * 65, f"{'1' * 64!r}... (65 characters)"),
], ids=["short", "64_characters", "65_characters"])
def test_strata_malformed_theta_exit_5(theta, quoted, monkeypatch, capsys):
    code, out, err = run(["strata", "--theta", theta], SQUARE, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert err == f"error: expected a direction like '1,0', got {quoted}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_heat_non_finite_eval_exit_2(value, monkeypatch, capsys):
    code, out, err = run(["heat", "--theta", "1,0", "--eval", value, "--json"], SQUARE, monkeypatch, capsys)
    assert code == 2 and out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("args", [
    ["random", "--edges", "1_0", "--seed", "3"],
    ["random", "--edges", "10", "--seed", "\u0663"],
    ["random", "--edges", "5", "--seed", "3", "--bound", "\uff14"],
    ["census", "--edges", "4", "--bound", "2", "--max-instances", "1 0"],
], ids=["underscore", "arabic_indic_digit", "fullwidth_digit", "inner_space"])
def test_malformed_integer_option_exit_2(args, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(args, None, monkeypatch, capsys)
    assert exit_info.value.code == 2
    assert "malformed integer" in capsys.readouterr().err


@pytest.mark.parametrize("args,stdin_text", [
    (["strata", "--theta", "1_0, 0"], SQUARE),
    (["chop", "--vertex", "0", "--depth", "1 / 3"], SQUARE),
    (["generate", "hirzebruch", "--m", "1", "--w", "1_0", "--h", "1"], None),
    (["validate"], '{"dim":2,"vertices":[["0/1","0/1"],["\uff11/\uff12","0/1"],["0/1","1/1"]]}'),
    (["validate"], '{"dim":2,"vertices":[["0/1","0/1"],["1_000/3","0/1"],["0/1","1/1"]]}'),
], ids=["theta", "depth", "width", "json_fullwidth", "json_underscore"])
def test_malformed_number_exit_5(args, stdin_text, monkeypatch, capsys):
    code, out, err = run(args, stdin_text, monkeypatch, capsys)
    assert code == 5 and out == ""
    assert "must be integers" in err or "malformed rational" in err


def test_strict_reader_strips_surrounding_whitespace(monkeypatch, capsys):
    code, out, _ = run(["strata", "--theta", " 1, 0 ", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["theta"] == [1, 0]
    code, out, _ = run(["random", "--edges", " 4", "--seed", "+3", "--json"], None, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["edges"] == 4 and json.loads(out)["seed"] == 3


def test_heat_poles_are_null_values(monkeypatch, capsys):
    code, out, err = run(["heat", "--theta", "1,0", "--eval", "0", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0
    terms = json.loads(out)["terms"]
    assert len(terms) == 6 and all(term["value"] is None for term in terms)
    assert err.count("has a pole") == 6


def test_equiv_from_non_delzant_polygon(tmp_path, monkeypatch, capsys):
    other = tmp_path / "bad.json"
    other.write_text(BAD_TRIANGLE)
    moved = '{"dim":2,"vertices":[["5/1","1/1"],["7/1","1/1"],["5/1","4/1"]]}'
    code, out, _ = run(["equiv", "--other", str(other), "--json"], moved, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"equivalent": True, "matrix": [[1, 0], [0, 1]], "translation": ["-5/1", "-1/1"]}


def test_roundtrip_perturbed_trial(monkeypatch, capsys):
    code, out, _ = run(["roundtrip", "--edges", "7", "--seed", "4", "--trials", "1", "--json"],
                       None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["results"] == [
        {"seed": 4, "pairs": 3, "perturbed": True, "candidates": 4, "outcome": "contained"}
    ]


def test_negative_option_value_needs_the_equals_form(monkeypatch, capsys):
    code, out, _ = run(["strata", "--theta=-1,0", "--json"], SQUARE, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["theta"] == [-1, 0]
    with pytest.raises(SystemExit) as exc:
        run(["strata", "--theta", "-1,0", "--json"], SQUARE, monkeypatch, capsys)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    (["strata"], "--theta"),
    (["heat"], "--theta"),
    (["chop"], "--depth"),
    (["generate", "hirzebruch"], "--w"),
    (["generate", "hirzebruch"], "--h"),
])
def test_help_names_the_equals_form(command, option, capsys):
    with pytest.raises(SystemExit):
        main(command + ["--help"])
    assert f"{option}=VALUE" in " ".join(capsys.readouterr().out.split())


def _path_error(code, out, err, verb, path):
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot {verb} {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_in_exit_2(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / name
    code, out, err = run(["validate", "--in", str(path)], None, monkeypatch, capsys)
    _path_error(code, out, err, "read", path)


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_equiv_other_exit_2(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / name
    code, out, err = run(["equiv", "--other", str(path)], SQUARE, monkeypatch, capsys)
    _path_error(code, out, err, "read", path)


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_render_overlay_exit_2(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / name
    code, out, err = run(["render", "--overlay", str(path)], SQUARE, monkeypatch, capsys)
    _path_error(code, out, err, "read", path)


@pytest.mark.parametrize("command", [["validate", "--json"], ["render"]], ids=["json", "raw"])
@pytest.mark.parametrize("name", ["missing/out.json", "."], ids=["missing_folder", "directory"])
def test_unwritable_out_exit_2(command, name, tmp_path, monkeypatch, capsys):
    path = tmp_path / name
    code, out, err = run(command + ["--out", str(path)], SQUARE, monkeypatch, capsys)
    _path_error(code, out, err, "write", path)


UNDECODABLE = {
    "invalid_utf8": b'{"dim": 2, "vertices": "\xff"}',
    "deep_nesting": b"[" * 1000 + b"]" * 1000,
    "long_digits": b'{"d": ' + b"7" * 5000 + b', "classes": [], "area": "1"}',
    "utf16": SQUARE.encode("utf-16"),
}


@pytest.mark.parametrize("command", ["validate", "reconstruct", "bundle-reconstruct"])
@pytest.mark.parametrize("document", sorted(UNDECODABLE))
def test_undecodable_document_exit_5(document, command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(UNDECODABLE[document])
    code, out, err = run([command, "--in", str(path)], None, monkeypatch, capsys)
    assert (code, out) == (5, "")
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_invalid_utf8_on_stdin_exit_5():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONIOENCODING="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "delzant.cli", "validate"],
        input=UNDECODABLE["invalid_utf8"], env=env, capture_output=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (5, b"")
    assert result.stderr.startswith(b"error: invalid JSON: ") and result.stderr.count(b"\n") == 1


HUGE = '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, "1/' + "7" * 400 + '"]]}'
# The weight of vertex 1 fits a float; the weight times 1e10 does not.
TALL = '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, "1/' + "7" * 300 + '"]]}'
# Every coordinate fits a float; their difference does not.
WIDE = json.dumps({"dim": 2, "vertices": [[-int(1.5e308), 0], [int(1.5e308), 0], [0, 1]]})


@pytest.mark.parametrize("command, document, message", [
    (["render"], HUGE, "the normal of edge 1"),
    (["heat", "--theta", "1,0", "--eval", "0.5"], HUGE, "vertex 1: a weight"),
    (["heat", "--theta", "1,1", "--eval", "1e10"], TALL, "vertex 1: a weight times the parameter"),
    (["render"], WIDE, "the coordinate span"),
], ids=["render", "heat", "heat_angle", "render_span"])
def test_coordinates_past_the_float_range_exit_4(command, document, message, monkeypatch, capsys):
    code, out, err = run(command, document, monkeypatch, capsys)
    assert (code, out, err) == (4, "", f"error: {message} is past the float range\n")

