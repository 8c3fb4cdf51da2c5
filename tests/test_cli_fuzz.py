"""The CLI contract under arbitrary JSON: every subcommand that reads a
document exits with a documented code (0, 2, 3, 4 or 5) and never raises.

Documents are bounded (at most 8 vertices, classes, entries or records) so
that enumeration stays small.  They mix well-formed documents from the
library's own writers, documents of the right shape with arbitrary field
values, arbitrary JSON values, text that is not JSON at all, and raw bytes
the decoder cannot take: invalid UTF-8, nesting past the decoder's recursion
limit and integer literals past the interpreter's digit limit.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delzant import bundle_facet_data, enumerate_candidates, random_delzant, spectral_data
from delzant.cli import main
from delzant.errors import ParseError, ReconstructionInfeasibleError, UnsupportedAmbiguityError
from delzant.serialize import candidates_to_json, halfspace_to_json, parse_spectral, polygon_to_json, spectral_to_json
from delzant.spectral import SpectralData

MAX = 8

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from(["", "x", "1/0", "0/1", "1/2", "-3/1", "2", "1/-2"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=MAX,
)


def either(strategy):
    """A well-typed value, or any JSON value in its place."""
    return st.one_of(strategy, json_values)


rationals = either(st.builds(lambda p, q: f"{p}/{q}", st.integers(-6, 6), st.integers(0, 4)))
real_polygons = st.builds(random_delzant, st.integers(3, MAX), st.integers(0, 40), st.just(3))


def _real_candidates(polygon):
    try:
        return candidates_to_json(enumerate_candidates(spectral_data(polygon)))
    except (ReconstructionInfeasibleError, UnsupportedAmbiguityError):
        return {"candidates": [], "assignmentTrace": []}


def _real_spectral(polygon, bump):
    doc = spectral_to_json(spectral_data(polygon))
    doc["area"] = f"{Fraction(doc['area']) + bump}"
    return doc


polygon_real = real_polygons.map(polygon_to_json)
polygon_docs = st.one_of(
    polygon_real,
    st.fixed_dictionaries({
        "dim": either(st.just(2)),
        "vertices": either(st.lists(either(st.lists(rationals, min_size=2, max_size=2)), max_size=MAX)),
    }),
)
polytope_docs = st.fixed_dictionaries({
    "dim": either(st.just(3)),
    "vertices": either(st.lists(either(st.lists(rationals, min_size=3, max_size=3)), max_size=MAX)),
})
spectral_docs = st.one_of(
    st.builds(_real_spectral, real_polygons, st.sampled_from([0, Fraction(1, 7)])),
    st.fixed_dictionaries(
        {
            "d": either(st.integers(3, MAX)),
            "classes": either(st.lists(
                either(st.fixed_dictionaries(
                    {"normal": either(st.lists(st.integers(-2, 2), min_size=2, max_size=2)),
                     "lengthSum": rationals},
                    optional={"count": either(st.integers(1, 2))},
                )),
                max_size=MAX,
            )),
            "area": rationals,
        }
    ),
)
halfspace_docs = st.one_of(
    real_polygons.map(lambda p: halfspace_to_json(bundle_facet_data(p))),
    st.fixed_dictionaries({
        "dim": either(st.sampled_from([2, 3])),
        "entries": either(st.lists(
            either(st.fixed_dictionaries({
                "normal": either(st.lists(st.integers(-2, 2), min_size=2, max_size=3)),
                "offset": rationals,
                "volume": rationals,
            })),
            max_size=MAX,
        )),
    }),
)
records = st.fixed_dictionaries({
    "doubled": either(st.lists(either(st.lists(st.integers(-2, 2), min_size=2, max_size=2)), max_size=3)),
    "signs": either(st.lists(either(st.sampled_from([1, -1])), max_size=MAX)),
    "splits": either(st.lists(either(st.lists(rationals, min_size=2, max_size=2)), max_size=3)),
    "parameter": either(st.none() | rationals),
    "anchor": either(st.sampled_from([1, -1, 0])),
    "outcome": either(st.sampled_from(["emitted", "no_closure"])),
    "candidate": either(st.none() | st.integers(0, 3)),
})
candidates_real = real_polygons.map(_real_candidates)
candidates_docs = st.one_of(
    candidates_real,
    st.fixed_dictionaries({
        "candidates": either(st.lists(either(polygon_docs), max_size=3)),
        "assignmentTrace": either(st.lists(either(records), max_size=MAX)),
    }),
)
json_documents = st.one_of(
    json_values, polygon_docs, polytope_docs, spectral_docs, halfspace_docs, candidates_docs
).map(json.dumps)
# A valid triangle whose literals fit the digit limit, though its normals,
# determinants and lengths do not.
LONG_TRIANGLE = json.dumps({
    "dim": 2,
    "vertices": [[0, 0], [1, 0], ["7" * 4000 + "/" + "3" * 3999 + "1", "1/" + "3" * 3999 + "7"]],
})
invalid_utf8 = st.sampled_from([b"\xff", b"\xc3(", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])
raw_documents = st.one_of(
    st.binary(max_size=12),
    st.builds(
        lambda doc, cut, bad: doc[:cut] + bad + doc[cut:],
        json_documents.map(str.encode),
        st.integers(0, 40),
        invalid_utf8,
    ),
    st.builds(
        lambda depth, nest: nest[0] * depth + nest[1] + nest[2] * depth,
        st.sampled_from([1, 500, 990, 1000, 5000]),
        st.sampled_from([(b"[", b"", b"]"), (b'{"a": ', b"1", b"}"), (b'{"dim": 2, "vertices": [', b"", b"]}")]),
    ),
    st.builds(
        lambda digits, template: template.replace(b"N", b"7" * digits),
        st.sampled_from([4300, 4301, 10000]),
        st.sampled_from([
            b"N",
            b'{"d": N, "classes": [], "area": "1"}',
            b'{"dim": 2, "vertices": [[N, 0], [1, 0], [0, 1]]}',
            b'{"dim": 2, "entries": [{"normal": [1, 0], "offset": "N", "volume": "1"}]}',
        ]),
    ),
    st.just(LONG_TRIANGLE.encode()),
)
documents = st.one_of(json_documents, st.text(max_size=12), raw_documents)


def reads(fmt):
    """A document in the format a file is read as, or any document."""
    return st.one_of(fmt.map(json.dumps), documents)


# Per subcommand: its option sets, the format --in is read as, and for a
# second file (named where an option reads "{other}") a library-written
# document and the format it is read as.  One of the two files is arbitrary
# at a time, so a malformed second file is read after a valid --in.
COMMANDS = {
    "validate": ([[]], polygon_docs, None),
    "info": ([[]], polygon_docs, None),
    "chop": ([["--vertex", "0", "--depth", "1/3"], ["--vertex", "7", "--depth", "1/1"]], polygon_docs, None),
    "spectral": ([[]], polygon_docs, None),
    "strata": ([["--theta", "1,0"], ["--theta", "1,2"]], polygon_docs, None),
    "heat": ([["--theta", "1,0"], ["--theta", "2,1", "--eval", "0.5"]], polygon_docs, None),
    "reconstruct": ([[], ["--with-counts"]], spectral_docs, None),
    "equiv": ([["--other", "{other}"]], polygon_docs, (polygon_real, polygon_docs)),
    "bundle-data": ([[], ["--require-integral"]], st.one_of(polygon_docs, polytope_docs), None),
    "bundle-reconstruct": ([[]], halfspace_docs, None),
    "render": ([[], ["--overlay", "{other}"]], polygon_docs, (candidates_real, candidates_docs)),
}
CASES = [(command, "in") for command in sorted(COMMANDS)] + [
    (command, "other") for command in sorted(COMMANDS) if COMMANDS[command][2] is not None
]


@pytest.mark.parametrize("command, fuzzed", CASES)
@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_documented_exit_code_and_no_exception(command, fuzzed, data):
    option_sets, in_format, second = COMMANDS[command]
    if fuzzed == "other":
        option_sets = [o for o in option_sets if "{other}" in o]
    options = data.draw(st.sampled_from(option_sets), label="options")
    text = data.draw(polygon_real.map(json.dumps) if fuzzed == "other" else reads(in_format), label="in")
    other = None
    if "{other}" in options:
        real, fmt = second
        other = data.draw(reads(fmt) if fuzzed == "other" else real.map(json.dumps), label="other")
    with tempfile.TemporaryDirectory() as folder:
        infile = os.path.join(folder, "in.json")
        otherfile = os.path.join(folder, "other.json")
        with open(infile, "wb") as handle:
            handle.write(text.encode("utf-8") if isinstance(text, str) else text)
        if other is not None:
            with open(otherfile, "wb") as handle:
                handle.write(other.encode("utf-8") if isinstance(other, str) else other)
        argv = [command, "--in", infile, "--json"] + [otherfile if a == "{other}" else a for a in options]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    # The interpreter's own digit-limit text means a message failed to be written.
    assert "sys.set_int_max_str_digits" not in err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=spectral_docs)
def test_parsed_spectral_data_passes_every_constructor_check(doc):
    """parse_spectral builds its datum without SpectralData's checks, as
    its own cover every field: whatever it returns, the checked
    constructor accepts as it is."""
    try:
        data = parse_spectral(json.dumps(doc))
    except ParseError:
        return
    assert SpectralData(data.vertex_count, data.classes, data.area) == data


def _spectral_doc(classes=({"normal": [0, 1], "lengthSum": "1/1"},), **fields):
    return json.dumps({"d": 3, "classes": classes, "area": "1/2", **fields})


# One spectral document per check of parse_spectral, and the message of the
# ParseError it raises.
SPECTRAL_FAULTS = [
    ('{"d": 3, "area": "1/2"}', "spectral data needs 'd', 'classes' and 'area': 'classes'"),
    (_spectral_doc(d=3.0), "'d' must be an integer, got 3.0"),
    (_spectral_doc(d=True), "'d' must be an integer, got true"),
    (_spectral_doc(area="1/2/3"), "'area': malformed rational '1/2/3'"),
    (_spectral_doc(area="0/1"), "area must be positive"),
    (_spectral_doc(classes={}), "'classes' must be a list, got {}"),
    (_spectral_doc(classes=[1]), "class 0 must be an object, got 1"),
    (_spectral_doc(classes=[{"normal": [0, 1]}]), "class 0 is malformed: 'lengthSum'"),
    (_spectral_doc(classes=[{"normal": [0.5, 1], "lengthSum": "1"}]),
     "class 0: normal must be a list of 2 integers, got [0.5, 1]"),
    (_spectral_doc(classes=[{"normal": [0, -1], "lengthSum": "1"}]),
     "class 0: normal [0, -1] must be primitive with its first nonzero coordinate positive"),
    (_spectral_doc(classes=[{"normal": [2, 0], "lengthSum": "1"}]),
     "class 0: normal [2, 0] must be primitive with its first nonzero coordinate positive"),
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": "-1/2"}]), "class 0: length sum must be positive"),
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": "0/1"}]), "class 0: length sum must be positive"),
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": "1", "count": 1.0}]),
     "class 0: count must be an integer, got 1.0"),
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": "1", "count": 3}]), "class 0: count must be 1 or 2"),
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": "1"}, {"normal": [1, 0], "lengthSum": "2"}]),
     "normal classes must be pairwise distinct"),
    (_spectral_doc(classes=[{"normal": [True, 0], "lengthSum": "1"}]),
     "class 0: normal must be a list of 2 integers, got [true, 0]"),
    (_spectral_doc(classes=[{"normal": [1, 0, 0], "lengthSum": "1"}]),
     "class 0: normal must be a list of 2 integers, got [1, 0, 0]"),
    (_spectral_doc(classes=[{"normal": 1, "lengthSum": "1"}]), "class 0: normal must be a list of 2 integers, got 1"),
    (_spectral_doc(classes=[{"lengthSum": "1"}]), "class 0 is malformed: 'normal'"),
    (_spectral_doc(classes=[[[1, 0], "1"]]), 'class 0 must be an object, got [[1, 0], "1"]'),
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": "1", "count": True}]),
     "class 0: count must be an integer, got true"),
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": "1", "count": "1"}]),
     'class 0: count must be an integer, got "1"'),
    # A rational that is not a string is echoed in its JSON spelling.
    (_spectral_doc(classes=[{"normal": [1, 0], "lengthSum": True}]), "class 0: lengthSum: malformed rational true"),
    (_spectral_doc(area=None), "'area': malformed rational null"),
]

# A malformed rational in the other readers: the command line that reads
# the document, where "{doc}" names the document's file and "{triangle}" a
# valid triangle's, the document, and the message naming the field that the
# command exits 5 with.
RATIONAL_FIELD_FAULTS = [
    (["bundle-reconstruct", "--in", "{doc}"],
     json.dumps({"dim": 2, "entries": [{"normal": [1, 0], "offset": "0", "volume": "1/x"}]}),
     "entry 0: volume: malformed rational '1/x'"),
    (["render", "--in", "{triangle}", "--overlay", "{doc}"],
     json.dumps({"candidates": [], "assignmentTrace": [
         {"doubled": [], "signs": [1], "splits": [], "parameter": True, "outcome": "no_closure"},
     ]}),
     "trace record 0: parameter: malformed rational true"),
]


def test_an_integer_rational_is_still_accepted():
    """A JSON integer where a rational belongs reads as that integer."""
    as_integer = parse_spectral(_spectral_doc(classes=[{"normal": [0, 1], "lengthSum": 1}], area=1))
    assert as_integer == parse_spectral(_spectral_doc(classes=[{"normal": [0, 1], "lengthSum": "1/1"}], area="1/1"))
    assert as_integer.classes[0].length_sum == 1 and as_integer.area == 1


@pytest.mark.parametrize("document, message", SPECTRAL_FAULTS)
def test_each_spectral_fault_keeps_its_message(document, message, tmp_path, capsys):
    """Each fault is a ParseError with its own message, from the library and
    from ``reconstruct``, which exits 5 with it."""
    with pytest.raises(ParseError) as info:
        parse_spectral(document)
    assert str(info.value) == message
    infile = tmp_path / "in.json"
    infile.write_text(document)
    assert main(["reconstruct", "--in", str(infile)]) == 5
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("d, n, area, code, message", [
    (17, 15, "1/2", 4, "enumeration over 17 vertices is past the budget of 16 vertices"),
    # Four or more pairs keep their own message, whatever the vertex count.
    (20, 15, "1/2", 4, "5 parallel pairs admit no finite reconstruction (supported: up to 3)"),
    # The budget itself is enumerated: sixteen classes, no pair, and no
    # Delzant polygon has them with area 1.
    (16, 16, "1", 3, "no Delzant polygon is consistent with the data"),
])
def test_reconstruct_past_the_edge_budget_exits_4_at_once(d, n, area, code, message, tmp_path, capsys):
    """Fifteen classes with 17 vertices (two pairs) would need a 2^13 sign
    table for each of 105 doubled-class choices; the budget refuses them
    before any is built.  Sixteen vertices are within it."""
    classes = [{"normal": [1, k], "lengthSum": "1"} for k in range(n)]
    infile = tmp_path / "in.json"
    infile.write_text(_spectral_doc(classes, d=d, area=area))
    start = time.perf_counter()
    assert main(["reconstruct", "--in", str(infile)]) == code
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, document, message", RATIONAL_FIELD_FAULTS)
def test_a_malformed_rational_names_its_field(argv, document, message, tmp_path, capsys):
    """The reader's error names the field of the rational, and the command
    reading the document exits 5 with it."""
    _exits_5_with(argv, document, message, tmp_path, capsys)


TRIANGLE_ENTRIES = [{"normal": n, "offset": c, "volume": "1"} for n, c in (([-1, 0], "0"), ([0, -1], "0"), ([1, 1], "1"))]

# A document of the wrong shape in the other readers, listed as
# RATIONAL_FIELD_FAULTS are.
SHAPE_FAULTS = [
    (["validate", "--in", "{doc}"], json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0]]}),
     "'vertices' must be a list of at least 3 coordinate pairs"),
    (["validate", "--in", "{doc}"], json.dumps({"dim": 2, "vertices": ["12", [1, 0], [0, 1]]}),
     "vertex 0 is not a coordinate pair"),
    (["validate", "--in", "{doc}"], json.dumps({"dim": 7, "vertices": [[0, 0], [1, 0], [0, 1]]}),
     "expected dim 2, got 7"),
    (["bundle-data", "--in", "{doc}"], json.dumps({"dim": 7, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
     "expected dim 2 or 3, got 7"),
    (["bundle-reconstruct", "--in", "{doc}"], json.dumps({"dim": 4, "entries": TRIANGLE_ENTRIES}),
     "expected dim 2 or 3, got 4"),
    (["bundle-reconstruct", "--in", "{doc}"], json.dumps({"dim": 2.0, "entries": TRIANGLE_ENTRIES}),
     "expected dim 2 or 3, got 2.0"),
    (["bundle-reconstruct", "--in", "{doc}"], json.dumps({"dim": "2", "entries": TRIANGLE_ENTRIES}),
     "expected dim 2 or 3, got '2'"),
    (["render", "--in", "{triangle}", "--overlay", "{doc}"],
     json.dumps({"candidates": [], "assignmentTrace": [{"outcome": []}]}),
     "trace record 0: outcome must be one of ['dropped_invalid', 'dropped_mismatch', 'emitted', 'inadmissible_split',"
     " 'no_closure'], got []"),
]


@pytest.mark.parametrize("argv, document, message", SHAPE_FAULTS)
def test_a_document_of_the_wrong_shape_exits_5(argv, document, message, tmp_path, capsys):
    _exits_5_with(argv, document, message, tmp_path, capsys)


def _exits_5_with(argv, document, message, tmp_path, capsys):
    (tmp_path / "doc.json").write_text(document)
    (tmp_path / "triangle.json").write_text(_shifted_triangle(0))
    argv = [str(tmp_path / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
    assert main(argv) == 5
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command, options, field", [
    ("info", [], "edge 1"),
    ("validate", [], "failure 2"),
    ("spectral", [], "class 1"),
    ("heat", ["--theta", "1,0"], "term 0"),
    ("bundle-data", [], "entry 0"),
])
def test_output_past_the_digit_limit_exits_4(command, options, field, tmp_path, capsys):
    """A valid polygon whose derived integers are too long to write is an
    unsupported request naming the field, not an inadmissible argument."""
    infile = tmp_path / "in.json"
    infile.write_text(LONG_TRIANGLE)
    assert main([command, "--in", str(infile)] + options) == 4
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (out, err) == ("", f"error: cannot write {field}: an integer in it has more than {limit} digits\n")


def _shifted_triangle(shift):
    return json.dumps({"dim": 2, "vertices": [[f"{x + shift}", f"{y + shift}"] for x, y in ((0, 0), (1, 0), (0, 1))]})


# Valid documents whose error messages would have to write a value past the
# digit limit: a chop deeper than a long edge, a lattice volume with a long
# denominator, and a translation between two triangles with long shifts;
# a document with an integer literal past the limit, and a direction with one.
LONG_VOLUME = json.dumps({"dim": 2, "entries": [
    {"normal": [1, 0], "offset": f"1/{3**8000}", "volume": "1"},
    {"normal": [0, 1], "offset": f"1/{2**13000}", "volume": "1"},
    {"normal": [-1, -1], "offset": "1", "volume": "1"},
]})
DIGITS = f"{sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("command, options, document, code, message", [
    ("chop", ["--vertex", "0", "--depth", "1/1000"], LONG_TRIANGLE, 2,
     f"depth is not below the lattice length of edge 2 into vertex 0 (a value in it has more than {DIGITS})"),
    ("chop", ["--vertex", "1", "--depth", "1/1000"], LONG_TRIANGLE, 2,
     f"depth is not below the lattice length of edge 1 out of vertex 1 (a value in it has more than {DIGITS})"),
    ("chop", ["--vertex", "2", "--depth", "1/1000"], LONG_TRIANGLE, 2,
     f"depth is not below the lattice length of edge 1 into vertex 2 (a value in it has more than {DIGITS})"),
    ("bundle-reconstruct", [], LONG_VOLUME, 3,
     f"facet (1, 0) has a lattice volume other than the data's (a value in it has more than {DIGITS})"),
    ("equiv", ["--other", "{other}"], _shifted_triangle(Fraction(1, 3**9000)), 4,
     f"cannot write translation: an integer in it has more than {DIGITS}"),
    ("validate", [], '{"dim": 2, "vertices": [[' + "7" * 5000 + ", 0], [1, 0], [0, 1]]}", 5,
     f"invalid JSON: an integer literal has more than {DIGITS}"),
    ("validate", [], '{"dim": 2, "vertices": [["0/1", "0/1"], ["1/' + "7" * 5000 + '", "0/1"], ["0/1", "1/1"]]}', 5,
     f"vertex 1: an integer literal has more than {DIGITS}"),
    ("strata", ["--theta", "1" * 5000 + ",0"], _shifted_triangle(0), 5,
     f"argument --theta: an integer literal has more than {DIGITS}"),
    ("strata", ["--theta", "1" * 5000 + "x,0"], _shifted_triangle(0), 5,
     f"direction coordinates must be integers: '{'1' * 64}'... (5003 characters)"),
    ("strata", ["--theta", "1" * 5000], _shifted_triangle(0), 5,
     f"expected a direction like '1,0', got '{'1' * 64}'... (5000 characters)"),
], ids=["chop_vertex_0", "chop_vertex_1", "chop_vertex_2", "bundle_volume", "equiv_translation", "long_literal",
        "long_rational", "long_theta", "long_malformed_theta", "long_theta_without_comma"])
def test_message_past_the_digit_limit_names_its_subject(command, options, document, code, message, tmp_path, capsys):
    """An error whose values are too long to write still exits with its own
    code and a message naming what failed, never the interpreter's text."""
    infile, otherfile = tmp_path / "in.json", tmp_path / "other.json"
    infile.write_text(document)
    otherfile.write_text(_shifted_triangle(Fraction(1, 2**14000)))
    argv = [command, "--in", str(infile)] + [str(otherfile) if a == "{other}" else a for a in options]
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_integer_option_past_the_digit_limit_exits_2(capsys):
    """A well-formed integer argument past the digit limit is named as such,
    not called malformed, and its digits are not echoed."""
    with pytest.raises(SystemExit) as exit_info:
        main(["random", "--edges", "5", "--seed", "1" * 5000])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument --seed: an integer literal has more than {DIGITS}\n")
