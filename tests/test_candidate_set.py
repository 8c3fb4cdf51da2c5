"""CandidateSet built on first read, and what every emitted candidate is.

enumerate_candidates hands over its trace and candidates as integers and
builds each on its first read; these tests pin that a set read in any
order equals the set built eagerly from the same polygons and records,
that the genericity paths never build a candidate polygon, and that every
candidate of a wide sweep is Delzant with exactly its data.
"""

import dataclasses
import hashlib
import itertools
import json
import sys
from fractions import Fraction

import pytest

from delzant import (
    BudgetExceededError,
    CandidateSet,
    Polygon,
    ReconstructionInfeasibleError,
    StructuralPolygonError,
    UnsupportedError,
    enumerate_candidates,
    hirzebruch,
    is_generic,
    perturb_generic,
    random_delzant,
    spectral_data,
    validate_delzant,
)
from delzant import reconstruct, serialize, zoo
from delzant.geometry import _convex_frame
from delzant.vectors import Vec2, format_rational

READS = {
    "trace": lambda c: c.trace,
    "candidates": lambda c: c.candidates,
    "len": len,
    "iteration": list,
}


def _view(candidates, polygon):
    return (
        repr(candidates),
        hash(candidates),
        len(candidates),
        polygon in candidates,
        json.dumps(serialize.candidates_to_json(candidates)),
    )


@pytest.mark.parametrize("d", range(3, 10))
@pytest.mark.parametrize("twist", [False, True])
def test_lazy_set_equals_eager_set_whatever_is_read_first(d, twist):
    for seed in range(2):
        polygon = random_delzant(d, seed, 4, twist=twist)
        data = spectral_data(polygon)
        built = enumerate_candidates(data)
        eager = CandidateSet(candidates=built.candidates, trace=built.trace)
        for order in itertools.permutations(READS, 2):
            lazy = enumerate_candidates(data)
            for name in order:
                assert READS[name](lazy) == READS[name](eager), (d, seed, order)
            assert lazy == eager and eager == lazy
            assert _view(lazy, polygon) == _view(eager, polygon)
        # Two sets neither of which was read yet.
        assert enumerate_candidates(data) == enumerate_candidates(data)
        assert len(enumerate_candidates(data)) == len(eager)


# Every edge count and both twists; these include three-pair sets whose
# records carry a parameter and inadmissible splits of length 0 or less.
WRITTEN = [(d, seed, twist) for d in range(3, 10) for seed in range(4) for twist in (False, True)]


def _unread_and_eager(d, seed, twist):
    data = spectral_data(random_delzant(d, seed, 4, twist=twist))
    built = enumerate_candidates(data)
    return enumerate_candidates(data), CandidateSet(candidates=built.candidates, trace=built.trace)


def test_unread_set_writes_the_bytes_of_its_eager_twin():
    parameters = nonpositive = 0
    for d, seed, twist in WRITTEN:
        lazy, eager = _unread_and_eager(d, seed, twist)
        for indent in (None, 2):
            text = json.dumps(serialize.candidates_to_json(lazy), indent=indent)
            assert text == json.dumps(serialize.candidates_to_json(eager), indent=indent), (d, seed, twist)
        for record in eager.trace:
            parameters += record.parameter is not None
            nonpositive += record.outcome == "inadmissible_split" and min(min(pair) for pair in record.splits) <= 0
    assert parameters > 0 and nonpositive > 0


def test_writing_an_unread_set_builds_no_polygon(built):
    for d, seed, twist in WRITTEN[::5]:
        candidates = enumerate_candidates(spectral_data(random_delzant(d, seed, 4, twist=twist)))
        built.update(frame=0, init=0)
        serialize.candidates_to_json(candidates)
        assert built == {"frame": 0, "init": 0}, (d, seed, twist)


def test_written_set_still_reads_as_its_eager_twin():
    for d, seed, twist in WRITTEN[::3]:
        lazy, eager = _unread_and_eager(d, seed, twist)
        serialize.candidates_to_json(lazy)
        assert lazy == eager and hash(lazy) == hash(eager), (d, seed, twist)
        assert (lazy.candidates, lazy.trace, repr(lazy)) == (eager.candidates, eager.trace, repr(eager))


def test_read_set_writes_from_its_integers(monkeypatch):
    """A read set keeps its integer form and is written by the same walk
    as an unread one: no trace record is formatted."""
    formatted = []
    record_to_json = serialize._record_to_json
    for d, seed, twist in WRITTEN[::3]:
        read, eager = _unread_and_eager(d, seed, twist)
        read.candidates, read.trace
        monkeypatch.setattr(serialize, "_record_to_json", lambda record: formatted.append(record) or record_to_json(record))
        texts = [json.dumps(serialize.candidates_to_json(read), indent=indent) for indent in (None, 2)]
        monkeypatch.setattr(serialize, "_record_to_json", record_to_json)
        assert formatted == [], (d, seed, twist)
        assert texts == [json.dumps(serialize.candidates_to_json(eager), indent=indent) for indent in (None, 2)]
        assert read == eager


def test_two_pair_tables_are_built_once_per_choice(monkeypatch):
    """Enumerating two-pair data builds each doubled-class choice's table
    once; writing the set and expanding its trace reuse it."""
    tables = []
    table = reconstruct._table
    monkeypatch.setattr(reconstruct, "_table", lambda *args: tables.append(args) or table(*args))
    dropped = 0
    for d, seed, twist in WRITTEN:
        data = spectral_data(random_delzant(d, seed, 4, twist=twist))
        if data.parallel_pairs != 2:
            continue
        monkeypatch.setattr(reconstruct, "_last", None)
        tables.clear()
        candidates = enumerate_candidates(data)
        serialize.candidates_to_json(candidates)
        dropped += sum(record.outcome == "inadmissible_split" for record in candidates.trace)
        serialize.candidates_to_json(candidates)
        assert len(tables) == len(list(itertools.combinations(range(len(data.classes)), 2))), (d, seed, twist)
    assert dropped > 0


def test_read_and_unread_sets_name_the_same_candidate_past_the_digit_limit():
    # Lengths 1/P and 1/Q with coprime P, Q under the digit limit; the
    # vertex (1/P + 1/Q, 0) of the trapezoid has P Q, past it, as denominator.
    a, b = Fraction(1, 3**4600), Fraction(1, 2**7300)
    data = spectral_data(Polygon([(0, 0), (a + b, 0), (a, b), (0, b)]))
    read = enumerate_candidates(data)
    read.trace
    messages = []
    for candidates in (enumerate_candidates(data), read):
        with pytest.raises(UnsupportedError) as caught:
            serialize.candidates_to_json(candidates)
        messages.append(str(caught.value))
    assert messages == [f"cannot write candidate 0: an integer in it has more than {sys.get_int_max_str_digits()} digits"] * 2


def test_read_and_unread_sets_name_the_same_trace_record_past_the_digit_limit():
    # Scaled so that every vertex stays under the digit limit while the
    # splits of a dropped two-pair pattern, the third trace entry, pass it.
    n = 10 ** sys.get_int_max_str_digits() // 40 + 1
    data = spectral_data(Polygon([(v.x * n, v.y * n) for v in random_delzant(8, 7, 4).vertices]))
    read = enumerate_candidates(data)
    read.trace
    assert read.trace[2].outcome == "inadmissible_split" and data.parallel_pairs == 2
    messages = []
    for candidates in (enumerate_candidates(data), read):
        with pytest.raises(UnsupportedError) as caught:
            serialize.candidates_to_json(candidates)
        messages.append(str(caught.value))
    assert messages == [f"cannot write trace record 2: an integer in it has more than {sys.get_int_max_str_digits()} digits"] * 2


def _scaled(polygon, n):
    return Polygon([(v.x * n, v.y * n) for v in polygon.vertices])


@pytest.mark.parametrize("polygon, record", [
    # The trapezoid and the scaled octagon of the two tests above.
    (Polygon([(0, 0), (Fraction(1, 3**4600) + Fraction(1, 2**7300), 0), (Fraction(1, 3**4600), Fraction(1, 2**7300)),
              (0, Fraction(1, 2**7300))]), "candidate 0"),
    (_scaled(random_delzant(8, 7, 4), 10 ** sys.get_int_max_str_digits() // 40 + 1), "trace record 2"),
], ids=["candidate", "trace_record"])
def test_a_failed_write_leaves_the_set_unread_and_fails_again_alike(polygon, record):
    """The record writer names the failure from a fresh copy of the set, so
    neither the candidates nor the trace of the set written are built."""
    candidates = enumerate_candidates(spectral_data(polygon))
    messages = []
    for _ in range(2):
        with pytest.raises(UnsupportedError) as caught:
            serialize.candidates_to_json(candidates)
        messages.append(str(caught.value))
        assert candidates._candidates is None and candidates._trace is None
    assert messages == [f"cannot write {record}: an integer in it has more than {sys.get_int_max_str_digits()} digits"] * 2


def test_a_fault_of_the_fast_writer_alone_is_raised_as_it_is(monkeypatch):
    """When the record writer writes the copy, the fast writer's error was
    no digit limit; it is raised, not hidden behind the copy's document."""
    def fault(*args):
        raise ValueError("fault")

    monkeypatch.setattr(serialize, "_pair", fault)
    candidates = enumerate_candidates(spectral_data(random_delzant(6, 3, 3)))
    with pytest.raises(ValueError, match="^fault$"):
        serialize.candidates_to_json(candidates)


def test_a_run_names_its_record_past_the_digit_limit_from_its_offset():
    """A run of dropped patterns that cannot be written names the same
    trace record as its eager twin, wherever the run starts: each suffix of
    the blocks above, after a block that writes (16 entries)."""
    n = 10 ** sys.get_int_max_str_digits() // 40 + 1
    source = random_delzant(8, 7, 4)
    scaled = enumerate_candidates(spectral_data(Polygon([(v.x * n, v.y * n) for v in source.vertices])))
    blocks, keys = scaled._integer
    writable = enumerate_candidates(spectral_data(source))._integer[0][0]
    named = set()
    for i in range(len(blocks)):
        unread = CandidateSet._from_keys([writable] + blocks[i:], keys, {})
        messages = []
        for candidates in (unread, CandidateSet(candidates=unread.candidates, trace=unread.trace)):
            with pytest.raises(UnsupportedError) as caught:
                serialize.candidates_to_json(candidates)
            messages.append(str(caught.value))
        assert messages[0] == messages[1], i
        named.add(messages[0])
    assert len(named) > 1 and "cannot write trace record 18" in {m.split(":")[0] for m in named}


def test_candidate_order_is_the_vertex_order_across_denominators():
    # No sampled data set has candidates over two denominators, so the keys
    # are made up: squares of side 1 and 1/2, triangles of side 2/3 and 3/2.
    keys = [(1, 0, 0, 1, 0, 1, 1, 0, 1), (2, 0, 0, 1, 0, 1, 1, 0, 1), (3, 0, 0, 2, 0, 0, 2), (2, 0, 0, 3, 0, 0, 3)]
    polygons = {key: Polygon._from_frame(key[0], key[1::2], key[2::2]) for key in keys}
    ordered = sorted(keys, key=lambda key: polygons[key].vertices)
    assert list(reconstruct._candidate_index(keys)) == ordered != keys


def test_lazy_set_is_read_only():
    lazy = enumerate_candidates(spectral_data(hirzebruch(1, 1, 1)))
    with pytest.raises(AttributeError):
        lazy.candidates = ()
    with pytest.raises(AttributeError):
        lazy.trace = ()


def test_is_generic_after_the_trace_was_read(monkeypatch):
    """An observer that reads the trace as soon as the set is returned (as a
    tracer does) leaves is_generic's report as it is."""
    polygons = [random_delzant(d, seed, 4, twist=twist) for d in (5, 6, 7, 8) for seed in range(6)
                for twist in (False, True)]
    expected = [repr(is_generic(p)) for p in polygons]
    enumerate_first = reconstruct.enumerate_candidates

    def observed(data, trust_counts=False):
        candidates = enumerate_first(data, trust_counts)
        candidates.trace
        return candidates

    monkeypatch.setattr(reconstruct, "enumerate_candidates", observed)
    assert [repr(is_generic(p)) for p in polygons] == expected
    assert sum("generic=False" in r for r in expected) > 0


@pytest.fixture
def built(monkeypatch):
    """Counts of polygons built from a frame and through Polygon.__init__."""
    counts = {"frame": 0, "init": 0}
    from_frame = Polygon._from_frame
    init = Polygon.__init__

    def frame_spy(cls, common, xs, ys):
        counts["frame"] += 1
        return from_frame(common, xs, ys)

    def init_spy(self, vertices):
        counts["init"] += 1
        init(self, vertices)

    monkeypatch.setattr(Polygon, "_from_frame", classmethod(frame_spy))
    monkeypatch.setattr(Polygon, "__init__", init_spy)
    return counts


def test_genericity_builds_no_candidate_polygon(built):
    polygons = [random_delzant(d, seed, 4) for d in range(3, 9) for seed in range(4)]
    built["init"] = 0
    reports = [is_generic(p) for p in polygons]
    assert any(reports) and not all(reports)
    assert built == {"frame": 0, "init": 0}


def test_exhausted_perturbation_builds_only_its_attempts(built, monkeypatch):
    polygon = random_delzant(6, 42, 4)
    built["init"] = 0
    attempts = []
    halfplanes = zoo.polygon_from_halfplanes

    def counted(normals, offsets):
        attempts.append(offsets)
        return halfplanes(normals, offsets)

    monkeypatch.setattr(zoo, "polygon_from_halfplanes", counted)
    with pytest.raises(BudgetExceededError):
        perturb_generic(polygon)
    # Every attempt is settled in integers: the partial is the one polygon
    # built, from its integer frame, and no candidate is.
    assert len(attempts) == 1
    assert built == {"frame": 1, "init": 0}


def test_reading_candidates_builds_each_once(built):
    for d, seed in ((3, 0), (5, 1), (7, 2), (8, 3)):
        data = spectral_data(random_delzant(d, seed, 4, twist=True))
        built.update(frame=0, init=0)
        candidates = enumerate_candidates(data)
        count = len(candidates)
        assert built == {"frame": 0, "init": 0}
        candidates.candidates
        candidates.trace
        list(candidates)
        assert count > 0 and built == {"frame": count, "init": 0}


MEMBERS = [(d, seed, seed % 2 == 1) for d in range(3, 10) for seed in range(4)]


def test_membership_of_an_unread_set_builds_nothing(built, monkeypatch):
    builds = []
    build = CandidateSet._build
    monkeypatch.setattr(CandidateSet, "_build", lambda self: builds.append(self) or build(self))
    for d, seed, twist in MEMBERS:
        polygon = random_delzant(d, seed, 4, twist=twist)
        candidates = enumerate_candidates(spectral_data(polygon))
        built.update(frame=0, init=0)
        assert polygon in candidates
        assert (builds, built) == ([], {"frame": 0, "init": 0}), (d, seed, twist)


def test_membership_reads_the_same_on_unread_and_read_sets():
    checked = 0
    for d, seed, twist in MEMBERS:
        polygon = random_delzant(d, seed, 4, twist=twist)
        data = spectral_data(polygon)
        read = enumerate_candidates(data)
        read.trace
        shifted = polygon.translate(Vec2(Fraction(1, 3), Fraction(-2, 7)))
        other = random_delzant(d, seed + 100, 4, twist=twist)
        for probe in (polygon, -polygon, shifted, other):
            assert (probe in enumerate_candidates(data)) == (probe in read), (d, seed, twist)
        assert polygon in read and -polygon in read and shifted in read
        checked += other not in read
    assert checked > 0


EQUAL = [(d, seed, seed % 2 == 1) for d in range(3, 10) for seed in range(2)]


def test_two_unread_sets_compare_without_a_build(built, monkeypatch):
    builds = []
    for name in ("_build", "_expand"):
        build = getattr(CandidateSet, name)
        monkeypatch.setattr(CandidateSet, name, lambda self, build=build: builds.append(self) or build(self))
    between = spectral_data(hirzebruch(1, 1, 1))
    for d, seed, twist in EQUAL:
        data = spectral_data(random_delzant(d, seed, 4, twist=twist))
        # Another datum in between, so that two is enumerated afresh.
        one = enumerate_candidates(data)
        enumerate_candidates(between)
        two = enumerate_candidates(data)
        built.update(frame=0, init=0)
        assert one == two and two == one and not one != two
        assert (builds, built) == ([], {"frame": 0, "init": 0}), (d, seed, twist)
        assert one._integer is not None and two._integer is not None
        assert one._integer[0] is not two._integer[0]


def test_reading_the_candidates_expands_no_trace(monkeypatch):
    """Iterating an unread set builds its polygons from the keys alone; the
    trace is expanded from the branch blocks only when it is read."""
    records = []
    record = reconstruct.AssignmentRecord
    for d, seed, twist in EQUAL:
        data = spectral_data(random_delzant(d, seed, 4, twist=twist))
        built = enumerate_candidates(data)
        eager = CandidateSet(candidates=built.candidates, trace=built.trace)
        enumerate_candidates(spectral_data(hirzebruch(1, 1, 1)))
        lazy = enumerate_candidates(data)
        monkeypatch.setattr(reconstruct, "AssignmentRecord", lambda *fields: records.append(fields) or record(*fields))
        assert list(lazy) == list(eager.candidates) and len(lazy) == len(eager)
        assert records == [], (d, seed, twist)
        assert lazy.trace == eager.trace and len(records) == len(eager.trace)
        monkeypatch.setattr(reconstruct, "AssignmentRecord", record)
        records.clear()
        assert lazy == eager and repr(lazy) == repr(eager)


# --- the one-entry enumeration memo -------------------------------------------

def _unread(candidates):
    return candidates._integer is not None and candidates._candidates is None and candidates._trace is None


@pytest.fixture
def enumerations(monkeypatch):
    """Runs of reconstruct._reconstruct, counted from an empty memo."""
    runs = []
    run = reconstruct._reconstruct
    monkeypatch.setattr(reconstruct, "_reconstruct", lambda *args: runs.append(args) or run(*args))
    monkeypatch.setattr(reconstruct, "_last", None)
    return runs


def test_a_repeated_call_returns_a_fresh_unread_set(enumerations):
    for d, seed, twist in EQUAL:
        data = spectral_data(random_delzant(d, seed, 4, twist=twist))
        runs = len(enumerations)
        one, two = enumerate_candidates(data), enumerate_candidates(data)
        assert len(enumerations) == runs + 1, (d, seed, twist)
        assert one is not two and _unread(one) and _unread(two)
        assert one == two and _unread(one) and _unread(two)
        one.trace
        list(one)
        assert not _unread(one) and _unread(two), (d, seed, twist)
        assert two == one and hash(two) == hash(one) and repr(two) == repr(one)


def test_a_sampler_enumerates_each_polygon_once(enumerations):
    """is_generic and then enumerate_candidates on the same polygon, as the
    acceptance sampler and ``roundtrip`` call them, enumerate it once."""
    for d, seed, twist in EQUAL:
        polygon = random_delzant(d, seed, 4, twist=twist)
        if spectral_data(polygon).parallel_pairs > 3:
            continue
        runs = len(enumerations)
        report = is_generic(polygon)
        candidates = enumerate_candidates(spectral_data(polygon))
        assert len(enumerations) == runs + 1, (d, seed, twist)
        assert polygon in candidates and len(candidates) == report.candidate_count


def test_other_counts_or_another_datum_in_between_enumerate_again(enumerations):
    data = spectral_data(random_delzant(7, 1, 4, twist=True))
    other = spectral_data(hirzebruch(1, 1, 1))
    calls = [(data, False), (data, True), (data, False), (other, False), (data, False), (data, False)]
    results = [enumerate_candidates(datum, trust_counts=trust) for datum, trust in calls]
    # Only the last call repeats the one before it.
    assert [(args[0], len(args[1])) for args in enumerations] == [
        (datum, 1 if trust else len(list(itertools.combinations(range(len(datum.classes)), datum.parallel_pairs))))
        for datum, trust in calls[:-1]
    ]
    assert results[0] == results[2] == results[4] == results[5] != results[1]


@pytest.mark.parametrize("area", [True, 1.0])
def test_a_memoized_twin_does_not_pass_an_inexact_area(area, enumerations):
    square = dataclasses.replace(spectral_data(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])), area=1)
    assert len(enumerate_candidates(square)) == 1
    with pytest.raises(ValueError, match="area must be an int or a Fraction"):
        enumerate_candidates(dataclasses.replace(square, area=area))
    assert len(enumerations) == 1


def test_infeasible_data_raises_on_every_call(enumerations):
    square = spectral_data(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
    wrong = dataclasses.replace(square, area=2)
    for _ in range(2):
        with pytest.raises(ReconstructionInfeasibleError, match="no Delzant polygon is consistent with the data"):
            enumerate_candidates(wrong)
    assert len(enumerations) == 2


def test_sets_from_different_data_compare_unequal():
    compared = 0
    for d, seed, twist in EQUAL:
        data = spectral_data(random_delzant(d, seed, 4, twist=twist))
        other = spectral_data(random_delzant(d, seed + 100, 4, twist=twist))
        if data.parallel_pairs > 3 or other.parallel_pairs > 3:
            continue
        assert enumerate_candidates(data) != enumerate_candidates(other), (d, seed, twist)
        assert not enumerate_candidates(data) == enumerate_candidates(other), (d, seed, twist)
        # Sets built by hand have no integer form to compare.
        by_hand = [CandidateSet(c.candidates, c.trace) for c in map(enumerate_candidates, (data, other))]
        assert by_hand[0] != by_hand[1], (d, seed, twist)
        if data.parallel_pairs > 0:
            # Trusted counts decide one choice: the same data, another trace.
            assert enumerate_candidates(data) != enumerate_candidates(data, trust_counts=True), (d, seed, twist)
        compared += 1
    assert compared > 0


def test_a_set_leaves_another_type_to_the_other_operand():
    candidates = enumerate_candidates(spectral_data(hirzebruch(1, 1, 1)))
    assert candidates.__eq__(candidates.trace) is NotImplemented
    assert candidates != candidates.trace


def test_unread_set_equals_its_read_copy():
    for d, seed, twist in EQUAL:
        data = spectral_data(random_delzant(d, seed, 4, twist=twist))
        read = enumerate_candidates(data)
        read.trace
        assert enumerate_candidates(data) == read and read == enumerate_candidates(data), (d, seed, twist)


def test_canonical_key_builds_no_polygon(built):
    polygons = [random_delzant(d, seed, 4, twist=twist) for d, seed, twist in MEMBERS]
    built.update(frame=0, init=0)
    for polygon in polygons:
        polygon.canonical_key()
    assert built == {"frame": 0, "init": 0}


def test_canonical_keys_are_the_keys_enumeration_emits():
    pairs = 0
    for d, seed, twist in MEMBERS:
        polygon = random_delzant(d, seed, 4, twist=twist)
        candidates = enumerate_candidates(spectral_data(polygon))
        keys = candidates._integer[1]
        own = {polygon.canonical_key(), (-polygon).canonical_key()}
        assert own <= set(keys), (d, seed, twist)
        if len(keys) == 2:
            pairs += 1
            assert set(keys) == own
        # A built candidate's key is the key it was emitted as.
        assert [c.canonical_key() for c in candidates.candidates] == list(reconstruct._candidate_index(keys))
    assert pairs > 0


# --- every emitted candidate reproduces its data --------------------------

ORACLE = [(d, seed, twist) for d in range(3, 10) for seed in range(65) for twist in (False, True)]


def test_every_emitted_candidate_is_delzant_with_its_data():
    """The oracle for step 4 of enumerate_candidates, which proves rather
    than checks that every emitted key is a Delzant polygon with exactly the
    data (and its counts, when trusted): each candidate of the sweep is
    rebuilt and checked through the public API alone."""
    enumerations = emitted = 0
    for d, seed, twist in ORACLE:
        source = spectral_data(random_delzant(d, seed, 4, twist=twist))
        if source.parallel_pairs > 3:
            continue
        for area in (source.area, source.area + Fraction(1, 7)):
            data = dataclasses.replace(source, area=area)
            for trust_counts in (False, True):
                enumerations += 1
                try:
                    candidates = enumerate_candidates(data, trust_counts=trust_counts)
                except ReconstructionInfeasibleError:
                    continue
                for c in candidates:
                    assert validate_delzant(c), (d, seed, twist, area, trust_counts, c)
                    assert spectral_data(c).matches(data, with_counts=trust_counts), (d, seed, twist, area, trust_counts, c)
                emitted += len(candidates)
    # Only the four sampled polygons with more than three pairs drop out.
    assert (enumerations, emitted) == (3624, 4212)


# --- the per-branch walk, kept as the oracle of the runs --------------------

def _sign_patterns(r, singles):
    """Every sign pattern of a choice by pattern index, from product():
    bit ``j`` of the index flips ``singles[j]`` to -1."""
    factors = [(1,)] * r
    for i in singles:
        factors[i] = (1, -1)
    return [s[::-1] for s in itertools.product(*factors[::-1])]


def _per_branch(blocks):
    """Every branch of the blocks in trace order, one at a time, as
    ``(doubled, signs, splits, parameter, ends)``."""
    for doubled, singles, dead, opened in blocks:
        for k, signs in enumerate(_sign_patterns(len(doubled) + len(singles), singles)):
            if k in opened:
                for splits, parameter, ends in opened[k]:
                    yield doubled, signs, splits, parameter, ends
            elif dead is not None:
                b1, b2, den, us, vs = dead
                u, v = us[k], vs[k]
                yield doubled, signs, (den, ((b1 + u, b1 - u), (b2 + v, b2 - v))), None, ((0, "inadmissible_split", None),)
            else:
                yield doubled, signs, (1, ()), None, ((0, "no_closure", None),)


def _per_branch_trace(candidates):
    blocks, keys = candidates._integer
    index_of = reconstruct._candidate_index(keys)
    return tuple(
        reconstruct.AssignmentRecord(
            doubled,
            signs,
            tuple((Fraction(a, den), Fraction(b, den)) for a, b in raw),
            None if parameter is None else Fraction(*parameter),
            anchor,
            outcome,
            index_of.get(key),
        )
        for doubled, signs, (den, raw), parameter, ends in _per_branch(blocks)
        for anchor, outcome, key in ends
    )


def _per_branch_document(candidates, trace):
    """The candidates JSON document of a set and its per-branch ``trace``."""
    keys = candidates._integer[1]
    text = lambda n, d: format_rational(Fraction(n, d))
    return {
        "candidates": [
            {"dim": 2, "vertices": [[text(x, key[0]), text(y, key[0])] for x, y in zip(key[1::2], key[2::2])]}
            for key in reconstruct._candidate_index(keys)
        ],
        "assignmentTrace": [
            {
                "doubled": [list(n) for n in record.doubled],
                "signs": list(record.signs),
                "splits": [[format_rational(a), format_rational(b)] for a, b in record.splits],
                "parameter": None if record.parameter is None else format_rational(record.parameter),
                "anchor": record.anchor,
                "outcome": record.outcome,
                "candidate": record.candidate_index,
            }
            for record in trace
        ],
    }


def _decided(data):
    """The unread set of every doubled-class choice of ``data``, built from
    ``_reconstruct`` so that data with no candidate (a nudged area) has one
    too; None past three pairs."""
    r, p = len(data.classes), data.parallel_pairs
    if p > 3:
        return None
    return CandidateSet._from_keys(*reconstruct._reconstruct(data, list(itertools.combinations(range(r), p))))


# Every edge count, plain and twisted, with the exact area and nudged off it.
WALKED = [
    (d, seed, twist, nudge)
    for d in range(3, 10) for seed in range(16) for twist in (False, True) for nudge in (0, Fraction(1, 7))
]


def _oracle_set(d, seed, twist, nudge):
    data = spectral_data(random_delzant(d, seed, 4, twist=twist))
    return _decided(dataclasses.replace(data, area=data.area + nudge))


def test_runs_write_the_bytes_and_trace_of_the_per_branch_walk():
    """Unread and read, a set writes the per-branch walk's bytes (indented
    on every sixteenth case: the pure-Python encoder is slow, and the
    compact bytes already fix the document), and its trace is the walk's."""
    outcomes = set()
    for number, case in enumerate(WALKED):
        unread = _oracle_set(*case)
        if unread is None:
            continue
        read = CandidateSet._from_keys(*unread._integer, unread._emitting)
        read.trace
        trace = _per_branch_trace(unread)
        document = _per_branch_document(unread, trace)
        for indent in (None, 2) if number % 16 == 0 else (None,):
            expected = json.dumps(document, indent=indent)
            assert json.dumps(serialize.candidates_to_json(unread), indent=indent) == expected, case
            assert json.dumps(serialize.candidates_to_json(read), indent=indent) == expected, case
        assert read.trace == unread.trace == trace, case
        outcomes.update(record.outcome for record in trace)
    assert outcomes == reconstruct.TRACE_OUTCOMES


def test_a_write_walks_runs_and_builds_each_sign_table_once(monkeypatch):
    """Writing a set or expanding its trace builds each block's sign table
    once, and the walk yields one item per pattern with records and per run
    of dropped patterns between them, far fewer than the trace has entries.
    A three-pair pattern with no admissible root has no records: it joins
    the run it falls in."""
    tables = []
    sign_table = reconstruct._sign_table
    monkeypatch.setattr(reconstruct, "_sign_table", lambda *args: tables.append(args) or sign_table(*args))
    walked = entries = 0
    for case in WALKED[::4]:
        candidates = _oracle_set(*case)
        if candidates is None:
            continue
        blocks = candidates._integer[0]
        for read in (serialize.candidates_to_json, lambda c: c.trace):
            tables.clear()
            read(candidates)
            assert len(tables) == len(blocks), case
        items = sum(1 for _ in reconstruct._branches(blocks))
        assert items <= 2 * sum(len(opened) for *_, opened in blocks) + len(blocks), case
        walked += items
        entries += len(candidates.trace)
    assert (walked, entries) == (1566, 19368)


# --- the candidates JSON bytes are pinned -----------------------------------

GOLDEN = [(d, seed, twist) for d in range(3, 10) for seed in range(16) for twist in (False, True)]


def test_candidates_json_matches_the_recorded_digest():
    """The compact and indented candidates JSON of a sweep (area +0 and
    +1/7, counts trusted and not; a rejection by its error text) hashes to
    the digest recorded before enumeration kept its dead branches as
    tables, so every byte written is still the same."""
    digest = hashlib.sha256()
    written = 0
    for d, seed, twist in GOLDEN:
        source = spectral_data(random_delzant(d, seed, 4, twist=twist))
        for area in (source.area, source.area + Fraction(1, 7)):
            data = dataclasses.replace(source, area=area)
            for trust_counts in (False, True):
                try:
                    candidates = enumerate_candidates(data, trust_counts=trust_counts)
                except (ReconstructionInfeasibleError, UnsupportedError) as exc:
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                    continue
                document = serialize.candidates_to_json(candidates)
                digest.update(json.dumps(document).encode())
                digest.update(json.dumps(document, indent=2).encode())
                written += 1
    assert written == 444
    assert digest.hexdigest() == "fc91ed253b8a02d636a0c1c841e355ad7c5d035aa1ecdb3240475be37071878b"


# --- the frame check of Polygon ---------------------------------------------

@pytest.mark.parametrize("points, message", [
    ([(0, 0), (1, 0), (1, 0), (0, 1)], "repeated vertex at index 1"),
    ([(0, 0), (1, 0), (2, 0), (0, 1)], "collinear edges around vertex 1"),
    ([(0, 0), (4, 0), (1, 1), (0, 4)], "vertices do not bound a convex polygon"),
    ([(0, 0), (3, 0), (3, 3), (2, 3), (2, 2), (3, 2), (3, 4), (0, 4)], "vertices wind around more than once"),
])
def test_frame_check_names_each_structural_fault(points, message):
    xs, ys = [x for x, _ in points], [y for _, y in points]
    with pytest.raises(StructuralPolygonError, match=message):
        _convex_frame(xs, ys)


def test_frame_check_turns_a_clockwise_chain_around():
    xs, ys = [0, 0, 1], [0, 1, 0]
    dxs, dys, twice, flipped = _convex_frame(xs, ys)
    assert flipped and (xs, ys) == ([1, 0, 0], [0, 1, 0])
    assert (dxs, dys, twice) == ([-1, 0, 1], [1, -1, 0], 1)
