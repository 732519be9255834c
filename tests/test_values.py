"""Value semantics of the package's small classes: equality, hashing,
immutability and validation."""

import copy
import math
import pickle

import pytest

from linksig.pillowcase import QUAT_PATH, CurveSample, PillowPoint, SignedIntersection
from linksig.signature import Band, Inertia, SeifertSystem, inertia, torus_seifert
from linksig.su2 import UnitQuaternion
from linksig.torus_rep import AnglePair, RationalAngle, angle_pair
from linksig.verify import RegionGrid, Report


def test_equal_values_are_equal_and_hash_alike():
    assert RationalAngle(2, 4) == RationalAngle(1, 2)
    assert hash(RationalAngle(2, 4)) == hash(RationalAngle(1, 2))
    assert RationalAngle(1, 3) != RationalAngle(1, 2)

    pair = AnglePair(RationalAngle(1, 3), 0.5)
    same = AnglePair(RationalAngle(2, 6), 0.5)
    assert pair == same and hash(pair) == hash(same)
    assert pair != AnglePair(RationalAngle(1, 3), 0.25)
    assert pair != (RationalAngle(1, 3), 0.5)
    assert len({pair, same, AnglePair(0.5, RationalAngle(1, 3))}) == 2

    assert Inertia(2, 1, 0) == Inertia(2, 1, 0)
    assert UnitQuaternion(2.0, 0.0, 0.0, 0.0) == UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def test_frozen_fields_reject_assignment():
    values = (
        (RationalAngle(1, 2), "p"),
        (AnglePair(0.5, 0.5), "alpha1"),
        (UnitQuaternion(1.0, 0.0, 0.0, 0.0), "a"),
        (Inertia(1, 0, 0), "n_pos"),
        (PillowPoint(1.0, 0.0), "theta"),
    )
    for value, name in values:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 0


def test_reports_grids_and_bands_refuse_assignment():
    # each is built once from all of its fields: a check counts in locals
    report, grid = Report(2, 5, 1, 0, 0, None), RegionGrid(3, 2, [[-1]])
    values = (
        (report, "checked"),
        (grid, "values"),
        (Band((((1.0, 1), (-2.0, 1)), ((0.5 - 1j, 1),)), 0.0), "size"),
    )
    for value, name in values:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 0
    with pytest.raises(AttributeError):
        report.checked += 1
    assert report.to_json() == {
        "ell": 2, "resolution": 5, "checked": 1, "failed": 0, "skipped_on_roots": 0
    }
    # a value that holds a list is unhashable, as a tuple holding one is
    with pytest.raises(TypeError):
        hash(grid)


def test_seifert_systems_compare_by_value():
    # the matrices are stored as integer entries, so equal systems are equal
    system = torus_seifert(2)
    assert system == torus_seifert(2) and hash(system) == hash(torus_seifert(2))
    assert system != torus_seifert(-2) and system != torus_seifert(3)
    assert len({system, torus_seifert(2), torus_seifert(-2)}) == 2


def test_copy_and_pickle_round_trip():
    values = (
        AnglePair(RationalAngle(1, 3), 0.5),
        UnitQuaternion(0.5, 0.5, 0.5, 0.5),
        PillowPoint(1.0, 2.0),
        Inertia(1, 2, 0),
        torus_seifert(4),
        Report(2, 5, 3, 0, 0, [{"h": 1}]),
        Report(3, 4, 1, 1, 0, None),
        # __reduce__ rebuilds these through __init__ from their fields in order
        RationalAngle(2, 7),
        CurveSample((0.5, 1.5), (0.25, 0.0), QUAT_PATH),
        SignedIntersection(PillowPoint(1.0, 0.0), 2, -1),
        # bands in the run layout that build_H returns, each run (value, count)
        Band((((1.0, 1), (-2.0, 1)), ((0.5 - 1j, 1),)), 0.0),
        Band((((1.0, 2), (3.0, 1)), ((0.5 - 1j, 1), (2j, 1)), ((0.25, 1),)), 6.5),
        RegionGrid(3, 4, [[1, -999, 0], [2, 1, 0], [0, 0, -999]]),
    )
    for value in values:
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        if isinstance(value, Band):  # each copy is still a band that inertia counts
            for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin.shape == value.shape and inertia(twin) == inertia(value)


def test_repr_names_the_fields():
    assert repr(RationalAngle(2, 4)) == "RationalAngle(p=1, q=2)"
    assert repr(Inertia(1, 2, 0)) == "Inertia(n_pos=1, n_neg=2, n_zero=0)"
    assert repr(RegionGrid(3, 8, [])) == "RegionGrid(ell=3, resolution=8, values=[])"
    assert repr(Report(None, None, 2, 0, None, None)) == (
        "Report(ell=None, resolution=None, checked=2, failed=0, skipped_on_roots=None, "
        "points=None)"
    )


def test_a_value_with_an_int_past_the_digit_limit_prints():
    # int -> str refuses more than 4300 digits; such an int prints by that limit
    huge, big = "<int of more than 4300 digits>", 10**5000
    assert repr(RationalAngle(1, big)) == f"RationalAngle(p=1, q={huge})"
    assert str(RationalAngle(1, big)) == f"1/{huge}"
    assert str(angle_pair(RationalAngle(1, big), RationalAngle(1, 3))) == (
        f"AnglePair(alpha1=RationalAngle(p=1, q={huge}), alpha2=RationalAngle(p=1, q=3))"
    )
    assert repr(SeifertSystem(big, 0, {})) == (
        f"SeifertSystem(mu={huge}, rank=0, entries=mappingproxy({{}}), runs=((), ()), bound=0, "
        "minus=(), order=0)"
    )
    # inside the entries' mapping and the runs' tuples too
    i = 10**4400
    s = SeifertSystem(1, big, {"+": ((i, i, 1),), "-": ((i, i, 1),)})
    entries = f"(({huge}, {huge}, 1),)"
    runs = f"((((), {huge}), (((0, 1), (1, 1)), 1), ((), {huge})), (((), {huge}),))"
    assert repr(s) == (
        f"SeifertSystem(mu=1, rank={huge}, entries=mappingproxy({{'+': {entries}, "
        f"'-': {entries}}}), runs={runs}, bound=2, minus=((), (0,)), order=None)"
    )


def test_constructors_still_validate():
    with pytest.raises(ValueError):
        RationalAngle(1, 0)
    with pytest.raises(ValueError):
        RationalAngle(3, 2)
    with pytest.raises(TypeError):
        AnglePair(1, 0.5)
    with pytest.raises(ValueError):
        AnglePair(0.5, 4.0)
    with pytest.raises(ValueError):
        UnitQuaternion(0, 0, 0, 0)
    with pytest.raises(ValueError):
        PillowPoint(0.0, 1.0)
    assert PillowPoint(1.0, -1.0).theta == pytest.approx(2 * math.pi - 1.0)

    # one field too many or too few is a TypeError, whether the class checks
    # its arguments itself or takes them straight into Frozen.__init__
    values = (
        RationalAngle(2, 7),
        AnglePair(RationalAngle(1, 3), 0.5),
        PillowPoint(1.0, 2.0),
        CurveSample((0.5, 1.5), (0.25, 0.0), QUAT_PATH),
        SignedIntersection(PillowPoint(1.0, 0.0), 2, -1),
        UnitQuaternion(0.5, 0.5, 0.5, 0.5),
        Inertia(1, 2, 0),
        torus_seifert(4),
        Report(2, 5, 1, 0, 0, None),
        RegionGrid(3, 2, [[-1]]),
        Band((((1.0, 1), (-2.0, 1)), ((0.5 - 1j, 1),)), 0.0),
    )
    for value in values:
        fields = value._fields()
        for args in (fields + (fields[-1],), fields[:-1]):
            with pytest.raises(TypeError):
                type(value)(*args)
