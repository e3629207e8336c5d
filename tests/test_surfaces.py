from fractions import Fraction

import pytest

from dichroma.surfaces import (
    NONORIENTABLE,
    ORIENTABLE,
    Surface,
    arboricity_bound,
    dichromatic_bounds,
    dicritical_min_arcs,
    dicritical_order_bound,
    euler_characteristic,
    heawood_number,
    parse_surface,
    surface_from_characteristic,
    surface_table,
    tournament_lower_bound,
)


def test_surface_names_and_characteristics():
    assert Surface(ORIENTABLE, 0).name == "sphere"
    assert Surface(ORIENTABLE, 1).name == "torus"
    assert Surface(NONORIENTABLE, 1).name == "projective-plane"
    assert Surface(NONORIENTABLE, 2).name == "klein-bottle"
    assert Surface(ORIENTABLE, 3).name == "S3"
    assert Surface(NONORIENTABLE, 7).name == "N7"
    assert euler_characteristic(Surface(ORIENTABLE, 0)) == 2
    assert euler_characteristic(Surface(ORIENTABLE, 2)) == -2
    assert euler_characteristic(Surface(NONORIENTABLE, 1)) == 1
    assert euler_characteristic(Surface(NONORIENTABLE, 10)) == -8


def test_surface_validation():
    with pytest.raises(ValueError):
        Surface("weird", 1)
    with pytest.raises(ValueError):
        Surface(ORIENTABLE, -1)
    with pytest.raises(ValueError):
        Surface(NONORIENTABLE, 0)


def test_parse_surface_round_trips():
    for s in (
        Surface(ORIENTABLE, 0),
        Surface(ORIENTABLE, 1),
        Surface(ORIENTABLE, 4),
        Surface(NONORIENTABLE, 1),
        Surface(NONORIENTABLE, 2),
        Surface(NONORIENTABLE, 9),
    ):
        assert parse_surface(s.name) == s
    assert parse_surface("  Torus ") == Surface(ORIENTABLE, 1)
    assert parse_surface("n3") == Surface(NONORIENTABLE, 3)
    for bad in ("", "plane", "S", "Sx", "N-1", "4"):
        with pytest.raises(ValueError):
            parse_surface(bad)


def test_surface_from_characteristic():
    assert surface_from_characteristic(2, ORIENTABLE) == Surface(ORIENTABLE, 0)
    assert surface_from_characteristic(-2, ORIENTABLE) == Surface(ORIENTABLE, 2)
    assert surface_from_characteristic(1, NONORIENTABLE) == Surface(
        NONORIENTABLE, 1
    )
    assert surface_from_characteristic(-8, NONORIENTABLE) == Surface(
        NONORIENTABLE, 10
    )
    with pytest.raises(ValueError):
        surface_from_characteristic(1, ORIENTABLE)  # odd characteristic
    with pytest.raises(ValueError):
        surface_from_characteristic(4, ORIENTABLE)
    with pytest.raises(ValueError):
        surface_from_characteristic(2, NONORIENTABLE)
    with pytest.raises(ValueError):
        surface_from_characteristic(0, "weird")


def test_heawood_numbers():
    assert heawood_number(2) == 4
    assert heawood_number(1) == 6
    assert heawood_number(0) == 7
    assert heawood_number(-8) == 11
    with pytest.raises(ValueError):
        heawood_number(3)


def test_arboricity_bound():
    assert arboricity_bound(1) == 3
    assert arboricity_bound(0) == 4
    assert arboricity_bound(-8) == 6
    with pytest.raises(ValueError):
        arboricity_bound(2)


def test_dicritical_order_bounds():
    assert dicritical_order_bound(4, -1, oriented=True) == 13
    assert dicritical_order_bound(4, -8, oriented=True) == 76
    assert dicritical_order_bound(5, -8, oriented=True) == 24
    assert dicritical_order_bound(7, -1, oriented=False) == 129
    assert dicritical_order_bound(3, -5, oriented=False) is None


def test_dicritical_min_arcs():
    assert dicritical_min_arcs(4, 1) == 3 + Fraction(1, 23)
    assert dicritical_min_arcs(4, 23) == 70
    assert dicritical_min_arcs(7, 10) == Fraction(2600, 43)
    with pytest.raises(ValueError):
        dicritical_min_arcs(3, 5)


def test_tournament_lower_bound():
    assert tournament_lower_bound(-8) == 2
    assert tournament_lower_bound(2) == 1


def test_dichromatic_bounds_provenance():
    sphere = dichromatic_bounds(Surface(ORIENTABLE, 0))
    assert (sphere.lower, sphere.upper) == (2, 3)
    assert "planar-3-dicolourable" in sphere.provenance
    n1 = dichromatic_bounds(Surface(NONORIENTABLE, 1))
    assert (n1.lower, n1.upper) == (3, 3)
    assert "exact-value-3" in n1.provenance
    n10 = dichromatic_bounds(Surface(NONORIENTABLE, 10))
    assert (n10.lower, n10.upper) == (4, 4)
    assert "lower-4-characteristic-at-most-minus-8" in n10.provenance


def test_surface_table_frozen_rows():
    rows = surface_table()
    got = [(r["surface"], r["lower"], r["upper"]) for r in rows]
    assert got == [
        ("sphere", 2, 3),
        ("N1", 3, 3),
        ("N2", 3, 3),
        ("S1", 3, 3),
        ("N3", 3, 3),
        ("S2, N4", 3, 4),
        ("N5", 3, 4),
        ("S3, N6", 3, 4),
        ("N7", 3, 4),
        ("S4, N8", 3, 4),
        ("N9", 3, 4),
        ("S5, N10", 4, 4),
    ]
    for r in rows:
        assert r["lower"] <= r["upper"]
