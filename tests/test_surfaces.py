import pytest

from dichroma.surfaces import (
    NONORIENTABLE,
    ORIENTABLE,
    Surface,
    arboricity_bound,
    bounds_row,
    dichromatic_bounds,
    dicritical_order_bound,
    euler_characteristic,
    heawood_number,
    parse_surface,
    surface_from_characteristic,
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
    # "²".isdigit() is true, but int() rejects it
    for bad in ("", "plane", "S", "Sx", "N-1", "4", "N²"):
        with pytest.raises(ValueError, match="cannot parse surface"):
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
    assert dicritical_order_bound(4, -1) == 13
    assert dicritical_order_bound(4, -8) == 76
    assert dicritical_order_bound(5, -8) == 24
    assert dicritical_order_bound(3, -5) is None


def test_tournament_lower_bound():
    assert tournament_lower_bound(-8) == 2
    assert tournament_lower_bound(2) == 1
    # the limit is Heawood number 2**53; top is the greatest c beyond it
    top = (49 - (2**54 - 5) ** 2) // 24
    assert heawood_number(top + 1) == 2**53 < heawood_number(top)
    assert tournament_lower_bound(top + 1) == -(-(2**53) // 107)
    for c in (top, -(10**700)):
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            tournament_lower_bound(c)


def test_dichromatic_bounds_provenance():
    # the upper 3 at c = 2, 1, 0: the order bound 4 - 9c leaves no room for
    # the 7 vertices a 4-dicritical oriented graph needs; at c = -1 it is 13,
    # so the upper 3 there stays cited
    low3, order = "lower-3-characteristic-at-most-1", "no-4-dicritical-by-order"
    expected = {
        2: (2, 3, ["directed-triangle", order]),
        1: (3, 3, [low3, "kronk-arboricity", order]),
        0: (3, 3, [low3, order]),
        -1: (3, 3, [low3, "exact-value-3"]),
        -2: (3, 4, [low3, "kronk-arboricity", "upper-4-genus-dominance"]),
        -8: (4, 4, ["lower-4-characteristic-at-most-minus-8",
                    "upper-4-genus-dominance"]),
    }
    for c, want in expected.items():
        row = dichromatic_bounds(c)
        assert (row["lower"], row["upper"], row["provenance"]) == want, c
        assert bounds_row("x", c) == dict(surface="x", **row)
    with pytest.raises(ValueError, match="characteristic <= 2"):
        dichromatic_bounds(3)
