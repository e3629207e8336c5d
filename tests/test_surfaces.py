import math

import pytest

from dichroma.surfaces import (
    arboricity_bound,
    bounds_row,
    dichromatic_bounds,
    dicritical_order_bound,
    heawood_number,
    parse_surface,
    surface_names,
    tournament_lower_bound,
)

from bruteforce import brute_least_transitive_free, brute_tournament_closed_form


def test_parse_surface():
    expected = {
        "sphere": ("sphere", 2), "S0": ("sphere", 2), "torus": ("torus", 0),
        "s1": ("torus", 0), "S01": ("torus", 0), "  Torus ": ("torus", 0),
        "projective-plane": ("projective-plane", 1),
        "N1": ("projective-plane", 1), "klein-bottle": ("klein-bottle", 0),
        "n2": ("klein-bottle", 0), "S3": ("S3", -4), "n3": ("N3", -1),
        "N10": ("N10", -8),
    }
    for text, want in expected.items():
        assert parse_surface(text) == want, text
    # "²".isdigit() is true, but int() rejects it; N0 has no genus to lose;
    # "ſ".upper() is "S", so upper-casing the text would take ſ1 as the torus
    for bad in ("", "plane", "S", "Sx", "N-1", "S-1", "4", "N²", "N0", "S 1",
                "ſ1"):
        with pytest.raises(ValueError, match="cannot parse surface"):
            parse_surface(bad)


def test_surface_names():
    assert surface_names(2) == ["sphere"]
    assert surface_names(1) == ["projective-plane"]
    assert surface_names(0) == ["torus", "klein-bottle"]
    assert surface_names(-1) == ["N3"]
    assert surface_names(-8) == ["S5", "N10"]
    assert surface_names(3) == []
    for c in range(-40, 3):
        for name in surface_names(c):
            assert parse_surface(name) == (name, c)


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
    # ceil(n/(t-1)) for the naive loop's least t, n = H(c), and never below
    # the closed form ceil(H/(2 log2 H + 1)) that it replaced
    least = {}
    for c in range(-20000, 3):
        n = heawood_number(c)
        if n not in least:
            least[n] = brute_least_transitive_free(n)
        assert tournament_lower_bound(c) == -(-n // (least[n] - 1)), c
        assert c > -9 or tournament_lower_bound(c) >= brute_tournament_closed_form(n), c
    pins = {2: 2, -8: 2, -20: 3, -1000: 7, -10**4: 16, -10**6: 107,
            -10**12: 56965}
    for c, want in pins.items():
        assert tournament_lower_bound(c) == want, c
    # a genus of 701 digits: t = 2329 is least, as perm(n, t) / 2**C(t, 2)
    # is at least 1 below t = n.bit_length() and falls from there on, and
    # the two exact products straddle 1
    c = parse_surface("N1" + "0" * 700)[1]
    n, t = heawood_number(c), 2329
    assert n.bit_length() < t
    before = math.perm(n, t - 1)
    assert before >= 1 << (t - 1) * (t - 2) // 2
    assert before * (n - t + 1) < 1 << t * (t - 1) // 2
    assert tournament_lower_bound(c) == -(-n // (t - 1))


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
