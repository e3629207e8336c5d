"""Surface names and Euler characteristics, Heawood numbers, dicritical
order bounds, the bounds table.

Every bound depends only on the Euler characteristic c of the surface and
is exact integer arithmetic: the arboricity ceiling, the order ceilings for
dicritical oriented graphs, and the bounds on the dichromatic number of
oriented graphs on the surface.
"""

from __future__ import annotations

import math

from .formats import excerpt, read_int

# the surfaces with a name of their own; every other is S<genus>, the
# orientable surface of characteristic 2 - 2 genus, or N<genus> (genus >= 1),
# the nonorientable one of characteristic 2 - genus
_NAMES = {"S0": "sphere", "S1": "torus", "N1": "projective-plane",
          "N2": "klein-bottle"}


def _surface(kind: str, genus: int) -> tuple[str, int]:
    """The name and Euler characteristic of S<genus> (kind "S") or N<genus>."""
    key = f"{kind}{genus}"
    return _NAMES.get(key, key), 2 - (2 if kind == "S" else 1) * genus


def parse_surface(text: str) -> tuple[str, int]:
    """The canonical name (S1 as torus) and the Euler characteristic of a
    surface named sphere, torus, projective-plane, klein-bottle, S<genus> or
    N<genus>, in any case, the genus read by formats.read_int."""
    t = text.strip().lower()
    t = next((key.lower() for key, name in _NAMES.items() if name == t), t)
    kind = {"s": "S", "n": "N"}.get(t[:1])
    try:
        name, c = _surface(kind, read_int(t[1:]))
        str(c)  # every report prints c: ValueError past the int-text limit
    except ValueError:
        kind = None
    if kind and (kind == "S" or c <= 1):
        return name, c
    raise ValueError(f"cannot parse surface {excerpt(text)}")


def surface_names(c: int) -> list[str]:
    """The names of the surfaces of Euler characteristic c, the orientable
    one first; [] when there is none (c > 2)."""
    kinds = [("S", (2 - c) // 2)] if c <= 2 and c % 2 == 0 else []
    if c <= 1:
        kinds.append(("N", 2 - c))
    return [_surface(kind, genus)[0] for kind, genus in kinds]


def heawood_number(c: int) -> int:
    """H(c) = floor((7+sqrt(49-24c))/2), computed without floating point."""
    if c > 2:
        raise ValueError(f"Heawood number needs characteristic <= 2, got {c}")
    return (7 + math.isqrt(49 - 24 * c)) // 2


def arboricity_bound(c: int) -> int:
    """Arboricity ceiling floor((9+sqrt(49-24c))/4) for surfaces with c <= 1."""
    if c > 1:
        raise ValueError(f"arboricity bound needs characteristic <= 1, got {c}")
    return (9 + math.isqrt(49 - 24 * c)) // 4


def dicritical_order_bound(k: int, c: int) -> int | None:
    """Order ceiling for a k-dicritical oriented graph embeddable on a
    surface of Euler characteristic c, from Euler's m <= 3n - 3c: 4-9c at
    k=4 by m >= (10n-4)/3 (Kostochka and Stiebitz, Graphs Combin. 2020),
    floor(-3c/(k-4)) at k >= 5 by degrees >= k-1, m >= (k-1)n; else None."""
    if k == 4:
        return 4 - 9 * c
    if k >= 5:
        return -3 * c // (k - 4)
    return None


def tournament_lower_bound(c: int) -> int:
    """ceil(n/(t-1)) for n = H(c) and the least t with perm(n, t) <
    2**C(t, 2): a random tournament on n vertices then averages under one
    transitive subtournament of order t, so some tournament, on a K_n that
    embeds by Heawood, has acyclic sets of < t vertices (Erdos and Moser
    1964).  perm(n, t) lies in [lo, hi] * 2**shift, running products
    rounded to p bits; p doubles until every test decides, as it does once
    nothing rounds.  t <= 2b + 1, b = n.bit_length(): perm(n, t) < 2**(bt)."""
    n = heawood_number(c)
    p = 8
    while True:
        lo, hi, shift = 1, 1, 0
        for t, x in enumerate(range(n, -1, -1), 1):  # perm(n, t) ends in x
            s = max((hi * x).bit_length() - p, 0)
            lo, hi, shift = lo * x >> s, -(-hi * x >> s), shift + s
            k = t * (t - 1) // 2 - shift  # is lo or hi below 2**k?
            if not lo or lo.bit_length() <= k:
                break
        if hi.bit_length() <= k:
            return -(-n // (t - 1))
        p *= 2


def _rules(c: int):
    """Every bound that holds at Euler characteristic c, as (side, value,
    tag): the lower bounds first, each side in its provenance order."""
    yield "lower", 2, "directed-triangle"
    if c <= 1:
        yield "lower", 3, "lower-3-characteristic-at-most-1"
    if c <= -8:
        yield "lower", 4, "lower-4-characteristic-at-most-minus-8"
    if heawood_number(c) >= 8:  # K_H embeds; K7 misses the Klein bottle
        yield "lower", tournament_lower_bound(c), "tournament-counting"
    if c <= 1:
        yield "upper", arboricity_bound(c), "kronk-arboricity"
    if c >= -8:
        yield "upper", 4, "upper-4-genus-dominance"
    # a 4-dicritical oriented graph has in- and out-degrees at least 3, so at
    # least 7 vertices; where the order bound is smaller there is none
    if dicritical_order_bound(4, c) < 7:
        yield "upper", 3, "no-4-dicritical-by-order"
    if c == -1:  # Dyck's surface N3, cited
        yield "upper", 3, "exact-value-3"


def dichromatic_bounds(c: int) -> dict:
    """Best implemented lower and upper bounds on the largest dichromatic
    number among oriented graphs embeddable on a surface of Euler
    characteristic c, with the tags of the rules that bind them."""
    rules = list(_rules(c))
    best = {
        "lower": max(v for side, v, _ in rules if side == "lower"),
        "upper": min(v for side, v, _ in rules if side == "upper"),
    }
    return {
        "euler_characteristic": c,
        **best,
        "provenance": [t for side, v, t in rules if v == best[side]],
    }


_TABLE_ROWS: tuple[tuple[str, int], ...] = (
    ("sphere", 2), ("N1", 1), ("N2", 0), ("S1", 0), ("N3", -1),
    ("S2, N4", -2), ("N5", -3), ("S3, N6", -4), ("N7", -5), ("S4, N8", -6),
    ("N9", -7), ("S5, N10", -8),
)


def bounds_row(label: str, c: int) -> dict:
    """One row of bounds: the label of the surfaces it covers, then
    dichromatic_bounds(c)."""
    return {"surface": label, **dichromatic_bounds(c)}


def surface_table() -> list[dict]:
    """The per-surface bounds table, one bounds_row per group."""
    return [bounds_row(label, c) for label, c in _TABLE_ROWS]
