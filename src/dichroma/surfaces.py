"""Surface names and Euler characteristics, Heawood numbers, dicritical
order bounds, the bounds table.

Every bound depends only on the Euler characteristic c of the surface: the
arboricity ceiling, the order ceilings for dicritical oriented graphs, and
the bounds on the dichromatic number of oriented graphs on the surface.

Everything except the tournament lower bound is exact integer arithmetic.
That one bound is the ceiling of a ratio with a logarithm in it: it takes
Heawood numbers only up to 2**53, where each is an exact float, keeps the
float ratio where it is farther from an integer than its rounding error,
and recomputes it in 60-digit decimal arithmetic elsewhere.
"""

from __future__ import annotations

import decimal
import math

from .formats import read_int

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
        genus = read_int(t[1:])
    except ValueError:
        kind = None
    if kind and (kind == "S" or genus >= 1):
        return _surface(kind, genus)
    raise ValueError(f"cannot parse surface {text!r}")


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
    surface of Euler characteristic c: 4-9c at k=4 and floor(-3c/(k-4))
    for k >= 5, or None below k=4, where no formula applies."""
    if k == 4:
        return 4 - 9 * c
    if k >= 5:
        return -3 * c // (k - 4)
    return None


def tournament_lower_bound(c: int) -> int:
    """Some tournament on H(c) vertices has dichromatic number at least
    H/(2 log2 H + 1); its underlying complete graph embeds by Heawood.
    Raises ValueError when H(c) exceeds 2**53: every int up to that is an
    exact float."""
    h = heawood_number(c)
    if h > 2**53:
        raise ValueError(
            "the tournament bound needs a Heawood number of at most 2**53; "
            f"this characteristic gives one of {h.bit_length()} bits"
        )
    x = h / (2 * math.log2(h) + 1)
    # log2, one addition and one division leave a relative error of a few
    # units of 2**-53, far below 2**-48
    if abs(x - round(x)) > x * 2**-48:
        return math.ceil(x)
    with decimal.localcontext(decimal.Context(prec=60)):
        hd = decimal.Decimal(h)
        return math.ceil(hd / (2 * hd.ln() / decimal.Decimal(2).ln() + 1))


def _rules(c: int):
    """Every bound that holds at Euler characteristic c, as (side, value,
    tag): the lower bounds first, each side in its provenance order."""
    yield "lower", 2, "directed-triangle"
    if c <= 1:
        yield "lower", 3, "lower-3-characteristic-at-most-1"
    if c <= -8:
        yield "lower", 4, "lower-4-characteristic-at-most-minus-8"
    yield "lower", tournament_lower_bound(c), "heawood-tournament"
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
