"""Closed-form surface bounds: Euler characteristics, Heawood numbers,
arboricity ceilings, order and density bounds for dicritical digraphs, and
the combined per-surface dichromatic bounds table.

Everything except the tournament lower bound is exact integer or rational
arithmetic; that one bound divides by a logarithm, so it uses floats by
necessity, and takes Heawood numbers only up to 2**53, where each is an
exact float (at the table's surfaces its ceiling is nowhere near an
integer boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ORIENTABLE = "orientable"
NONORIENTABLE = "nonorientable"

# the surfaces with a name of their own; the rest are S<genus> and N<genus>
_NAMED = {
    "sphere": (ORIENTABLE, 0),
    "torus": (ORIENTABLE, 1),
    "projective-plane": (NONORIENTABLE, 1),
    "klein-bottle": (NONORIENTABLE, 2),
}


@dataclass(frozen=True)
class Surface:
    kind: str
    genus: int

    def __post_init__(self):
        if self.kind not in (ORIENTABLE, NONORIENTABLE):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.genus < 0 or (self.kind == NONORIENTABLE and self.genus < 1):
            raise ValueError(f"invalid genus {self.genus} for {self.kind}")

    @property
    def name(self) -> str:
        for name, key in _NAMED.items():
            if key == (self.kind, self.genus):
                return name
        return f"{'S' if self.kind == ORIENTABLE else 'N'}{self.genus}"


def euler_characteristic(s: Surface) -> int:
    if s.kind == ORIENTABLE:
        return 2 - 2 * s.genus
    return 2 - s.genus


def surface_from_characteristic(c: int, kind: str) -> Surface:
    if kind == ORIENTABLE:
        if c > 2 or c % 2 != 0:
            raise ValueError(f"no orientable surface has characteristic {c}")
        return Surface(ORIENTABLE, (2 - c) // 2)
    if kind == NONORIENTABLE:
        if c > 1:
            raise ValueError(f"no nonorientable surface has characteristic {c}")
        return Surface(NONORIENTABLE, 2 - c)
    raise ValueError(f"unknown surface kind {kind!r}")


def parse_surface(text: str) -> Surface:
    """Names like sphere, torus, projective-plane, klein-bottle, S3, N7."""
    t = text.strip().lower()
    if t in _NAMED:
        return Surface(*_NAMED[t])
    if t[:1] in ("s", "n") and t[1:].isdecimal():
        return Surface(ORIENTABLE if t[0] == "s" else NONORIENTABLE, int(t[1:]))
    raise ValueError(f"cannot parse surface {text!r}")


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


def dicritical_order_bound(k: int, c: int, oriented: bool) -> int | None:
    """Best applicable order ceiling for a k-dicritical digraph embeddable
    on a surface of Euler characteristic c, or None if no formula applies.

    Oriented graphs: 4-9c at k=4 and floor(-3c/(k-4)) for k >= 5.  General
    digraphs: floor(-6c/(k-7)) for k >= 8 and floor(-6c/(k-7+e_k)) for
    k >= 7, where e_k = (k-3)/(2(k-1)^2+3(k-1)-4) is the density excess of
    k-dicritical digraphs other than the bidirected complete graph (which
    embeds only where its underlying K_k does, so the bound list stays
    valid).  Oriented inputs also satisfy the digraph bounds; the minimum of
    everything applicable is returned.
    """
    bounds: list[int] = []
    if oriented:
        if k == 4:
            bounds.append(4 - 9 * c)
        elif k >= 5:
            bounds.append(-3 * c // (k - 4))
    if k >= 8:
        bounds.append(-6 * c // (k - 7))
    if k >= 7:
        kk = k - 1
        eps = Fraction(kk - 2, 2 * kk * kk + 3 * kk - 4)
        bounds.append(-6 * c // (k - 7 + eps))
    if not bounds:
        return None
    return min(bounds)


def dicritical_min_arcs(k_plus_1: int, n: int) -> Fraction:
    """Arc-count floor (k + (k-2)/(2k^2+3k-4)) n for (k+1)-dicritical
    digraphs other than the bidirected K_{k+1}; needs k >= 3."""
    k = k_plus_1 - 1
    if k < 3:
        raise ValueError("arc bound needs dicritical order at least 4")
    return (k + Fraction(k - 2, 2 * k * k + 3 * k - 4)) * n


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
    if h <= 1:
        return 1
    return math.ceil(h / (2 * math.log2(h) + 1))


@dataclass(frozen=True)
class BoundRecord:
    lower: int
    upper: int
    provenance: tuple[str, ...]


# surfaces with dichromatic number exactly 3
_EXACT_THREE = {
    (NONORIENTABLE, 1),
    (NONORIENTABLE, 2),
    (NONORIENTABLE, 3),
    (ORIENTABLE, 1),
}


def dichromatic_bounds(s: Surface) -> BoundRecord:
    """Best implemented lower/upper bounds on the largest dichromatic number
    among digraphs embeddable on s, with tags naming the binding facts."""
    c = euler_characteristic(s)
    lower_opts: list[tuple[int, str]] = [(2, "directed-triangle")]
    if c <= 1:
        lower_opts.append((3, "lower-3-characteristic-at-most-1"))
    if c <= -8:
        lower_opts.append((4, "lower-4-characteristic-at-most-minus-8"))
    if c <= 2:
        lower_opts.append((tournament_lower_bound(c), "heawood-tournament"))
    lower = max(v for v, _ in lower_opts)

    upper_opts: list[tuple[int, str]] = []
    if c <= 1:
        upper_opts.append((arboricity_bound(c), "kronk-arboricity"))
    if c >= -8:
        upper_opts.append((4, "upper-4-genus-dominance"))
    if (s.kind, s.genus) in _EXACT_THREE:
        upper_opts.append((3, "exact-value-3"))
    if s.kind == ORIENTABLE and s.genus == 0:
        upper_opts.append((3, "planar-3-dicolourable"))
    upper = min(v for v, _ in upper_opts)

    tags = tuple(
        [t for v, t in lower_opts if v == lower]
        + [t for v, t in upper_opts if v == upper]
    )
    return BoundRecord(lower=lower, upper=upper, provenance=tags)


_TABLE_ROWS: tuple[tuple[str, tuple[Surface, ...]], ...] = (
    ("sphere", (Surface(ORIENTABLE, 0),)),
    ("N1", (Surface(NONORIENTABLE, 1),)),
    ("N2", (Surface(NONORIENTABLE, 2),)),
    ("S1", (Surface(ORIENTABLE, 1),)),
    ("N3", (Surface(NONORIENTABLE, 3),)),
    ("S2, N4", (Surface(ORIENTABLE, 2), Surface(NONORIENTABLE, 4))),
    ("N5", (Surface(NONORIENTABLE, 5),)),
    ("S3, N6", (Surface(ORIENTABLE, 3), Surface(NONORIENTABLE, 6))),
    ("N7", (Surface(NONORIENTABLE, 7),)),
    ("S4, N8", (Surface(ORIENTABLE, 4), Surface(NONORIENTABLE, 8))),
    ("N9", (Surface(NONORIENTABLE, 9),)),
    ("S5, N10", (Surface(ORIENTABLE, 5), Surface(NONORIENTABLE, 10))),
)


def bounds_row(label: str, surfaces: tuple[Surface, ...]) -> dict:
    """One row of bounds for surfaces that share it: label, Euler
    characteristic, lower and upper bound, and the provenance tags naming
    the binding facts.  Raises RuntimeError unless the surfaces agree on
    every reported value."""
    values = {(euler_characteristic(s), dichromatic_bounds(s)) for s in surfaces}
    if len(values) != 1:
        raise RuntimeError(f"row {label} is not homogeneous")
    ((c, rec),) = values
    return {
        "surface": label,
        "euler_characteristic": c,
        "lower": rec.lower,
        "upper": rec.upper,
        "provenance": list(rec.provenance),
    }


def surface_table() -> list[dict]:
    """The per-surface bounds table, one bounds_row per group."""
    return [bounds_row(label, surfaces) for label, surfaces in _TABLE_ROWS]
