import hashlib
import itertools
import random
import re

import pytest

from dichroma import reductions
from dichroma.certify import verify_dicolouring
from dichroma.digraphs import MAX_VERTICES, Digraph, is_oriented
from dichroma.reductions import (
    DIGON,
    CnfFormula,
    PlanarIncidenceEmbedding,
    decode_assignment,
    default_g3,
    default_gadgets,
    make_eq_gadget,
    make_neq_gadget,
    reduce_digon,
    reduce_oriented,
    single_face_embedding,
    solve_reduction,
    verify_equivalence,
    _compile,
    _gadget,
)

from bruteforce import enumerate_dicolourings, random_digraph, rotation_faces


def claw():
    return CnfFormula(num_vars=3, clauses=((1, 2, 3),))


def two_clause():
    return CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))


def two_clause_embedding():
    # incidence graph K_{2,3}: three quadrilateral faces
    return PlanarIncidenceEmbedding(
        faces=(
            ("v1", "c0", "v2", "c1"),
            ("v2", "c0", "v3", "c1"),
            ("v1", "c0", "v3", "c1"),
        ),
    )


def all_sign_patterns():
    clauses = tuple(
        (s1 * 1, s2 * 2, s3 * 3)
        for s1, s2, s3 in itertools.product((1, -1), repeat=3)
    )
    return CnfFormula(num_vars=3, clauses=clauses)


# -- formulas ---------------------------------------------------------------


def test_formula_validation():
    with pytest.raises(ValueError):
        CnfFormula(num_vars=-1, clauses=())
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((1, 2),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((1, 0, 2),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((1, 2, 3),))


def test_formula_evaluate_and_brute_force():
    phi = claw()
    assert phi.evaluate([True, False, False])
    assert not phi.evaluate([False, False, False])
    assert phi.brute_force_satisfiable() is not None
    unsat = all_sign_patterns()
    assert unsat.brute_force_satisfiable() is None
    with pytest.raises(ValueError):
        CnfFormula(num_vars=21, clauses=()).brute_force_satisfiable()


def test_dimacs_round_trip():
    again = CnfFormula.from_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    assert again == two_clause()
    text = "c a comment\np cnf 3 1\n1 -2 3 0\n"
    parsed = CnfFormula.from_dimacs(text)
    assert parsed.clauses == ((1, -2, 3),)


def test_dimacs_errors():
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf x\n")
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("1 2 3 0\n")  # no header
    with pytest.raises(ValueError, match="missing DIMACS header"):
        CnfFormula.from_dimacs("c comments\nc only\n")
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 3 1\n1 2 3\n")  # missing terminator
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 3 2\n1 2 3 0\n")  # count mismatch
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 2 1\n1 2 3 0\n")  # literal range
    # exactly one header, before any literal
    with pytest.raises(ValueError, match="second DIMACS header 'p cnf 4 1'"):
        CnfFormula.from_dimacs("p cnf 3 1\np cnf 4 1\n1 2 4 0\n")
    with pytest.raises(ValueError, match="clause line '1 2 3 0' before"):
        CnfFormula.from_dimacs("1 2 3 0\np cnf 3 1\n")
    # integers are ASCII digits, a literal's with an optional leading '-'
    # before a nonzero value: '-0' is no clause terminator
    for head in ("p cnf 1_0 1", "p cnf +3 1", "p cnf ３ 1", "p cnf -3 1"):
        with pytest.raises(ValueError, match=re.escape(f"bad DIMACS header '{head}'")):
            CnfFormula.from_dimacs(f"{head}\n1 2 3 0\n")
    for lit in ("+1", "1_0", "３", "--1", "-", "-0"):
        with pytest.raises(ValueError, match=re.escape(f"bad DIMACS literal '{lit}'")):
            CnfFormula.from_dimacs(f"p cnf 3 1\n{lit} 2 3 0\n")


# -- embeddings -------------------------------------------------------------


def test_single_face_embedding_validates():
    phi = claw()
    emb = single_face_embedding(phi)
    assert emb.validate(phi) == ((0, 0, 0),)
    # README's embedding JSON: the claw's one face
    readme = {"faces": [["v1", "c0", "v2", "c0", "v3", "c0"]]}
    assert PlanarIncidenceEmbedding.from_json(readme) == emb
    with pytest.raises(ValueError):
        single_face_embedding(two_clause())


def test_two_clause_embedding_validates():
    # each clause meets face i at the corner between its i-th and next variable
    assert two_clause_embedding().validate(two_clause()) == ((0, 1, 2), (0, 1, 2))


def test_embedding_rejects_wrong_face_count():
    phi = claw()
    walk = single_face_embedding(phi).faces[0]
    bad = PlanarIncidenceEmbedding(faces=(walk, walk))
    with pytest.raises(ValueError, match="Euler"):
        bad.validate(phi)


def test_embedding_rejects_bad_edge_coverage():
    phi = claw()
    bad = PlanarIncidenceEmbedding(
        faces=(("v1", "c0", "v2", "c0", "v1", "c0"),),
    )
    with pytest.raises(ValueError, match="two face sides"):
        bad.validate(phi)


def test_embedding_rejects_nonedges_and_unknown_vertices():
    phi = claw()
    with pytest.raises(ValueError, match="unknown vertex"):
        PlanarIncidenceEmbedding(
            faces=(("c9", "v1", "c0", "v2", "c0", "v3"),),
        ).validate(phi)
    with pytest.raises(ValueError, match="non-edge"):
        PlanarIncidenceEmbedding(
            faces=(("v1", "v2", "c0", "v2", "v1", "c0"),),
        ).validate(phi)


def test_embedding_rejects_disconnected_incidence_graph():
    phi = CnfFormula(num_vars=6, clauses=((1, 2, 3), (4, 5, 6)))
    w0 = ("v1", "c0", "v2", "c0", "v3", "c0")
    w1 = ("v4", "c1", "v5", "c1", "v6", "c1")
    bad = PlanarIncidenceEmbedding(faces=(w0, w1))
    with pytest.raises(ValueError, match="not connected"):
        bad.validate(phi)


def test_embedding_rejects_repeated_variable():
    phi = CnfFormula(num_vars=2, clauses=((1, 1, 2),))
    emb = PlanarIncidenceEmbedding(
        faces=(("v1", "c0", "v1", "c0", "v2", "c0"),),
    )
    with pytest.raises(ValueError, match="repeats a variable"):
        emb.validate(phi)


def test_validate_accepts_exactly_the_sphere_rotation_systems():
    # a rotation system always closes an orientable surface, so on a
    # connected incidence graph V - E + F = 2 says it is the sphere; each
    # traced walk is written from a random start, in a random direction
    rng = random.Random(4040)
    verdicts = {True: 0, False: 0}
    while min(verdicts.values()) < 100:
        nv, nc = rng.randint(3, 5), rng.randint(1, 3)
        phi = CnfFormula(nv, tuple(
            tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, nv + 1), 3))
            for _ in range(nc)))
        adj = {f"v{i}": set() for i in range(1, nv + 1)}
        for j, clause in enumerate(phi.clauses):
            adj[f"c{j}"] = {f"v{abs(lit)}" for lit in clause}
            for v in adj[f"c{j}"]:
                adj[v].add(f"c{j}")
        reached, todo = set(), ["v1"]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo += adj[x]
        if reached != set(adj):
            continue
        rotation = {x: rng.sample(sorted(ys), len(ys)) for x, ys in adj.items()}
        faces = []
        for walk in rotation_faces(adj, rotation):
            k = rng.randrange(len(walk))
            walk = walk[k:] + walk[:k]
            faces.append(walk[::-1] if rng.random() < 0.5 else walk)
        emb = PlanarIncidenceEmbedding(faces=tuple(faces))
        sphere = len(adj) - 3 * nc + len(faces) == 2
        verdicts[sphere] += 1
        if not sphere:
            with pytest.raises(ValueError, match="Euler"):
                emb.validate(phi)
            continue
        for j, (clause, triple) in enumerate(zip(phi.clauses, emb.validate(phi))):
            names = [f"v{abs(lit)}" for lit in clause]
            for i, f in enumerate(triple):
                corner = {names[i], names[(i + 1) % 3]}
                walk = faces[f]
                assert any(x == f"c{j}" and {walk[p - 1], walk[(p + 1) % len(walk)]}
                           == corner for p, x in enumerate(walk))


def test_embedding_rejects_an_empty_face_walk():
    faces = two_clause_embedding().faces
    with pytest.raises(ValueError, match="empty face walk"):
        PlanarIncidenceEmbedding(faces=faces[:2] + ((),)).validate(two_clause())


# -- gadgets ----------------------------------------------------------------


def test_eq_gadget_forces_equal_endpoints():
    # the seed is 3-dicritical, so deleting any one of its arcs leaves a
    # gadget whose endpoints agree in every 2-dicolouring
    g3 = default_g3()
    for arc in g3.arcs():
        eq = make_eq_gadget(g3, arc)
        assert (eq.u, eq.w) == arc
        assert eq.digraph.m == g3.m - 1
        seen = set()
        for col in enumerate_dicolourings(eq.digraph, 2):
            assert col[eq.u] == col[eq.w]
            seen.add(col[eq.u])
        assert seen == {1, 2}


def test_eq_gadget_errors():
    triangle = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="3-dicritical"):
        make_eq_gadget(triangle, (0, 1))
    g3 = default_g3()
    non_arc = next(
        (u, v)
        for u in range(g3.n)
        for v in range(g3.n)
        if u != v and not g3.has_arc(u, v)
    )
    with pytest.raises(ValueError, match="not an arc"):
        make_eq_gadget(g3, non_arc)
    # the digon's endpoints differ, so it is no equality gadget, and an
    # inequality gadget spliced from it has digons
    with pytest.raises(RuntimeError, match=re.escape(
            "admit patterns [(1, 2), (2, 1)]; equality forcing failed")):
        _gadget(DIGON.digraph, 0, 1, {(1, 1), (2, 2)}, "equality")
    with pytest.raises(RuntimeError, match="inequality gadget contains a digon"):
        make_neq_gadget(DIGON)


def test_neq_gadget_forces_distinct_endpoints():
    g3 = default_g3()
    neq = make_neq_gadget(make_eq_gadget(g3, min(g3.arcs())))
    assert neq.digraph.n == 4 + 2 * (g3.n - 2)
    assert neq.digraph.m == 3 + 2 * (g3.m - 1)
    assert is_oriented(neq.digraph)
    seen = set()
    for col in enumerate_dicolourings(neq.digraph, 2):
        assert col[neq.u] != col[neq.w]
        seen.add((col[neq.u], col[neq.w]))
    assert seen == {(1, 2), (2, 1)}
    assert set(neq.extensions) == {(1, 2), (2, 1)}
    for (a, b), ext in neq.extensions.items():
        assert (ext[neq.u], ext[neq.w]) == (a, b)
        assert verify_dicolouring(neq.digraph, ext, 2)
    # the digon is the trivial inequality gadget
    assert sorted(DIGON.digraph.arcs()) == [(0, 1), (1, 0)]
    assert DIGON.extensions == {(1, 2): (1, 2), (2, 1): (2, 1)}
    # the colourings lifted into gadget interiors, key order included
    got = repr((DIGON.extensions, neq.extensions)).encode()
    assert hashlib.sha256(got).hexdigest() == (
        "a25897dfb6c270528a48f460f5791db817fd3029accc8d64fa4d93ce9f196da8"
    )


def test_endpoint_patterns_keep_the_first_colouring_per_pattern():
    # per endpoint pattern, in order of first appearance, the first
    # 2-dicolouring the lexicographic enumeration lists
    rng = random.Random(1616)
    for _ in range(300):
        n = rng.randint(1, 8)
        d = random_digraph(rng, n, rng.choice((0.2, 0.35, 0.5)))
        a, b = rng.randrange(n), rng.randrange(n)
        want: dict = {}
        for col in enumerate_dicolourings(d, 2):
            want.setdefault((col[a], col[b]), col)
        got = _gadget(d, a, b, set(want), "test").extensions
        assert list(got.items()) == list(want.items()), (d.rows, a, b)


# -- compiled instances -----------------------------------------------------


def test_digon_hub_satisfiable_clause():
    phi = claw()
    out = reduce_digon(phi)
    assert out.mode == "digon-hub"
    # 3 variables, hub, 6-cycle, t, one bar per positive literal
    assert out.digraph.n == 3 + 1 + 6 + 1 + 3
    # t and the hub each meet u, v, w; a bar meets its variable and site
    assert out.gadget is DIGON and len(out.gadget_copies) == 3 + 3 + 2 * 3
    assert out.digraph.m == 6 + 2 * len(out.gadget_copies)
    col = solve_reduction(out)
    assert col is not None
    assert verify_dicolouring(out.digraph, col, 2)
    assert phi.evaluate(decode_assignment(out, col))
    assert verify_equivalence(out)


def test_digon_hub_size_accounting_two_positive_literals():
    phi = CnfFormula(num_vars=3, clauses=((1, 2, -3),))
    out = reduce_digon(phi)
    assert out.digraph.n == 3 + 1 + 6 + 1 + 2
    expected_roles = {
        "var1", "var2", "var3", "hub",
        "C0:x", "C0:u", "C0:y", "C0:v", "C0:z", "C0:w", "C0:t",
        "C0:xbar", "C0:ybar",
    }
    assert set(out.roles) == expected_roles
    # one role per vertex, so every vertex has one name
    assert sorted(out.roles.values()) == list(range(out.digraph.n))


def test_digon_hub_unsatisfiable_formula():
    phi = all_sign_patterns()
    out = reduce_digon(phi)
    assert solve_reduction(out) is None
    assert verify_equivalence(out)


def test_digon_planar_agrees_with_hub():
    # both planar compilations are fixed cases of claim row
    # reduction-digon-equivalence, which verifies their equivalence; the
    # two-clause formula's hub compilation is verified here
    phi = claw()
    assert reduce_digon(phi, single_face_embedding(phi)).mode == "digon-planar"
    assert verify_equivalence(reduce_digon(two_clause()))


def test_repeated_variable_clause_in_hub_mode():
    phi = CnfFormula(num_vars=1, clauses=((1, 1, 1), (-1, -1, -1)))
    out = reduce_digon(phi)
    assert solve_reduction(out) is None
    assert verify_equivalence(out)


def test_oriented_hub_round_trip():
    phi = claw()
    out = reduce_oriented(phi)
    assert out.mode == "oriented-hub"
    assert is_oriented(out.digraph)
    assert len(out.gadget_copies) > 0
    col = solve_reduction(out)
    assert col is not None
    assert verify_dicolouring(out.digraph, col, 2)
    assert phi.evaluate(decode_assignment(out, col))
    assert verify_equivalence(out)


def test_oriented_gadget_is_built_once(count_calls):
    # built and verified on first use, then shared by every call
    default_gadgets.cache_clear()
    calls = count_calls(reductions, "is_dicritical")
    outs = [reduce_oriented(phi) for phi in (claw(), two_clause(), claw())]
    assert calls["is_dicritical"] == 1
    assert all(out.gadget is default_gadgets()[1] for out in outs)
    # each gadget lists its arcs once, for every copy spliced from it
    assert all(g.arcs == tuple(g.digraph.arcs()) for g in (DIGON, *default_gadgets()))


def test_oriented_planar_mode():
    phi = claw()
    out = reduce_oriented(phi, embedding=single_face_embedding(phi))
    assert out.mode == "oriented-planar"
    assert is_oriented(out.digraph)
    assert verify_equivalence(out)


def test_oriented_alternate_arc_choice():
    # reduce_oriented fixes the seed's least arc; the compilation stays
    # sound with the gadget from another arc
    g3 = default_g3()
    neq = make_neq_gadget(make_eq_gadget(g3, max(g3.arcs())))
    out = _compile(claw(), None, neq)
    assert out.gadget is neq and is_oriented(out.digraph)
    assert verify_equivalence(out)


def test_every_output_is_its_skeleton_plus_one_gadget_copy_per_link(count_calls):
    # the digon compilation is the skeleton of both compilations: its
    # vertices and roles come first, and every later vertex is interior to
    # exactly one gadget copy; solving decides the carried skeleton
    rng = random.Random(3030)
    cases = [(claw(), single_face_embedding(claw())),
             (two_clause(), two_clause_embedding())]
    for _ in range(12):
        nv = rng.randint(1, 5)
        clauses = tuple(
            tuple(rng.randint(1, nv) * rng.choice((1, -1)) for _ in range(3))
            for _ in range(rng.randint(1, 5))
        )
        cases.append((CnfFormula(nv, clauses), None))
    calls = count_calls(reductions, "_compile")
    for phi, emb in cases:
        digon, out = reduce_digon(phi, emb), reduce_oriented(phi, emb)
        assert digon.skeleton == digon.digraph
        assert out.skeleton == digon.digraph
        assert out.roles == digon.roles
        g = out.gadget
        interior = sorted(v for copy in out.gadget_copies
                          for t, v in enumerate(copy) if t not in (g.u, g.w))
        assert interior == list(range(out.skeleton.n, out.digraph.n))
        made = calls["_compile"]
        assert verify_equivalence(out)
        assert calls["_compile"] == made


def test_empty_formula_compiles():
    phi = CnfFormula(num_vars=2, clauses=())
    out = reduce_digon(phi)
    assert out.digraph.n == 3  # two variables and the hub
    assert out.digraph.m == 0
    col = solve_reduction(out)
    assert col is not None
    assert decode_assignment(out, col) == [True, True]
    assert verify_equivalence(out)


def test_oversized_formula_rejected_before_compiling(monkeypatch):
    # the output's order is counted from the formula, so one whose output
    # would pass MAX_VERTICES fails before any role or digraph is built: on
    # three variables, an all-positive clause takes ten roles, so 409 fill
    # 4,094 vertices and 410 are refused; 584 make 5,844 (89,940 with the
    # oriented gadget), though seven per clause would count only 4,091
    gadgets = (DIGON, default_gadgets()[1])
    assert _compile(CnfFormula(3, ((1, 2, 3),) * 409), None, DIGON).digraph.n == 4094

    def unreachable(n, arcs):
        raise AssertionError("Digraph.from_arcs reached")

    monkeypatch.setattr(Digraph, "from_arcs", staticmethod(unreachable))
    too_many_vars = CnfFormula(num_vars=MAX_VERTICES + 1, clauses=())
    for phi in (too_many_vars, *(CnfFormula(3, ((1, 2, 3),) * m) for m in (410, 584))):
        for gadget in gadgets:
            with pytest.raises(ValueError, match="MAX_VERTICES"):
                _compile(phi, None, gadget)


def test_reduction_output_json():
    out = reduce_digon(claw())
    blob = out.to_json()
    assert blob["mode"] == "digon-hub"
    assert blob["n"] == out.digraph.n
    assert blob["m"] == out.digraph.m
    assert blob["roles"]["hub"] == out.roles["hub"]


def test_invalid_embedding_rejected_at_compile_time():
    phi = claw()
    walk = single_face_embedding(phi).faces[0]
    bad = PlanarIncidenceEmbedding(faces=(walk, walk))
    with pytest.raises(ValueError):
        reduce_digon(phi, bad)
