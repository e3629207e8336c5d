import itertools

import pytest

from dichroma.digraphs import build_digraph, is_oriented
from dichroma.reductions import (
    CnfFormula,
    PlanarIncidenceEmbedding,
    decode_assignment,
    default_g3,
    make_eq_gadget,
    make_neq_gadget,
    reduce_digon,
    reduce_oriented,
    single_face_embedding,
    solve_reduction,
    verify_equivalence,
)
from dichroma.solver import enumerate_dicolourings, verify_dicolouring


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
        clause_faces=((0, 1, 2), (0, 1, 2)),
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
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 3 1\n1 2 3\n")  # missing terminator
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 3 2\n1 2 3 0\n")  # count mismatch
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs("p cnf 2 1\n1 2 3 0\n")  # literal range


# -- embeddings -------------------------------------------------------------


def test_single_face_embedding_validates():
    phi = claw()
    emb = single_face_embedding(phi)
    emb.validate(phi)
    again = PlanarIncidenceEmbedding.from_json(emb.to_json())
    assert again == emb
    with pytest.raises(ValueError):
        single_face_embedding(two_clause())


def test_two_clause_embedding_validates():
    two_clause_embedding().validate(two_clause())


def test_embedding_rejects_wrong_face_count():
    phi = claw()
    walk = single_face_embedding(phi).faces[0]
    bad = PlanarIncidenceEmbedding(
        faces=(walk, walk), clause_faces=((0, 0, 0),)
    )
    with pytest.raises(ValueError, match="Euler"):
        bad.validate(phi)


def test_embedding_rejects_bad_edge_coverage():
    phi = claw()
    bad = PlanarIncidenceEmbedding(
        faces=(("v1", "c0", "v2", "c0", "v1", "c0"),),
        clause_faces=((0, 0, 0),),
    )
    with pytest.raises(ValueError, match="two face sides"):
        bad.validate(phi)


def test_embedding_rejects_nonedges_and_unknown_vertices():
    phi = claw()
    with pytest.raises(ValueError, match="unknown vertex"):
        PlanarIncidenceEmbedding(
            faces=(("c9", "v1", "c0", "v2", "c0", "v3"),),
            clause_faces=((0, 0, 0),),
        ).validate(phi)
    with pytest.raises(ValueError, match="non-edge"):
        PlanarIncidenceEmbedding(
            faces=(("v1", "v2", "c0", "v2", "v1", "c0"),),
            clause_faces=((0, 0, 0),),
        ).validate(phi)


def test_embedding_rejects_disconnected_incidence_graph():
    phi = CnfFormula(num_vars=6, clauses=((1, 2, 3), (4, 5, 6)))
    w0 = ("v1", "c0", "v2", "c0", "v3", "c0")
    w1 = ("v4", "c1", "v5", "c1", "v6", "c1")
    bad = PlanarIncidenceEmbedding(
        faces=(w0, w1), clause_faces=((0, 0, 0), (1, 1, 1))
    )
    with pytest.raises(ValueError, match="not connected"):
        bad.validate(phi)


def test_embedding_rejects_repeated_variable():
    phi = CnfFormula(num_vars=2, clauses=((1, 1, 2),))
    emb = PlanarIncidenceEmbedding(
        faces=(("v1", "c0", "v1", "c0", "v2", "c0"),),
        clause_faces=((0, 0, 0),),
    )
    with pytest.raises(ValueError, match="repeats a variable"):
        emb.validate(phi)


def test_embedding_rejects_bad_clause_face_data():
    phi = two_clause()
    faces = two_clause_embedding().faces
    with pytest.raises(ValueError, match="out of range"):
        PlanarIncidenceEmbedding(
            faces=faces, clause_faces=((0, 1, 5), (0, 1, 2))
        ).validate(phi)
    with pytest.raises(ValueError, match="does not pass through"):
        PlanarIncidenceEmbedding(
            faces=faces, clause_faces=((0, 0, 0), (0, 1, 2))
        ).validate(phi)


# -- gadgets ----------------------------------------------------------------


def test_eq_gadget_forces_equal_endpoints():
    g3 = default_g3()
    arc = min(g3.arcs())
    eq = make_eq_gadget(g3, arc)
    assert eq.digraph.m == g3.m - 1
    seen = set()
    for col in enumerate_dicolourings(eq.digraph, 2):
        assert col[eq.u] == col[eq.v]
        seen.add(col[eq.u])
    assert seen == {1, 2}


def test_eq_gadget_errors():
    triangle = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
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


# -- compiled instances -----------------------------------------------------


def test_digon_hub_satisfiable_clause():
    phi = claw()
    out = reduce_digon(phi)
    assert out.mode == "digon-hub"
    # 3 variables, hub, 6-cycle, t, one bar per positive literal
    assert out.digraph.n == 3 + 1 + 6 + 1 + 3
    col = solve_reduction(out)
    assert col is not None
    assert verify_dicolouring(out.digraph, col, 2)
    assert phi.evaluate(decode_assignment(out, col))
    assert verify_equivalence(phi, out)


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
    assert verify_equivalence(phi, out)


def test_digon_planar_agrees_with_hub():
    phi = claw()
    planar = reduce_digon(phi, single_face_embedding(phi))
    assert planar.mode == "digon-planar"
    assert verify_equivalence(phi, planar)

    phi2 = two_clause()
    planar2 = reduce_digon(phi2, two_clause_embedding())
    hub2 = reduce_digon(phi2)
    assert (solve_reduction(planar2) is None) == (
        solve_reduction(hub2) is None
    )
    assert verify_equivalence(phi2, planar2)
    assert verify_equivalence(phi2, hub2)


def test_repeated_variable_clause_in_hub_mode():
    phi = CnfFormula(num_vars=1, clauses=((1, 1, 1), (-1, -1, -1)))
    out = reduce_digon(phi)
    assert solve_reduction(out) is None
    assert verify_equivalence(phi, out)


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
    assert verify_equivalence(phi, out)


def test_oriented_unsatisfiable_formula():
    phi = CnfFormula(num_vars=1, clauses=((1, 1, 1), (-1, -1, -1)))
    out = reduce_oriented(phi)
    assert is_oriented(out.digraph)
    assert solve_reduction(out) is None
    assert verify_equivalence(phi, out)


def test_oriented_planar_mode():
    phi = claw()
    out = reduce_oriented(phi, embedding=single_face_embedding(phi))
    assert out.mode == "oriented-planar"
    assert is_oriented(out.digraph)
    assert verify_equivalence(phi, out)


def test_oriented_alternate_arc_choice():
    g3 = default_g3()
    arc = max(g3.arcs())
    out = reduce_oriented(claw(), g3=g3, arc=arc)
    assert verify_equivalence(claw(), out)


def test_empty_formula_compiles():
    phi = CnfFormula(num_vars=2, clauses=())
    out = reduce_digon(phi)
    assert out.digraph.n == 3  # two variables and the hub
    assert out.digraph.m == 0
    col = solve_reduction(out)
    assert col is not None
    assert decode_assignment(out, col) == [True, True]
    assert verify_equivalence(phi, out)


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
    bad = PlanarIncidenceEmbedding(faces=(walk, walk), clause_faces=((0, 0, 0),))
    with pytest.raises(ValueError):
        reduce_digon(phi, bad)
