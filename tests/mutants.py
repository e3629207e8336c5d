"""Named mutants of the package: faults the tests were seen to catch, each
the exact text it replaces in one file under src/dichroma, its
replacement, and the node ids of tests that fail once it is applied.

Each entry was applied to a copy of src/, tests/, bench/ and
pyproject.toml and its tests run there; every test named failed.  A mutant that the suite
cannot tell from the real code is listed in EQUIVALENT instead, with the
reason.  test_source.py::test_mutants_name_live_code checks that each old
text occurs exactly once in its file, so a change that rewrites the code
must rewrite its mutant too instead of silently dropping it.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/dichroma
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, relative to the repository root


_SOLVER = "tests/test_solver.py::"
_ENUM = "tests/test_enumeration.py::"
_CANON = "tests/test_canon.py::"
_FORMATS = "tests/test_formats.py::"

# the three canon tests that pin the refinement's pair path
_REFINE_KILLS = (
    _CANON + "test_certificate_bytes_are_frozen",
    _CANON + "test_refine_matches_whole_partition_refinement",
    _CANON + "test_out_counts_alone_refine_tournaments_and_graphs",
)

# the tests that compare the tournament bound's cover with its references
_COVER_KILLS = (
    _SOLVER + "test_uncovered_matches_the_walk_over_every_colouring",
    _SOLVER + "test_bound_chunk_matches_per_mask_loop",
    _SOLVER + "test_hard_classes_are_the_classes_that_fail",
)

MUTANTS = (
    # -- stored checkpoint records are read for what they claim
    Mutant(
        "bound-read-trusts-a-colourable-counterexample",
        "enumeration.py",
        "        if cex.n != n or not is_tournament(cex) or is_k_dicolourable(cex, k) is not None:",
        "        if cex.n != n or not is_tournament(cex):",
        (_ENUM + "test_malformed_checkpoint_records_are_refused[bound-records26]",),
    ),
    Mutant(
        "census-read-compares-arc-counts-only",
        "enumeration.py",
        "        if not is_oriented(d) or canonical_cert(bidirect(d)) != cert:",
        "        if not is_oriented(d) or 2 * d.m != d6_decode(g6).m:",
        (_ENUM + "test_malformed_checkpoint_records_are_refused[census-records24]",),
    ),
    Mutant(
        "census-read-takes-a-negative-count",
        "enumeration.py",
        "    if count < 0:",
        "    if False:",
        (_ENUM + "test_malformed_checkpoint_records_are_refused[census-records27]",),
    ),
    # -- generation admits the masks its rule keeps
    Mutant(
        "admitted-masks-drop-a-forced-vertex",
        "enumeration.py",
        "        masks = (forced | sub for sub in _submasks((1 << t) - 1 ^ forced))",
        "        masks = (forced & forced - 1 | sub for sub in _submasks((1 << t) - 1 ^ forced))",
        (
            _ENUM + "test_gen_graphs_matches_bruteforce_with_floor",
            _ENUM + "test_gen_graphs_complement_crosscheck",
            _ENUM + "test_generated_representatives_are_frozen",
        ),
    ),
    # -- canon's pair path splits a two-vertex cell as the buckets would
    Mutant(
        "refine-pair-path-without-in-counts",
        "canon.py",
        "                    if ca == cb and in_rows is not None:",
        "                    if False:",
        _REFINE_KILLS,
    ),
    Mutant(
        "refine-pair-path-reversed",
        "canon.py",
        "                        if cb < ca:",
        "                        if ca < cb:",
        _REFINE_KILLS,
    ),
    Mutant(
        "refine-pair-path-reads-the-first-fresh-mask-only",
        "canon.py",
        "                for mk in fresh:\n                    ca, cb =",
        "                for mk in fresh[:1]:\n                    ca, cb =",
        _REFINE_KILLS,
    ),
    # -- the level certifier's in-rows
    Mutant(
        "level-certifier-in-row-and",
        "canon.py",
        "            irows.append(e ^ r)",
        "            irows.append(e & r)",
        (_ENUM + "test_mixed_cert_matches_digraph_cert",),
    ),
    # -- the in-rows the census stream derives from g's prefix
    Mutant(
        "stream-candidate-in-rows-from-the-parent-state",
        "enumeration.py",
        "map(xor, gpre, child)",
        "map(xor, gpre, rows)",
        (
            _ENUM + "test_census_task_matches_unfiltered_stream",
            _ENUM + "test_census_stream_and_generation_find_one_set_of_hard_tournaments",
            _ENUM + "test_stream_passes_each_candidate_its_own_solver_order",
            _ENUM + "test_mixed_cert_matches_digraph_cert",
        ),
    ),
    Mutant(
        "final-level-in-row-or",
        "enumeration.py",
        "_settles(pool, base, back ^ mask, t)",
        "_settles(pool, base, back | mask, t)",
        (_ENUM + "test_census_task_matches_unfiltered_stream",),
    ),
    Mutant(
        "middle-level-in-row-or",
        "enumeration.py",
        "_extend(pool, base, back ^ mask, t)",
        "_extend(pool, base, back | mask, t)",
        (_ENUM + "test_census_task_matches_unfiltered_stream",),
    ),
    Mutant(
        "digraph-drops-the-in-rows-it-is-handed",
        "digraphs.py",
        "        self._irows = None if irows is None else tuple(irows)",
        "        self._irows = None",
        (_ENUM + "test_stream_passes_each_candidate_its_own_solver_order",),
    ),
    # -- the tournament bound's cover
    Mutant(
        "cover-without-the-whole-class-suffix",
        "solver.py",
        "    for v in sorted(iter_bits(cmask), key=lambda v: (rows[v] & cmask).bit_count()):",
        "    for v in sorted(iter_bits(cmask), key=lambda v: (rows[v] & cmask).bit_count())[:-1]:",
        _COVER_KILLS,
    ),
    Mutant(
        "cover-without-the-empty-suffix",
        "solver.py",
        "    cover, sigma = z, 0",
        "    cover, sigma = 0, 0",
        _COVER_KILLS,
    ),
    Mutant(
        "cover-z-over-the-class",
        "solver.py",
        "    for b in iter_bits((1 << n) - 1 & ~cmask):",
        "    for b in iter_bits(cmask):",
        _COVER_KILLS,
    ),
    # -- digraph6 decoding
    Mutant(
        "d6-decode-rows-reversed",
        "formats.py",
        "        r = z >> u * n & full",
        "        r = z >> (n - 1 - u) * n & full",
        (
            _FORMATS + "test_triangle_frozen_encoding",
            _FORMATS + "test_d6_round_trip",
            _FORMATS + "test_d6_decode_matches_bit_by_bit_reference",
        ),
    ),
    Mutant(
        "d6-decode-without-the-self-loop-test",
        "formats.py",
        "        if r >> u & 1:",
        "        if False:",
        (
            _FORMATS + "test_d6_decode_errors[&@_-self-loop]",
            _FORMATS + "test_d6_decode_matches_bit_by_bit_reference",
        ),
    ),
    # -- the independent check of a dicolouring
    Mutant(
        "verify-dicolouring-stops-at-the-first-class",
        "certify.py",
        "        if not _mask_acyclic(rows, irows, m):\n            return False\n    return True",
        "        return _mask_acyclic(rows, irows, m)\n    return True",
        (
            _SOLVER + "test_verify_dicolouring_matches_its_definition",
            _SOLVER + "test_enumerate_dicolourings_matches_bruteforce_count",
        ),
    ),
    # -- the colouring search and the census pool
    Mutant(
        "search-in-the-order-0-to-n",
        "solver.py",
        "    return next(_static_colourings(d.rows, d.in_rows, d.n, k, _creates_cycle, seq), None)",
        "    return next(_static_colourings(d.rows, d.in_rows, d.n, k, _creates_cycle), None)",
        (
            _SOLVER + "test_search_in_place_matches_the_relabelled_search",
            _SOLVER + "test_colourings_are_frozen",
            _SOLVER + "test_skeleton_colourings_are_frozen",
            _ENUM + "test_census_task_matches_unfiltered_stream",
        ),
    ),
    Mutant(
        "search-ignores-the-order-it-is-handed",
        "solver.py",
        "    elif seq is None:\n        seq = _saturation_order(d)",
        "    else:\n        seq = _saturation_order(d)",
        (_SOLVER + "test_search_in_place_matches_the_relabelled_search",),
    ),
    Mutant(
        "walk-counts-a-used-colour-as-new",
        "solver.py",
        "                used = before[v] + (c > before[v])",
        "                used = before[v] + (c >= before[v])",
        (
            _SOLVER + "test_static_colourings_are_the_distinct_partitions",
            _SOLVER + "test_static_colourings_edge_cases",
            _SOLVER + "test_colourings_are_frozen",
        ),
    ),
    Mutant(
        "extend-slot-off-by-one",
        "enumeration.py",
        "                return classes, c\n",
        "                return classes, (c + 1) % len(classes)\n",
        (
            _ENUM + "test_pool_answers_are_dicolourings",
            _ENUM + "test_census_task_matches_unfiltered_stream",
        ),
    ),
)

EQUIVALENT = (
    # canon._round ordering ties by descending vertex passes every test:
    # _level_certifier keeps only the least encoding, which no order
    # inside a cell moves
    Mutant(
        "round-ties-by-descending-vertex",
        "canon.py",
        "    pairs.sort()",
        "    pairs.sort(key=lambda p: (p[0], -p[1]))",
        (),
    ),
)
