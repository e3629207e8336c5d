import random

import pytest

from dichroma.digraphs import Digraph
from dichroma.formats import (
    D6_MAX,
    arclist_decode,
    arclist_encode,
    d6_decode,
    d6_encode,
    dump_digraph,
    load_digraph,
    open_checkpoint,
)


def test_triangle_frozen_encoding():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert d6_encode(tri) == "&BP_"
    assert d6_decode("&BP_") == tri


def test_d6_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 20)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.3
        ]
        d = Digraph.from_arcs(n, arcs)
        assert d6_decode(d6_encode(d)) == d


def test_d6_size_cap():
    big = Digraph(D6_MAX + 1, [0] * (D6_MAX + 1))
    with pytest.raises(ValueError):
        d6_encode(big)
    assert d6_encode(Digraph(D6_MAX, [0] * D6_MAX))


def test_d6_rejects_garbage():
    with pytest.raises(ValueError):
        d6_decode("BP_")  # missing header
    with pytest.raises(ValueError):
        d6_decode("&B~~~~~")


def test_arclist_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 80)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.05
        ]
        d = Digraph.from_arcs(n, arcs)
        assert arclist_decode(arclist_encode(d)) == d


def test_arclist_errors():
    with pytest.raises(ValueError):
        arclist_decode("")
    with pytest.raises(ValueError):
        arclist_decode("3\n0 1\n")
    with pytest.raises(ValueError):
        arclist_decode("3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValueError):
        arclist_decode("3 1\n0 x\n")


def test_load_sniffs_format():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert load_digraph("&BP_") == tri
    assert load_digraph("3 3\n0 1\n1 2\n2 0\n") == tri
    assert load_digraph(arclist_encode(tri), "arclist") == tri
    with pytest.raises(ValueError):
        load_digraph("&BP_", "nonsense")


def test_dump_prefers_d6_when_it_fits():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert dump_digraph(tri).startswith("&")
    big = Digraph(D6_MAX + 1, [0] * (D6_MAX + 1))
    assert dump_digraph(big).startswith(f"{D6_MAX + 1} 0")


def test_census_witness_decodes():
    d = d6_decode("&FKD`qUFHw?")
    assert d.n == 7 and d.m == 20


def test_open_checkpoint_drops_torn_tail(tmp_path):
    header = {"kind": "test", "n": 1}
    ck = tmp_path / "run.ckpt"
    records, fh = open_checkpoint(str(ck), header)
    with fh:
        fh.write('{"task": 1}\n')
    assert records == []
    good = ck.read_bytes()
    for tail in (b'{"task": 2', b'{"task": 2, "x"\n', b'\xff\xfe'):
        ck.write_bytes(good + tail)
        records, fh = open_checkpoint(str(ck), header)
        fh.close()
        assert records == [{"task": 1}]
        assert ck.read_bytes() == good

    # a bad line before the last is corruption, not a torn write
    ck.write_bytes(good + b"garbage\n" + b'{"task": 2}\n')
    with pytest.raises(ValueError):
        open_checkpoint(str(ck), header)

    # another run's checkpoint is refused and left as it is
    ck.write_bytes(good + b'{"task": 2')
    with pytest.raises(ValueError):
        open_checkpoint(str(ck), {"kind": "other"})
    assert ck.read_bytes() == good + b'{"task": 2'

    # a torn header starts the file afresh
    ck.write_bytes(good[:5])
    records, fh = open_checkpoint(str(ck), header)
    fh.close()
    assert records == []
    assert ck.read_bytes() == good.split(b"\n")[0] + b"\n"
