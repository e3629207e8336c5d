import re

import pytest
from hypothesis import given, strategies as st

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
    read_int,
    read_json,
)

from bruteforce import brute_d6_decode


def test_triangle_frozen_encoding():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert d6_encode(tri) == "&BP_"
    assert d6_decode("&BP_") == tri


@st.composite
def digraphs(draw, max_n):
    """A digraph on at most max_n vertices, digons allowed: one bit per
    ordered pair of distinct vertices, row u taking n-1 of them."""
    n = draw(st.integers(0, max_n))
    width = n - 1
    bits = draw(st.integers(0, (1 << n * width) - 1)) if n else 0
    rows = []
    for u in range(n):
        chunk = bits >> u * width & ((1 << width) - 1)
        below = (1 << u) - 1
        rows.append(chunk & below | (chunk & ~below) << 1)  # skip bit u
    return Digraph(n, rows)


@given(digraphs(D6_MAX))
def test_d6_round_trip(d):
    assert d6_decode(d6_encode(d)) == d


def test_d6_size_cap():
    big = Digraph(D6_MAX + 1, [0] * (D6_MAX + 1))
    with pytest.raises(ValueError):
        d6_encode(big)
    assert d6_encode(Digraph(D6_MAX, [0] * D6_MAX))


def exactly(message):
    """A pattern that matches the whole message and nothing else."""
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize(
    "text, error",
    [
        ("BP_", "must start with '&'"),
        ("&", "truncated"),
        ("&~", "order byte"),  # n = 63
        ("&BP", "body length"),
        ("&BP\x7f", "character"),
        ("&@_", "self-loop"),  # the one arc of n = 1 is 0 -> 0
        ("&BP`", "padding"),  # "&BP_" with its last padding bit set
        # one case per refusal, each with its whole message
        ("", exactly("digraph6 input must start with '&'")),
        (" & ", exactly("truncated digraph6 input")),
        ("&>", exactly("bad digraph6 order byte '>'")),  # n = -1
        ("&BP_?", exactly("digraph6 body length 3, expected 2 for n=3")),
        ("&B>_", exactly("bad digraph6 character '>'")),  # below '?'
        ("&BP\x7f", exactly("bad digraph6 character '\\x7f'")),  # above '~'
        ("&BP\u00e9", exactly("bad digraph6 character '\u00e9'")),  # one non-ASCII character
        ("&@@", exactly("digraph6 padding bits must be zero")),  # n = 1, a padding bit set
        ("&B_?", exactly("digraph6 input encodes a self-loop")),  # 0 -> 0, first row
        ("&B?G", exactly("digraph6 input encodes a self-loop")),  # 2 -> 2, last row
    ],
)
def test_d6_decode_errors(text, error):
    with pytest.raises(ValueError, match=error):
        d6_decode(text)


@given(digraphs(D6_MAX), st.data())
def test_d6_decode_matches_bit_by_bit_reference(d, data):
    # the decoder against the format read bit by bit: the same digraph for
    # a valid string, and after one character is changed, the same digraph
    # or the same refusal
    text = d6_encode(d)
    assert d6_decode(text) == brute_d6_decode(text) == d
    i = data.draw(st.integers(0, len(text) - 1))
    ch = data.draw(st.one_of(st.characters(min_codepoint=62, max_codepoint=127),
                             st.characters()))
    text = text[:i] + ch + text[i + 1:]
    try:
        want = brute_d6_decode(text)
    except ValueError as e:
        with pytest.raises(ValueError, match=exactly(str(e))):
            d6_decode(text)
    else:
        assert d6_decode(text) == want


def test_d6_empty_digraph():
    assert d6_decode("&?") == Digraph(0, [])
    assert d6_encode(Digraph(0, [])) == "&?"


# past D6_MAX vertices an arc list is the only format dump_digraph writes
@given(digraphs(2 * D6_MAX))
def test_arclist_round_trip(d):
    assert arclist_decode(arclist_encode(d)) == d


def test_read_int():
    assert [read_int(t) for t in ("0", "007", "4096")] == [0, 7, 4096]
    assert [read_int(t, negative=True) for t in ("-12", "0", "12")] == [-12, 0, 12]
    # int() reads all of these; a '-' comes only before a nonzero value
    for text in ("", "-", "+3", "1_0", " 1", "３", "²", "١", "-0", "-00", "--1"):
        for negative in (False, True):
            with pytest.raises(ValueError, match=re.escape(repr(text))):
                read_int(text, negative)
    with pytest.raises(ValueError, match="not an integer of ASCII digits: '-3'"):
        read_int("-3")
    # past int()'s digit limit: the start of the text, not int()'s advice
    with pytest.raises(ValueError) as exc:
        read_int("-1" + "0" * 4400, negative=True)
    prefix = "-1" + "0" * 18
    assert str(exc.value) == f"integer of 4401 digits, too long to read: {prefix!r}..."


def test_read_json():
    assert read_json(b'{"a": [1, 2]}') == read_json('{"a": [1, 2]}') == {"a": [1, 2]}
    # nesting past the parser's depth is bad JSON, not a RecursionError
    for text in ("not json", "[" * 100_000):
        with pytest.raises(ValueError):
            read_json(text)


def test_arclist_errors():
    with pytest.raises(ValueError):
        arclist_decode("")
    with pytest.raises(ValueError):
        arclist_decode("3\n0 1\n")
    with pytest.raises(ValueError):
        arclist_decode("3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValueError):
        arclist_decode("3 1\n0 x\n")
    with pytest.raises(ValueError, match="repeated arc line '0 1'"):
        arclist_decode("2 2\n0 1\n0 1\n")  # Digraph has no parallel arcs
    # integers are ASCII digits: int() also reads '1_0', '+3' and '３'
    six_arcs = "0 1\n1 0\n1 2\n2 1\n0 2\n2 0\n"
    for head in ("3 1_0", "3 +6", "３ 6", "3 -6"):
        with pytest.raises(ValueError, match=re.escape(f"header must be 'n m', got '{head}'")):
            arclist_decode(f"{head}\n{six_arcs}")
    for arc in ("0 1_0", "+0 1", "0 １", "-0 1"):
        with pytest.raises(ValueError, match=re.escape(f"bad arc line '{arc}'")):
            arclist_decode(f"2 1\n{arc}\n")


def test_load_sniffs_format():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert load_digraph("&BP_") == tri
    assert load_digraph("3 3\n0 1\n1 2\n2 0\n") == tri
    assert load_digraph(" \n&BP_\n") == tri
    # text that is neither format fails as an arc list, '&' text as digraph6
    with pytest.raises(ValueError, match="arc-list header"):
        load_digraph("BP_")
    with pytest.raises(ValueError, match="digraph6 body length"):
        load_digraph("&BP")


def test_dump_prefers_d6_when_it_fits():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert dump_digraph(tri).startswith("&")
    big = Digraph(D6_MAX + 1, [0] * (D6_MAX + 1))
    assert dump_digraph(big).startswith(f"{D6_MAX + 1} 0")


def test_open_checkpoint_drops_torn_tail(tmp_path):
    header = {"kind": "test", "n": 1}
    ck = tmp_path / "run.ckpt"
    records, fh = open_checkpoint(str(ck), header)
    with fh:
        fh.write('{"task": 1}\n')
    assert records == []
    good = ck.read_bytes()
    # a line nested past the parser's depth is not JSON either
    deep = b"[" * 100_000 + b"\n"
    for tail in (b'{"task": 2', b'{"task": 2, "x"\n', b'\xff\xfe', deep):
        ck.write_bytes(good + tail)
        records, fh = open_checkpoint(str(ck), header)
        fh.close()
        assert records == [(2, {"task": 1})]
        assert ck.read_bytes() == good

    # a bad line before the last is corruption, not a torn write
    for bad in (b"garbage\n", deep):
        ck.write_bytes(good + bad + b'{"task": 2}\n')
        with pytest.raises(ValueError, match="line 3 is not JSON"):
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
