"""Digraph file formats: digraph6 and plain arc lists.

digraph6: header character '&', then chr(n+63) for n <= 62, then the n*n
row-major adjacency bits (bit i*n+j = 1 iff arc i->j) packed big-endian into
6-bit groups, each emitted as chr(group+63), zero-padded.  Non-zero
padding is rejected, so each digraph has exactly one string.

Arc list: first line "n m", then m lines "u v" (0-indexed, arc u->v).

load_digraph tells the two apart by the leading '&' (after whitespace),
which digraph6 text always has and arc-list text never does, so sniffing
reads any text in either format as that format would.

Run checkpoints are JSON lines: a header naming the run, then one record
per finished task.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator, TextIO

from .digraphs import Digraph

D6_MAX = 62


def excerpt(text: str) -> str:
    """The text quoted for an error message: its first 20 characters, then
    '...' when there are more, so a huge input prints a short line."""
    return f"{text[:20]!r}..." if len(text) > 20 else repr(text)


def read_int(text: str, negative: bool = False) -> int:
    """The one reader of integer text: ASCII digits, after a leading '-'
    only where negative is true and only before a nonzero value, else
    ValueError quoting the text's excerpt (int() also reads '+3', '1_0',
    '３', '-0'); so is text of more digits than int() reads."""
    digits = text[1:] if negative and text[:1] == "-" else text
    if digits.isascii() and digits.isdigit() and (digits == text or digits.strip("0")):
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError(f"integer of {len(digits)} digits, too long to read: "
                             f"{excerpt(text)}") from None
    raise ValueError(f"not an integer of ASCII digits: {excerpt(text)}")


def read_json(text: str | bytes):
    """The one reader of JSON text: nesting too deep for the parser raises
    ValueError like any other bad JSON, not RecursionError (a RuntimeError)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def d6_encode(d: Digraph) -> str:
    if d.n > D6_MAX:
        raise ValueError(f"digraph6 short form limited to n <= {D6_MAX}")
    n = d.n
    # row-major, bit v of row u at place u*n + v: the string d6_decode reads
    bits = "".join(format(r, f"0{n}b")[::-1] for r in d.rows)
    bits += "0" * (-len(bits) % 6)
    body = (chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))
    return "&" + chr(n + 63) + "".join(body)


def d6_decode(s: str) -> Digraph:
    s = s.strip()
    if not s or s[0] != "&":
        raise ValueError("digraph6 input must start with '&'")
    if len(s) < 2:
        raise ValueError("truncated digraph6 input")
    n = ord(s[1]) - 63
    if not 0 <= n <= D6_MAX:
        raise ValueError(f"bad digraph6 order byte {s[1]!r}")
    need = (n * n + 5) // 6
    body = s[2:]
    if len(body) != need:
        raise ValueError(
            f"digraph6 body length {len(body)}, expected {need} for n={n}"
        )
    x = 0
    for ch in body:
        c = ord(ch) - 63
        if not 0 <= c < 64:
            raise ValueError(f"bad digraph6 character {ch!r}")
        x = x << 6 | c
    pad = 6 * need - n * n
    if x & ((1 << pad) - 1):
        raise ValueError("digraph6 padding bits must be zero")
    # the matrix's bit string, reversed and read as one binary number, has
    # bit u*n + v set iff u -> v, so row u is its u-th n-bit slice
    z = int(format(x >> pad, f"0{n * n}b")[::-1], 2)
    full = (1 << n) - 1
    rows = []
    for u in range(n):
        r = z >> u * n & full
        if r >> u & 1:
            raise ValueError("digraph6 input encodes a self-loop")
        rows.append(r)
    return Digraph(n, rows)


def arclist_encode(d: Digraph) -> str:
    lines = [f"{d.n} {d.m}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


def arclist_decode(text: str) -> Digraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty arc-list input")
    try:  # unpacking other than two fields raises ValueError too
        n, m = map(read_int, lines[0].split())
    except ValueError:
        raise ValueError(f"arc-list header must be 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"arc-list declares {m} arcs but has {len(lines) - 1}")
    arcs = set()
    for ln in lines[1:]:
        try:
            u, v = map(read_int, ln.split())
        except ValueError:
            raise ValueError(f"bad arc line {ln!r}") from None
        if (u, v) in arcs:
            raise ValueError(f"repeated arc line {ln!r}")
        arcs.add((u, v))
    return Digraph.from_arcs(n, arcs)


def load_digraph(text: str) -> Digraph:
    """Parse digraph6 text, which starts with '&', else an arc list."""
    return (d6_decode if text.lstrip().startswith("&") else arclist_decode)(text)


def dump_digraph(d: Digraph, fmt: str | None = None) -> str:
    """Serialize, preferring digraph6 when it fits."""
    if fmt is None:
        fmt = "d6" if d.n <= D6_MAX else "arclist"
    if fmt == "d6":
        return d6_encode(d)
    if fmt == "arclist":
        return arclist_encode(d)
    raise ValueError(f"unknown digraph format {fmt!r}")


def open_checkpoint(path: str, header: dict) -> tuple[list[tuple[int, dict]], TextIO]:
    """The records of a run checkpoint, as (line number, record) pairs, and
    the file opened for appending.

    A checkpoint whose header differs belongs to another run and raises
    ValueError.  A kill mid-write leaves a torn last line (no newline, or
    not JSON); it is dropped and cut off the file before anything is
    appended.  A missing or empty file starts with the header.
    """
    lines: list[tuple[int, dict]] = []
    intact = size = 0  # intact: bytes up to the end of the last good line
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
        size = len(data)
        whole = data.split(b"\n")[:-1]  # the part after the last newline is torn
        last = max((i for i, raw in enumerate(whole) if raw.strip()), default=-1)
        for i, raw in enumerate(whole):
            if raw.strip():
                try:
                    lines.append((i + 1, read_json(raw)))
                except ValueError:
                    if i < last:
                        raise ValueError(f"checkpoint {path}: line {i + 1} is not JSON")
                    break
            intact += len(raw) + 1
    if lines and lines[0][1] != header:
        raise ValueError(f"checkpoint {path} belongs to a different run")
    if intact < size:
        os.truncate(path, intact)
    fh = open(path, "a")
    if not lines:
        fh.write(json.dumps(header) + "\n")
        fh.flush()
    return lines[1:], fh


def checkpointed_map(
    fn: Callable[[tuple], dict],
    tasks: list[tuple],
    read: Callable[[dict], tuple],
    header: dict,
    checkpoint: str | None,
    jobs: int,
) -> Iterator[tuple]:
    """Yield read(fn(task)) for every task, resuming from a checkpoint.

    A task's first item names it; read(record) is what the run uses of a
    record, the task's name first.  The records a checkpoint already holds
    (see open_checkpoint) come first, in file order, and their tasks are
    skipped; a stored record that is not a JSON object, lacks a field read
    takes, has one read refuses (read raises TypeError or ValueError), names
    no task of the run or repeats one raises ValueError naming the file, the
    line and which of these it is (with read's own message), before any
    record is yielded.  The rest run in task order, in a pool of min(jobs,
    tasks left, CPUs) worker processes when that is above 1 (a fork pool
    starts every worker at once), else serially, and each new record is
    appended and flushed before it is yielded.  A caller that stops early
    just leaves its loop: closing the generator cancels the tasks not yet
    started and closes the file.
    """
    records, ck = ([], None) if checkpoint is None else open_checkpoint(checkpoint, header)
    pool = None
    try:
        names = {t[0] for t in tasks}  # the tasks with no record yet
        stored = []
        for line, rec in records:
            where = f"checkpoint {checkpoint}: line {line} "
            if not isinstance(rec, dict):
                raise ValueError(f"{where}is not a JSON object")
            try:
                got = read(rec)
            except KeyError as e:
                raise ValueError(f"{where}lacks field {e.args[0]!r}") from None
            except (TypeError, ValueError) as e:
                raise ValueError(f"{where}is refused: {e}") from None
            if got[0] not in names:
                raise ValueError(
                    f"{where}names a task this run lacks or has already recorded")
            names.remove(got[0])
            stored.append(got)
        yield from stored
        todo = [t for t in tasks if t[0] in names]
        workers = min(jobs, len(todo), os.cpu_count() or 1)
        if workers > 1:
            # imported here: serial runs never pay for the pool machinery
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
        for rec in pool.map(fn, todo) if pool else map(fn, todo):
            if ck:
                ck.write(json.dumps(rec) + "\n")
                ck.flush()
            yield read(rec)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        if ck:
            ck.close()
