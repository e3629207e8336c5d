"""Digraph file formats: digraph6 and plain arc lists.

digraph6: header character '&', then chr(n+63) for n <= 62, then the n*n
row-major adjacency bits (bit i*n+j = 1 iff arc i->j) packed big-endian into
6-bit groups, each emitted as chr(group+63), zero-padded.

Arc list: first line "n m", then m lines "u v" (0-indexed, arc u->v).

Run checkpoints are JSON lines: a header naming the run, then one record
per finished task.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator, TextIO

from .digraphs import Digraph

D6_MAX = 62


def d6_encode(d: Digraph) -> str:
    if d.n > D6_MAX:
        raise ValueError(f"digraph6 short form limited to n <= {D6_MAX}")
    n = d.n
    bits = []
    for u in range(n):
        row = d.rows[u]
        bits.extend((row >> v) & 1 for v in range(n))
    while len(bits) % 6:
        bits.append(0)
    chars = ["&", chr(n + 63)]
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = group << 1 | b
        chars.append(chr(group + 63))
    return "".join(chars)


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
    bits = []
    for ch in body:
        x = ord(ch) - 63
        if not 0 <= x < 64:
            raise ValueError(f"bad digraph6 character {ch!r}")
        bits.extend((x >> (5 - i)) & 1 for i in range(6))
    rows = [0] * n
    for u in range(n):
        r = 0
        for v in range(n):
            if bits[u * n + v]:
                if u == v:
                    raise ValueError("digraph6 input encodes a self-loop")
                r |= 1 << v
        rows[u] = r
    return Digraph(n, rows)


def arclist_encode(d: Digraph) -> str:
    lines = [f"{d.n} {d.m}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


def arclist_decode(text: str) -> Digraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty arc-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"arc-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"arc-list header must be 'n m', got {lines[0]!r}")
    if len(lines) - 1 != m:
        raise ValueError(f"arc-list declares {m} arcs but has {len(lines) - 1}")
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad arc line {ln!r}")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"bad arc line {ln!r}")
    return Digraph.from_arcs(n, arcs)


def load_digraph(text: str, fmt: str | None = None) -> Digraph:
    """Parse digraph6 or arc-list text; sniff by the '&' header when fmt is None."""
    if fmt is None:
        stripped = text.lstrip()
        fmt = "d6" if stripped.startswith("&") else "arclist"
    if fmt == "d6":
        return d6_decode(text)
    if fmt == "arclist":
        return arclist_decode(text)
    raise ValueError(f"unknown digraph format {fmt!r}")


def dump_digraph(d: Digraph, fmt: str | None = None) -> str:
    """Serialize, preferring digraph6 when it fits."""
    if fmt is None:
        fmt = "d6" if d.n <= D6_MAX else "arclist"
    if fmt == "d6":
        return d6_encode(d)
    if fmt == "arclist":
        return arclist_encode(d)
    raise ValueError(f"unknown digraph format {fmt!r}")


def open_checkpoint(path: str, header: dict) -> tuple[list[dict], TextIO]:
    """The records of a run checkpoint, and the file opened for appending.

    A checkpoint whose header differs belongs to another run and raises
    ValueError.  A kill mid-write leaves a torn last line (no newline, or
    not JSON); it is dropped and cut off the file before anything is
    appended.  A missing or empty file starts with the header.
    """
    lines: list[dict] = []
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
                    lines.append(json.loads(raw))
                except ValueError:
                    if i < last:
                        raise ValueError(f"checkpoint {path}: line {i + 1} is not JSON")
                    break
            intact += len(raw) + 1
    if lines and lines[0] != header:
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
    key: str,
    header: dict,
    checkpoint: str | None,
    jobs: int,
) -> Iterator[dict]:
    """Yield the record fn(task) of every task, resuming from a checkpoint.

    A task's first item names it, and its record holds that name under
    key.  The records a checkpoint already holds (see open_checkpoint) come
    first, in file order, and their tasks are skipped; the rest run in task
    order, in a process pool when jobs > 1, and each new record is appended
    and flushed before it is yielded.  A caller that stops early just leaves
    its loop: closing the generator cancels the tasks not yet started and
    closes the file.
    """
    records, ck = open_checkpoint(checkpoint, header) if checkpoint else ([], None)
    pool = None
    try:
        yield from records
        done = {rec[key] for rec in records}
        todo = [t for t in tasks if t[0] not in done]
        if jobs > 1 and todo:
            # imported here: serial runs never pay for the pool machinery
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=jobs)
        for rec in pool.map(fn, todo) if pool else map(fn, todo):
            if ck:
                ck.write(json.dumps(rec) + "\n")
                ck.flush()
            yield rec
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        if ck:
            ck.close()
