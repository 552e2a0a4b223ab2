"""The JSON artifact's text, written from and read into packed vertices.

An artifact is ``json.dumps(doc, indent=2) + "\n"`` for a document whose
``vertices`` member lists the vertices of a packed sequence
(``bp_graph.pack``: 8 signed bytes a vertex).  :func:`render` writes that
text in pieces, the vertex block straight from the packed bytes with
translate tables, at most :data:`RENDER_CHUNK` vertices a piece.
:func:`read_packed` reads a file in exactly that layout back into the
packed form and proves the layout by rendering what it parsed and
comparing, piece by piece; it declines every other file.

The CLI imports this module when a command writes or reads an artifact, so
importing ``burntpancake.cli`` for another command does not load it.
"""

from __future__ import annotations

import json

from . import bp_graph
from .signed_perm import int_symbols

# The vertex block's text, rendered from and parsed into a packed sequence.
# Render: a record of fixed width per vertex has a sign and a digit slot for
# each symbol; ``_SIGN`` gives "-" for -9..-1 and a NUL, deleted afterwards,
# for 0..9, and ``_DIGIT`` the digit of |x|, or 0xff outside -9..9.  Parse:
# each symbol is a separator ("," or "-") and a digit, ``_DIGIT_VALUE`` and
# ``_MINUS`` read the two, and ``_SIGNED`` turns 16 + d into the byte of -d.
RENDER_CHUNK = 1 << 12
_SIGN = bytes(247) + b"-" * 9
_DIGIT = b"0123456789" + b"\xff" * 237 + b"987654321"
_DIGIT_VALUE = bytes.maketrans(b"0123456789", bytes(range(10)))
_MINUS = bytes.maketrans(b"-,", b"\x10\x00")
_SIGNED = bytes.maketrans(bytes(range(16, 26)), bytes([0, *range(255, 246, -1)]))
_VERTICES = b',\n  "vertices": '
_TRACE = b'\n  ],\n  "trace": '


def vertex_block(n: int, packed: bytes):
    """The pieces of the vertex block that ``json.dumps(doc, indent=2)``
    writes for a nonempty packed sequence of symbols in -9..9 (ValueError
    otherwise), at most :data:`RENDER_CHUNK` vertices a piece."""
    width = bp_graph.PACKED_WIDTH
    lines = b"".join(b"      \0\0" + (b",\n" if j < n - 1 else b"\n") for j in range(n))
    record = b"    [\n" + lines + b"    ],\n"
    size = len(record)
    count = len(packed) // width
    for start in range(0, count, RENDER_CHUNK):
        stop = min(start + RENDER_CHUNK, count)
        text = bytearray(record * (stop - start))
        for j in range(n):
            column = packed[start * width + j : stop * width : width]
            text[12 + 10 * j :: size] = column.translate(_SIGN)
            text[13 + 10 * j :: size] = column.translate(_DIGIT)
        if 0xFF in text:
            raise ValueError("a symbol outside -9..9")
        if not start:
            text[:0] = b"[\n"
        if stop == count:
            text[-2:] = b"\n  ]"
        yield text.translate(None, b"\0")


def render(doc: dict, n: int, packed: bytes):
    """The pieces of ``json.dumps(doc, indent=2) + "\n"``, encoded, where the
    value of ``doc["vertices"]`` is the vertex list of ``packed``: the other
    members go through ``json.dumps``, indented one level as the encoder
    nests them."""
    members = [f"  {json.dumps(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ") for key, value in doc.items()]
    at = list(doc).index("vertices")
    yield ("{\n" + "".join(m + ",\n" for m in members[:at]) + '  "vertices": ').encode()
    yield from vertex_block(n, packed)
    yield ("".join(",\n" + m for m in members[at + 1 :]) + "\n}\n").encode()


def _parse_vertex_block(data: bytes, start: int, stop: int, n: int) -> bytes | None:
    """The packed sequence that ``data[start:stop]``, the records between
    the block's brackets, would hold in the writer's layout, read a window
    of whole records at a time (128 bytes a vertex of a render chunk, more
    than any record takes); None where it cannot.  Any text may come out
    as some sequence: only rendering it back proves the layout."""
    width = bp_graph.PACKED_WIDTH
    parts = []
    pos = start
    while pos < stop:
        cut = data.rfind(b"]", pos, min(pos + (RENDER_CHUNK << 7), stop)) + 1
        if cut <= pos:
            return None
        tokens = data[pos:cut].translate(None, b" \n[]")
        pos = cut
        if tokens[:1] != b",":
            tokens = b"," + tokens
        tokens = tokens.replace(b",-", b"-")
        signs, digits = tokens[0::2], tokens[1::2]
        if len(signs) != len(digits) or len(digits) % n or signs.translate(None, b",-") or digits.translate(None, b"0123456789"):
            return None
        magnitude = int.from_bytes(digits.translate(_DIGIT_VALUE), "big")
        minus = int.from_bytes(signs.translate(_MINUS), "big")
        symbols = (magnitude | minus).to_bytes(len(digits), "big").translate(_SIGNED)
        records = bytearray(len(symbols) // n * width)
        for j in range(n):
            records[j::width] = symbols[j::n]
        parts.append(records)
    return b"".join(parts)


def read_packed(path: str):
    """(kind, n, packed vertices, [source, target] or []) for an artifact
    file that is exactly what :func:`render` writes, else None: the caller
    then reads the file with ``json.load``.

    The members around the vertex block are read with ``json.loads``, the
    block with :func:`_parse_vertex_block`; the candidate is then rendered
    by :func:`render`, and the file must equal it piece by piece.  So a
    file read here holds exactly the values that ``json.load`` would give.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        at = data.find(_VERTICES)
        stop = data.rfind(_TRACE)
        if not 0 <= at < stop:
            return None
        head = json.loads(data[:at] + b"}")
        tail = json.loads(b"{" + data[stop + 5 :])
        kind, n = head.get("kind"), head.get("n")
        ends = [tail.get("source"), tail.get("target")] if kind == "path" else []
        if (
            list(head) != ["kind", "n"]
            or kind not in ("cycle", "path")
            or type(n) is not int
            or not 1 <= n <= bp_graph.PACKED_WIDTH
            or list(tail) != ["trace", "source", "target"][: 3 if ends else 1]
            or not all(type(end) is list and int_symbols([end]) for end in ends)
        ):
            return None
        packed = _parse_vertex_block(data, at + len(_VERTICES) + 2, stop, n)
        if not packed:
            return None
        pos = 0
        for piece in render({**head, "vertices": None, **tail}, n, packed):
            if not data.startswith(piece, pos):
                return None
            pos += len(piece)
        if pos != len(data):
            return None
    except (OSError, ValueError, RecursionError):
        return None
    return kind, n, packed, ends
