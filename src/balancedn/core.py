"""Content names, packet types, and the CRC16-mod-N resolver assignment.

The checksum is CRC-16/ARC: width=16, poly=0x8005, init=0, refIn=True,
refOut=True, xorOut=0.  Check value: crc16(b"123456789") == 0xBB3D.
It has two entry points that agree on every input: ``crc16`` hashes one
byte string, and ``crc16_many`` hashes a batch one byte column at a
time (bulk registration, ``parse_names``).  The CRC is linear, so
``crc16_many`` looks each byte up in a table for its distance from the
end of the item and XORs the shares; zero-padding the items on the left
to one width changes no CRC.

A ContentName carries the CRC of its canonical UTF-8 bytes, so a name
is hashed at most once however often it is resolved.  ``parse_names``
is the batch entry point: it hashes CRC_CHUNK texts per ``crc16_many``
call and yields each name with its CRC already filled in.  A name made
one at a time (``parse_name``, ``ContentName(...)``) hashes itself with
``crc16`` on its first ``crc`` read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

def _build_crc_table() -> tuple[int, ...]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0xA001 if crc & 1 else crc >> 1  # 0x8005 bit-reversed
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _build_crc_table()
# the table split into low and high bytes, for bytes.translate
_CRC_LO = bytes(v & 0xFF for v in _CRC_TABLE)
_CRC_HI = bytes(v >> 8 for v in _CRC_TABLE)
# where a CRC's low byte sits in a native-order 16-bit array item
_LO_SLOT = 0 if sys.byteorder == "little" else 1

# names hashed per crc16_many call; a fixed chunk keeps the extra
# memory of a bulk call small however many names it gets
CRC_CHUNK = 4096


def crc16(data: bytes) -> int:
    """Return the CRC-16/ARC checksum of ``data``."""
    crc = 0
    table = _CRC_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


# (low bytes, high bytes) of T_0, T_1, ...; grown by _position_tables
_POSITION_TABLES = [(_CRC_LO, _CRC_HI)]


def _position_tables(width: int) -> list[tuple[bytes, bytes]]:
    """The low- and high-byte halves of T_0 .. T_{width-1} (or more).

    T_d[b] is ``crc16(bytes([b]) + bytes(d))``: byte b's share of a CRC
    when d bytes follow it.  T_0 is ``_CRC_TABLE``, and T_d is T_{d-1}
    run one table step further on a zero byte.  Missing tables are built
    in a longer copy of the list, which then replaces the old one, so a
    concurrent caller never sees a half-built list.
    """
    global _POSITION_TABLES
    tables = _POSITION_TABLES
    if len(tables) < width:
        tables = list(tables)
        while len(tables) < width:
            step = [_CRC_TABLE[low] ^ high for low, high in zip(*tables[-1])]
            tables.append((bytes(v & 0xFF for v in step), bytes(v >> 8 for v in step)))
        _POSITION_TABLES = tables
    return tables


def crc16_many(items: list[bytes]) -> list[int]:
    """Return ``[crc16(x) for x in items]``, one byte column at a time.

    CRC-16/ARC has init 0 and xorout 0, so it is linear: the CRC of x is
    the XOR over positions j of ``T_d[x[j]]``, where d is the number of
    bytes after j (see ``_position_tables``).  Leading zero bytes leave
    a zero-init CRC at 0, so every item is left-padded with zero bytes
    to the batch's longest item and the padded items are joined into
    one block, whose column j, ``block[j::width]``, holds byte j of every
    item.  Each column adds its share to all the CRCs at once: one
    ``bytes.translate`` per half of T_d and an integer XOR per half.

    The block costs ``len(items)`` times the longest item in bytes; for
    CRC_CHUNK names of at most 22 bytes that is about 90 KB.  One long
    item in a batch of short ones pads them all to its length.
    """
    count = len(items)
    width = max(map(len, items), default=0)
    block = b"".join([x.rjust(width, b"\0") for x in items])
    tables = _position_tables(width)
    lo = hi = 0
    for j in range(width):
        column = block[j::width]
        lo_table, hi_table = tables[width - 1 - j]
        lo ^= int.from_bytes(column.translate(lo_table), "little")
        hi ^= int.from_bytes(column.translate(hi_table), "little")
    both = bytearray(2 * count)
    both[_LO_SLOT::2] = lo.to_bytes(count, "little")
    both[1 - _LO_SLOT::2] = hi.to_bytes(count, "little")
    return memoryview(both).cast("H").tolist()


class NameFormatError(ValueError):
    """Raised when a name string does not parse."""


@dataclass(frozen=True, slots=True)
class ContentName:
    """Hierarchical content identifier: one or more non-empty segments.

    The canonical text form is the segments joined with ``/`` and a
    leading ``/``, e.g. ``/video/a.mp4``.  Equality and hashing follow
    the segment tuple.  The canonical text is built once, at creation,
    because the engine keys its tables by it on every hop.  ``crc`` is
    the CRC-16/ARC of the canonical UTF-8 bytes, computed once; it takes
    no part in equality, hashing or repr.
    """

    segments: tuple[str, ...]
    _text: str = field(init=False, repr=False, compare=False)
    # -1 until hashed; parse_names fills it from crc16_many
    _crc: int = field(init=False, repr=False, compare=False, default=-1)

    def __post_init__(self) -> None:
        if not self.segments:
            raise NameFormatError("a name needs at least one segment")
        for i, seg in enumerate(self.segments):
            if not seg:
                raise NameFormatError(f"empty segment at position {i + 1}")
            if "/" in seg:
                raise NameFormatError(f"segment {i + 1} contains '/'")
        object.__setattr__(self, "_text", "/" + "/".join(self.segments))

    @property
    def canonical_text(self) -> str:
        return self._text

    @property
    def crc(self) -> int:
        """CRC-16/ARC of the canonical UTF-8 bytes, hashed on first read."""
        crc = self._crc
        if crc < 0:
            crc = crc16(self._text.encode("utf-8"))
            object.__setattr__(self, "_crc", crc)
        return crc


def parse_name(text: str) -> ContentName:
    """Parse ``/seg1/seg2/...`` into a ContentName.

    Rejects the empty string, a bare ``/``, and empty segments such as
    the one produced by ``//``; the error names the offending position.
    """
    if not text:
        raise NameFormatError("empty name")
    if not text.startswith("/"):
        raise NameFormatError("name must start with '/'")
    if text == "/":
        raise NameFormatError("name needs at least one segment")
    # ContentName rejects the empty segments, naming the first one's position
    return ContentName(tuple(text[1:].split("/")))


def parse_names(texts: Iterable[str]) -> Iterator[ContentName]:
    """Yield ``parse_name(text)`` for each text, each name carrying its CRC.

    Texts are taken CRC_CHUNK at a time and hashed with one crc16_many
    call per chunk; the names themselves are made one at a time, as the
    caller asks for them.  A malformed text raises NameFormatError when
    the generator reaches it, after the names before it were yielded.
    """
    texts = iter(texts)
    while chunk := list(islice(texts, CRC_CHUNK)):
        crcs = crc16_many([text.encode("utf-8") for text in chunk])
        for text, crc in zip(chunk, crcs):
            name = parse_name(text)
            object.__setattr__(name, "_crc", crc)
            yield name


@dataclass(frozen=True, slots=True)
class InterestPacket:
    """A request for named content.

    ``trace`` lists the node ids visited so far (metrics only, never
    consulted by forwarding).  It is opt-in: a packet created with an
    empty trace keeps it empty on every hop, and a traced packet has
    made ``len(trace) - 1`` hops.  The nonce never changes after
    creation.  The engine stamps a new copy of a traced packet on each
    link crossing (:meth:`delivered_to`) and sends an untraced one
    unchanged; it carries the hop count on its events, not the packet.
    """

    name: ContentName
    nonce: int
    trace: tuple[int, ...] = ()

    def delivered_to(self, node_id: int) -> "InterestPacket":
        """Copy stamped for arrival at ``node_id`` after one link crossing."""
        trace = self.trace + (node_id,) if self.trace else ()
        return InterestPacket(self.name, self.nonce, trace)


@dataclass(frozen=True, slots=True)
class DataPacket:
    """Named content flowing back toward requesters.

    Every Data packet is the same size, ``topology.DEFAULT_PAYLOAD_BITS``,
    so it carries no size of its own.  ``trace`` mirrors InterestPacket's
    and exists for metrics only.
    """

    name: ContentName
    trace: tuple[int, ...] = ()

    def delivered_to(self, node_id: int) -> "DataPacket":
        trace = self.trace + (node_id,) if self.trace else ()
        return DataPacket(self.name, trace)


def assign_resolver(name: ContentName, resolver_count: int) -> int:
    """Map a name to a resolver shard index: crc16(canonical bytes) mod N."""
    if resolver_count < 1:
        raise ValueError("resolver_count must be at least 1")
    return name.crc % resolver_count
