"""Flat segmented memory for the VX machine.

Memory is a set of non-overlapping segments.  Reads and writes resolve
the containing segment (through a two-slot cache of the current
thread's last two hits, since accesses are strongly local) and fault
on unmapped addresses — the behaviour that makes incorrectly
recompiled binaries *observably* crash, which the evaluation relies
on.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

#: Packers for the dominant access widths.  ``unpack_from``/``pack_into``
#: work directly against a segment's backing bytearray, with no
#: intermediate ``bytes`` copy.
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")


class MemoryFault(Exception):
    """An access to unmapped (or truncated) memory."""

    def __init__(self, addr: int, size: int, kind: str) -> None:
        super().__init__(f"{kind} fault: {size} bytes at {addr:#x}")
        self.addr = addr
        self.size = size
        self.kind = kind


class _Segment:
    __slots__ = ("start", "end", "data", "name")

    def __init__(self, start: int, data: bytearray, name: str) -> None:
        self.start = start
        self.end = start + len(data)
        self.data = data
        self.name = name


class Memory:
    """Sparse flat memory composed of mapped segments."""

    def __init__(self) -> None:
        self._segments: List[_Segment] = []
        # The segment cache: the last two segments hit, most recent
        # first.  A thread's accesses alternate between a few regions
        # (its stack and the heap or data it works on), so a second
        # slot catches most of what a one-entry cache misses.
        self._last: Optional[_Segment] = None
        self._prev: Optional[_Segment] = None
        # Per-thread (last, prev) slots: threads interleave at quantum
        # granularity, and each tends to hammer its own stack/heap
        # region, so a context switch restores that thread's locality
        # instead of starting every quantum with a cache miss.
        self._thread_last: Dict[int, Tuple[Optional[_Segment],
                                           Optional[_Segment]]] = {}
        self._cur_tid: Optional[int] = None

    # -- mapping -------------------------------------------------------------

    def map(self, addr: int, data_or_size, name: str = "anon") -> None:
        """Map a segment at ``addr`` from bytes or a zero-filled size."""
        if isinstance(data_or_size, int):
            data = bytearray(data_or_size)
        else:
            data = bytearray(data_or_size)
        new = _Segment(addr, data, name)
        for seg in self._segments:
            if new.start < seg.end and seg.start < new.end:
                raise MemoryFault(addr, len(data), "map-overlap")
        self._segments.append(new)
        self._segments.sort(key=lambda seg: seg.start)
        self._drop_caches()

    def unmap(self, addr: int) -> None:
        """Remove the segment starting exactly at ``addr``."""
        for i, seg in enumerate(self._segments):
            if seg.start == addr:
                del self._segments[i]
                self._drop_caches()
                return
        raise MemoryFault(addr, 0, "unmap")

    def _drop_caches(self) -> None:
        self._last = self._prev = None
        self._thread_last.clear()

    def select_thread(self, tid: int) -> None:
        """Switch the segment cache to ``tid``'s last two hits.

        Called by the scheduler at every pick; a no-op when the same
        thread keeps running.  Purely an optimisation — resolution and
        fault behaviour are identical whichever segments are cached.
        """
        cur = self._cur_tid
        if tid != cur:
            if cur is not None:
                self._thread_last[cur] = (self._last, self._prev)
            self._last, self._prev = self._thread_last.get(tid,
                                                           (None, None))
            self._cur_tid = tid

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        """True if [addr, addr+size) lies inside one mapped segment."""
        seg = self._find(addr)
        return seg is not None and addr + size <= seg.end

    def segments(self) -> List[Tuple[int, int, str]]:
        """(start, size, name) for every mapped segment, ascending."""
        return [(seg.start, seg.end - seg.start, seg.name)
                for seg in self._segments]

    # -- access --------------------------------------------------------------

    def _find(self, addr: int) -> Optional[_Segment]:
        """The segment containing ``addr``, or None; a hit outside the
        first cache slot becomes the most recent."""
        last = self._last
        if last is not None and last.start <= addr < last.end:
            return last
        seg = self._prev
        if seg is None or not seg.start <= addr < seg.end:
            segments = self._segments
            lo, hi = 0, len(segments)
            while lo < hi:
                mid = (lo + hi) // 2
                seg = segments[mid]
                if addr < seg.start:
                    hi = mid
                elif addr >= seg.end:
                    lo = mid + 1
                else:
                    break
            else:
                return None
        self._prev = last
        self._last = seg
        return seg

    def _resolve(self, addr: int, size: int, kind: str) -> _Segment:
        """The segment holding all of [addr, addr+size); a
        ``MemoryFault(addr, size, kind)`` when no single segment does."""
        seg = self._find(addr)
        if seg is None or addr + size > seg.end:
            raise MemoryFault(addr, size, kind)
        return seg

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes; faults on unmapped addresses."""
        seg = self._resolve(addr, size, "read")
        off = addr - seg.start
        return bytes(seg.data[off:off + size])

    def write(self, addr: int, data: bytes) -> None:
        """Write bytes; faults on unmapped or read-only addresses."""
        seg = self._resolve(addr, len(data), "write")
        off = addr - seg.start
        seg.data[off:off + len(data)] = data

    def read_int(self, addr: int, width: int, signed: bool = False) -> int:
        """Read a little-endian integer of ``width`` bytes.

        The value is unpacked straight from the segment's backing
        bytearray, whichever cache slot (or the segment table) supplies
        it; an access no single segment holds faults with
        ``MemoryFault(addr, width, "read")``.
        """
        seg = self._last
        if seg is None or addr < seg.start or addr + width > seg.end:
            seg = self._resolve(addr, width, "read")
        off = addr - seg.start
        if width == 8:
            val = U64.unpack_from(seg.data, off)[0]
            if signed and val >= 0x8000000000000000:
                return val - 0x10000000000000000
            return val
        if width == 4:
            val = U32.unpack_from(seg.data, off)[0]
            if signed and val >= 0x80000000:
                return val - 0x100000000
            return val
        return int.from_bytes(seg.data[off:off + width], "little",
                              signed=signed)

    def write_int(self, addr: int, value: int, width: int) -> None:
        """Write a little-endian integer of ``width`` bytes (``value``
        truncated to the width), packed in place; mirrors
        :meth:`read_int`, faulting with ``MemoryFault(addr, width,
        "write")``."""
        seg = self._last
        if seg is None or addr < seg.start or addr + width > seg.end:
            seg = self._resolve(addr, width, "write")
        off = addr - seg.start
        if width == 8:
            U64.pack_into(seg.data, off, value & 0xFFFFFFFFFFFFFFFF)
        elif width == 4:
            U32.pack_into(seg.data, off, value & 0xFFFFFFFF)
        else:
            seg.data[off:off + width] = (
                value & ((1 << (width * 8)) - 1)).to_bytes(width, "little")

    def read_cstr(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (bounded by ``limit``).

        Scans whole segments at a time instead of issuing one ``read()``
        per byte.  Fault behaviour at segment boundaries matches the
        bytewise loop exactly: running off the end of a segment faults
        at the first unmapped byte, unless an adjacent segment is
        mapped there, in which case the scan continues into it.
        """
        out = bytearray()
        while len(out) < limit:
            cursor = addr + len(out)
            seg = self._find(cursor)
            if seg is None:
                raise MemoryFault(cursor, 1, "read")
            start = cursor - seg.start
            end = min(len(seg.data), start + limit - len(out))
            nul = seg.data.find(0, start, end)
            if nul >= 0:
                out += seg.data[start:nul]
                break
            out += seg.data[start:end]
        return bytes(out)

    def write_cstr(self, addr: int, text: bytes) -> None:
        """Write ``text`` followed by a NUL byte."""
        self.write(addr, bytes(text) + b"\x00")
