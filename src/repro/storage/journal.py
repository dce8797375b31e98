"""Per-file write-ahead journal: the redo log behind crash consistency.

A :class:`WriteAheadJournal` sits next to one disk-backed
:class:`~repro.storage.pagedfile.PagedFile` (``<data path>.wal``) and
records every page image *before* the data file is touched.  The data
file itself is only written at checkpoint time, after an fsync'd commit
marker proves the images durable — the classic no-steal/redo-only WAL
protocol, sized down to one file:

* ``write_page`` appends a page-image record (page id, the *intended*
  payload CRC, the payload bytes) to the journal and parks the image in
  the owning file's overlay;
* ``commit`` appends a commit marker covering every image since the
  previous marker and fsyncs once — group commit: one durable barrier
  amortized over a batch of writes;
* ``checkpoint`` copies the committed images into the data file, fsyncs
  it, and resets the journal to an empty header.

On-disk layout (all little-endian)::

    header:  8s magic "REPROWAL" | u32 version | u32 page_size
    record:  u32 magic "RWAL" | u32 payload len | u32 payload CRC32
             | payload
    payload: u8 kind=1 | u32 page_id | u32 page CRC | page bytes
             u8 kind=2 | u32 commit seqno | u32 records covered

The record magic int is chosen so its little-endian bytes read
``RWAL`` — recovery resynchronises on it to tell a torn tail (truncate)
from interior corruption (refuse; see
:class:`~repro.errors.JournalCorruptError`).

Durability is modelled explicitly so crashes are deterministic: the
journal file handle is unbuffered, and the class tracks the *written*
length next to the *durable* length (the fsync high-water mark).
:meth:`simulate_power_loss` keeps the durable prefix plus half of the
un-synced tail — deterministically producing exactly the torn shapes
recovery must absorb.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import TYPE_CHECKING, BinaryIO, Optional

from repro.errors import StorageError
from repro.obs import names
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.faults import FaultInjector

#: Journal file header: magic, format version, owning file's page size.
HEADER = struct.Struct("<8sII")
HEADER_MAGIC = b"REPROWAL"
FORMAT_VERSION = 1

#: Record framing: magic, payload length, CRC32 of the payload.
RECORD = struct.Struct("<III")
#: Little-endian bytes of this int read ``b"RWAL"`` — the resync marker.
RECORD_MAGIC = 0x4C415752
RECORD_MAGIC_BYTES = struct.pack("<I", RECORD_MAGIC)

#: Page-image payload prefix: kind, page id, intended page CRC32.
PAGE_IMAGE = struct.Struct("<BII")
#: Commit-marker payload: kind, commit seqno, records covered.
COMMIT = struct.Struct("<BII")
KIND_PAGE_IMAGE = 1
KIND_COMMIT = 2


def journal_path(data_path: str) -> str:
    """The journal's path for a given data-file path."""
    return data_path + ".wal"


class WriteAheadJournal:
    """Append-only redo log for one :class:`PagedFile`.

    The journal never *reads* its own records — recovery
    (:mod:`repro.storage.recovery`) scans the file independently — so
    this class is a pure appender: records, commit markers, fsync,
    reset.
    """

    def __init__(self, path: str, *, page_size: int, name: str) -> None:
        if page_size <= 0:
            raise StorageError(
                f"journal page_size must be positive, got {page_size}")
        self.path = path
        self.page_size = page_size
        #: Owning data file's name — metric label, so journal series sit
        #: next to the file's pagedfile_* series in reports.
        self.owner = name
        #: Fault-rule match name: plans target journals with ``.wal``.
        self.name = f"{name}.wal"
        registry = get_registry()
        self._m_records = registry.counter(names.JOURNAL_RECORDS, file=name)
        self._m_commits = registry.counter(names.JOURNAL_COMMITS, file=name)
        self._closed = False
        self._next_seqno = 1
        self._uncommitted = 0
        # Unbuffered on purpose: the written/durable split below is the
        # whole crash model, and a Python-level buffer would add a third
        # nondeterministic state between them.
        existed = os.path.exists(path)
        mode = "r+b" if existed else "w+b"
        self._fh: Optional[BinaryIO] = open(path, mode, buffering=0)
        if existed:
            self._written = self._validate_header()
        else:
            self._fh.write(HEADER.pack(HEADER_MAGIC, FORMAT_VERSION,
                                       page_size))
            os.fsync(self._fh.fileno())
            self._written = HEADER.size
        # Everything on disk at open time is treated as durable: a
        # simulated power loss has already truncated the un-synced tail.
        self._durable = self._written

    def _validate_header(self) -> int:
        """Check the existing header; returns the current file length."""
        assert self._fh is not None
        self._fh.seek(0, os.SEEK_END)
        size = self._fh.tell()
        if size < HEADER.size:
            raise StorageError(
                f"{self.path}: journal shorter than its header "
                f"({size} bytes)")
        self._fh.seek(0)
        magic, version, page_size = HEADER.unpack(
            self._fh.read(HEADER.size))
        if magic != HEADER_MAGIC:
            raise StorageError(f"{self.path}: not a journal file")
        if version != FORMAT_VERSION:
            raise StorageError(
                f"{self.path}: unsupported journal format version "
                f"{version} (expected {FORMAT_VERSION})")
        if page_size != self.page_size:
            raise StorageError(
                f"{self.path}: journal page size {page_size} does not "
                f"match file page size {self.page_size}")
        return size

    # -- state -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def written_length(self) -> int:
        """Bytes written so far (header included), durable or not."""
        return self._written

    @property
    def durable_length(self) -> int:
        """Bytes guaranteed to survive :meth:`simulate_power_loss`."""
        return self._durable

    @property
    def has_entries(self) -> bool:
        """Whether any record bytes follow the header."""
        return self._written > HEADER.size

    @property
    def uncommitted_records(self) -> int:
        """Page images appended since the last commit marker."""
        return self._uncommitted

    def _check_open(self) -> None:
        if self._closed or self._fh is None:
            raise StorageError(f"{self.name}: journal is closed")

    # -- appending ---------------------------------------------------------

    def _append(self, payload: bytes, frame_crc: int) -> None:
        """Write one framed record at the end of the journal."""
        assert self._fh is not None
        record = RECORD.pack(RECORD_MAGIC, len(payload), frame_crc) + payload
        self._fh.seek(0, os.SEEK_END)
        self._fh.write(record)
        self._written += len(record)
        self._m_records.inc()

    def append_page_image(self, page_id: int, data: bytes, page_crc: int,
                          faults: Optional["FaultInjector"] = None) -> None:
        """Append one page-image record (WAL-before-data).

        ``page_crc`` is the CRC of the payload the caller *intended* to
        write; ``data`` may already be torn by a fault filter.  Keeping
        the intended CRC means a replayed torn write is detected on the
        next read of the data page, exactly like an un-journaled torn
        write.  The framing CRC covers the bytes actually stored, so a
        faithfully recorded torn page is *not* journal corruption — only
        ``faults.filter_journal`` (applied after framing) models bytes
        rotting inside the WAL itself.
        """
        if len(data) != self.page_size:
            raise StorageError(
                f"{self.name}: page image must be exactly "
                f"{self.page_size} bytes, got {len(data)}")
        self._check_open()
        payload = PAGE_IMAGE.pack(KIND_PAGE_IMAGE, page_id,
                                  page_crc) + data
        frame_crc = zlib.crc32(payload)
        if faults is not None:
            payload = faults.filter_journal(self.name, payload)
        self._append(payload, frame_crc)
        self._uncommitted += 1

    def append_commit_marker(self) -> int:
        """Append a commit marker covering every image since the last.

        Returns the marker's sequence number.  The marker is *not*
        durable until :meth:`sync` — callers split the two so a crash
        point can land between them.
        """
        self._check_open()
        seqno = self._next_seqno
        payload = COMMIT.pack(KIND_COMMIT, seqno, self._uncommitted)
        self._append(payload, zlib.crc32(payload))
        self._next_seqno += 1
        self._uncommitted = 0
        self._m_commits.inc()
        return seqno

    def sync(self) -> None:
        """fsync the journal; everything written becomes durable."""
        self._check_open()
        assert self._fh is not None
        os.fsync(self._fh.fileno())
        self._durable = self._written

    def reset(self) -> None:
        """Truncate back to an empty header (checkpoint completed)."""
        self._check_open()
        assert self._fh is not None
        self._fh.truncate(HEADER.size)
        os.fsync(self._fh.fileno())
        self._written = HEADER.size
        self._durable = HEADER.size
        self._uncommitted = 0

    # -- lifecycle ---------------------------------------------------------

    def simulate_power_loss(self) -> None:
        """Drop the volatile half of the un-synced tail and close.

        Keeps ``durable + (written - durable) // 2`` bytes: the fsync'd
        prefix always survives, un-synced records may survive whole, in
        part (a torn tail), or not at all — the three shapes a real
        power loss produces, made deterministic.
        """
        if self._closed or self._fh is None:
            return
        keep = self._durable + (self._written - self._durable) // 2
        self._fh.truncate(keep)
        self._fh.close()
        self._fh = None
        self._closed = True

    def close(self) -> None:
        """Close the handle; safe to call twice.  No implicit sync —
        the owner checkpoints (which resets) before closing."""
        if self._closed:
            return
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    def __repr__(self) -> str:
        return (f"WriteAheadJournal({self.name!r}, "
                f"written={self._written}, durable={self._durable}, "
                f"uncommitted={self._uncommitted})")


__all__ = ["WriteAheadJournal", "journal_path", "HEADER", "HEADER_MAGIC",
           "FORMAT_VERSION", "RECORD", "RECORD_MAGIC", "RECORD_MAGIC_BYTES",
           "PAGE_IMAGE", "COMMIT", "KIND_PAGE_IMAGE", "KIND_COMMIT"]
