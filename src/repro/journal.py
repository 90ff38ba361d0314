"""Protocol journal: record, persist, and audit a run's message traffic.

A :class:`ProtocolJournal` taps the simulated network and records every
successfully sent message, serialized through the wire codec
(:mod:`repro.wire`).  Uses:

* **debugging** — inspect exactly what travelled, in order, with virtual
  timestamps;
* **persistence** — dump to JSON-lines and reload later (messages decode
  back to full objects);
* **auditing** — :meth:`ProtocolJournal.audit_cht` re-derives the CHT
  balance for one query *purely from the recorded traffic* and checks the
  completion invariant offline, independently of the live client's
  bookkeeping.

Example::

    engine = WebDisEngine(web)
    journal = ProtocolJournal.attach(engine.network)
    handle = engine.run_query(disql)
    audit = journal.audit_cht(handle.qid)
    assert audit.balanced
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core.messages import ResultMessage
from .core.webquery import QueryId
from .net.network import Network
from .wire import WIRE_VERSION, decode_message, encode_message

__all__ = ["JournalEntry", "ChtAudit", "ProtocolJournal"]


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One recorded message."""

    time: float
    src: str
    dst: str
    port: int
    kind: str
    size: int
    message: object

    def as_json(self) -> str:
        record = {
            "t": self.time,
            "src": self.src,
            "dst": self.dst,
            "port": self.port,
            "kind": self.kind,
            "size": self.size,
            "wire": encode_message(self.message).decode("utf-8"),
        }
        return json.dumps(record, separators=(",", ":"), ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "JournalEntry":
        record = json.loads(line)
        return cls(
            time=record["t"],
            src=record["src"],
            dst=record["dst"],
            port=record["port"],
            kind=record["kind"],
            size=record["size"],
            message=decode_message(record["wire"].encode("utf-8")),
        )


@dataclass
class ChtAudit:
    """Offline re-derivation of the CHT balance from recorded traffic.

    ``start_entries`` counts StartNode locations whose initial clone
    actually left the user-site (the locally seeded-and-retired entries of
    unreachable starts never travel, so they cancel out of the audit).
    """

    qid: QueryId
    additions: int = 0
    deletions: int = 0
    start_entries: int = 0
    result_rows: int = 0
    report_messages: int = 0
    dispositions: dict[str, int] = field(default_factory=dict)

    @property
    def balanced(self) -> bool:
        """The completion invariant, from traffic alone: every travelled
        clone location (initial or announced) was retired by exactly one
        report entry."""
        return self.deletions == self.additions + self.start_entries

    @property
    def outstanding(self) -> int:
        return max(0, self.additions + self.start_entries - self.deletions)


class ProtocolJournal:
    """Records every message a network sends."""

    def __init__(self) -> None:
        self.entries: list[JournalEntry] = []

    @classmethod
    def attach(cls, network: Network) -> "ProtocolJournal":
        journal = cls()
        network.add_tap(journal._record)
        return journal

    def _record(self, time: float, src: str, dst: str, port: int, payload) -> None:
        self.entries.append(
            JournalEntry(time, src, dst, port, payload.kind, payload.size_bytes(), payload)
        )

    def __len__(self) -> int:
        return len(self.entries)

    # -- persistence ------------------------------------------------------------

    def write_jsonl(self, path: str | Path) -> int:
        """Persist all entries; returns the count written."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"journal_version": WIRE_VERSION}) + "\n")
            for entry in self.entries:
                handle.write(entry.as_json() + "\n")
        return len(self.entries)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "ProtocolJournal":
        journal = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            if header.get("journal_version") != WIRE_VERSION:
                raise ValueError(f"unsupported journal version: {header}")
            for line in handle:
                line = line.strip()
                if line:
                    journal.entries.append(JournalEntry.from_json(line))
        return journal

    # -- analysis ------------------------------------------------------------------

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return counts

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries)

    def audit_cht(self, qid: QueryId) -> ChtAudit:
        """Re-derive the CHT balance for ``qid`` from recorded reports.

        Valid for standard deployments.  (Under the hybrid engine the
        central helper also originates clones from the user host, which
        this traffic-only view cannot distinguish from initial dispatches.)
        """
        from .core.webquery import QueryClone

        audit = ChtAudit(qid)
        for entry in self.entries:
            message = entry.message
            if (
                isinstance(message, QueryClone)
                and message.query.qid == qid
                and entry.src == qid.host
            ):
                audit.start_entries += len(message.dest)
                continue
            if not isinstance(message, ResultMessage) or message.qid != qid:
                continue
            audit.report_messages += 1
            for report in message.reports:
                for disposition in report.dispositions:
                    name = disposition.value
                    audit.dispositions[name] = audit.dispositions.get(name, 0) + 1
                audit.result_rows += len(report.rows)
                if report.bookkeeping:  # each node retires one entry
                    audit.deletions += len(report.nodes)
                    audit.additions += len(report.new_entries)
        return audit
