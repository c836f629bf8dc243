"""Qualified keys: interned (keyType, localName) record identifiers.

Records from different sources line up only when their keys agree on both
components. A town called "Lowell" and a school called "Lowell" must never
match, so every join checks key types before touching rows.
"""

from __future__ import annotations

import csv
import logging
import threading
from dataclasses import dataclass, field
from typing import Any

from .errors import EmptyComponent, KeyTypeMismatch, MissingColumn

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QualifiedKey:
    key_type: str
    local_name: str
    intern_id: int

    def __str__(self) -> str:
        return f"{self.key_type}:{self.local_name}"


class KeyManager:
    """Interns (keyType, localName) pairs; equal pairs share one QualifiedKey.

    Safe to call from multiple threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._by_pair: dict[tuple[str, str], QualifiedKey] = {}
        self._by_id: list[QualifiedKey] = []

    def get_qkey(self, key_type: str, local_name: str) -> QualifiedKey:
        if not isinstance(key_type, str) or not key_type:
            raise EmptyComponent("key type must be a non-empty string")
        if not isinstance(local_name, str) or not local_name:
            raise EmptyComponent("local name must be a non-empty string")
        with self._lock:
            key = self._by_pair.get((key_type, local_name))
            if key is None:
                key = QualifiedKey(key_type, local_name, len(self._by_id) + 1)
                self._by_pair[key_type, local_name] = key
                self._by_id.append(key)
            return key

    def key_by_id(self, intern_id: int) -> QualifiedKey:
        with self._lock:
            if not 1 <= intern_id <= len(self._by_id):
                raise KeyError(f"no interned key with id {intern_id}")
            return self._by_id[intern_id - 1]

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)


@dataclass
class KeyedColumn:
    """One column of values keyed by interned ids of a single key type."""

    key_type: str
    title: str
    entries: dict[int, Any] = field(default_factory=dict)
    duplicates: int = 0  # rows that overwrote an earlier key during load


@dataclass
class JoinedTable:
    key_type: str
    titles: list[str]
    rows: list[tuple[QualifiedKey, list[Any]]]

    def to_csv(self) -> str:
        """RFC-4180 rendering; missing values become empty fields."""
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", *self.titles])
        for key, values in self.rows:
            writer.writerow([key.local_name, *["" if v is None else v for v in values]])
        return out.getvalue()


def join_columns(manager: KeyManager, columns: list[KeyedColumn]) -> JoinedTable:
    """Align columns on shared keys: one row per key in the union, one value
    cell per input column, None where a source has no record. Row order is
    localName-sorted, so the result is independent of source row order."""
    if not columns:
        raise ValueError("join needs at least one column")
    key_type = columns[0].key_type
    for col in columns[1:]:
        if col.key_type != key_type:
            raise KeyTypeMismatch(
                f"column {col.title!r} keys {col.key_type!r} records, not {key_type!r}"
            )
    ids: set[int] = set()
    for col in columns:
        ids.update(col.entries)
    keys = sorted((manager.key_by_id(i) for i in ids), key=lambda k: k.local_name)
    rows = [(k, [col.entries.get(k.intern_id) for col in columns]) for k in keys]
    return JoinedTable(key_type, [col.title for col in columns], rows)


def _parse_cell(text: str) -> Any:
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_csv_column(
    manager: KeyManager,
    path: str,
    key_column: str,
    value_column: str,
    key_type: str,
) -> KeyedColumn:
    """Read one keyed column out of a CSV file (first row is the header).

    Duplicate keys keep the last row and count toward the column's
    duplicates diagnostic. Rows with an empty key cell are skipped.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise MissingColumn(f"{path}: empty file, no header row")
        try:
            key_idx = header.index(key_column)
            value_idx = header.index(value_column)
        except ValueError as e:
            raise MissingColumn(f"{path}: header lacks {key_column!r} or {value_column!r}") from e
        entries: dict[int, Any] = {}
        duplicates = 0
        for line, row in enumerate(reader, start=2):
            key_text = row[key_idx] if key_idx < len(row) else ""
            if not key_text:
                log.warning("%s:%d: empty key cell, row skipped", path, line)
                continue
            key = manager.get_qkey(key_type, key_text)
            if key.intern_id in entries:
                duplicates += 1
                log.warning("%s:%d: duplicate key %s, keeping the later row", path, line, key)
            entries[key.intern_id] = _parse_cell(row[value_idx] if value_idx < len(row) else "")
    return KeyedColumn(key_type, value_column, entries, duplicates)
