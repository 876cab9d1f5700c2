"""Columnar in-memory store (MonetDB-lite).

DfAnalyzer stores provenance in MonetDB, a column store.  This module
provides the minimal column-organized storage engine the backend needs:
append-only tables with dynamic schemas, column projections backed by
plain lists, and row reconstruction for query results.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

__all__ = ["Table", "ColumnStore", "StoreError"]


class StoreError(KeyError):
    """Unknown table or column."""


class Table:
    """An append-only, column-organized table with a dynamic schema."""

    def __init__(self, name: str, columns: Optional[Iterable[str]] = None):
        self.name = name
        self._columns: Dict[str, List[Any]] = {c: [] for c in (columns or ())}
        self._nrows = 0

    # -- schema ------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self._nrows

    def _ensure_column(self, name: str) -> List[Any]:
        col = self._columns.get(name)
        if col is None:
            # backfill new columns with NULLs for existing rows
            col = self._columns[name] = [None] * self._nrows
        return col

    # -- writes ---------------------------------------------------------------
    def insert(self, row: Dict[str, Any]) -> int:
        """Append one row; unknown columns are added, missing are NULL.

        Returns the row id (position).
        """
        for name in row:
            self._ensure_column(name)
        for name, col in self._columns.items():
            col.append(row.get(name))
        self._nrows += 1
        return self._nrows - 1

    def update_rows(self, row_ids: Sequence[int], changes: Dict[str, Any]) -> int:
        """Write ``changes`` into the rows at ``row_ids``; returns count.

        Row ids are positions as returned by :meth:`insert`; callers that
        key rows keep their own index of them, so no row is scanned here.
        """
        for i in row_ids:
            if not 0 <= i < self._nrows:
                raise IndexError(f"row {i} out of range (n={self._nrows})")
        for name, value in changes.items():
            col = self._ensure_column(name)
            for i in row_ids:
                col[i] = value
        return len(row_ids)

    # -- reads -----------------------------------------------------------------
    def column(self, name: str) -> List[Any]:
        col = self._columns.get(name)
        if col is None:
            raise StoreError(f"table {self.name!r} has no column {name!r}")
        return col

    def row(self, index: int) -> Dict[str, Any]:
        if not 0 <= index < self._nrows:
            raise IndexError(f"row {index} out of range (n={self._nrows})")
        return {name: col[index] for name, col in self._columns.items()}

    def rows(self) -> Iterator[Dict[str, Any]]:
        for i in range(self._nrows):
            yield self.row(i)

    def __repr__(self) -> str:
        return f"<Table {self.name} rows={self._nrows} cols={len(self._columns)}>"


class ColumnStore:
    """A named collection of tables."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, columns: Optional[Iterable[str]] = None) -> Table:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise StoreError(f"no table {name!r}")
        return table

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __repr__(self) -> str:
        return f"<ColumnStore tables={len(self._tables)}>"
