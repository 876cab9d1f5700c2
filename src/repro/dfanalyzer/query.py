"""Query engine over the column store.

Covers what the paper's use cases need (Sections I and VII-B): filter,
project and order/limit — enough to answer "retrieve the
hyperparameters with the 3 best accuracy values" or "the elapsed time
and training loss in the latest epoch for each hyperparameter
combination" (:mod:`repro.dfanalyzer.queries`) against captured
provenance.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Tuple

from .store import ColumnStore

__all__ = ["Query", "QueryError"]

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda value, container: value in container,
    "contains": lambda container, value: value in container,
}


class QueryError(ValueError):
    """Invalid query construction."""


class Query:
    """A lazily evaluated query pipeline; evaluate with :meth:`rows`.

    Example::

        (Query(store, "tasks")
            .where("status", "==", "FINISHED")
            .order_by("time_begin", desc=True)
            .limit(3)
            .rows())
    """

    def __init__(self, store: ColumnStore, table: str):
        self.store = store
        self._table = table
        self._stages: List[Tuple[str, tuple]] = []

    # -- builders (each returns self for chaining) ----------------------------
    def where(self, column: str, op: str, value: Any) -> "Query":
        if op not in _OPS:
            raise QueryError(f"unknown operator {op!r}; known: {sorted(_OPS)}")
        self._stages.append(("where", (column, op, value)))
        return self

    def where_fn(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Query":
        self._stages.append(("where_fn", (predicate,)))
        return self

    def select(self, *columns: str) -> "Query":
        if not columns:
            raise QueryError("select needs at least one column")
        self._stages.append(("select", (columns,)))
        return self

    def order_by(self, column: str, desc: bool = False) -> "Query":
        self._stages.append(("order_by", (column, desc)))
        return self

    def limit(self, n: int) -> "Query":
        if n < 0:
            raise QueryError("limit must be >= 0")
        self._stages.append(("limit", (n,)))
        return self

    # -- evaluation -----------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        data = list(self.store.table(self._table).rows())
        for stage, args in self._stages:
            data = getattr(self, f"_eval_{stage}")(data, *args)
        return data

    def count(self) -> int:
        return len(self.rows())

    # -- stage implementations ---------------------------------------------------
    @staticmethod
    def _eval_where(data, column, op, value):
        fn = _OPS[op]
        out = []
        for row in data:
            cell = row.get(column)
            if cell is None:
                continue
            try:
                if fn(cell, value):
                    out.append(row)
            except TypeError:
                continue  # incomparable cell: excluded, like SQL NULL
        return out

    @staticmethod
    def _eval_where_fn(data, predicate):
        return [row for row in data if predicate(row)]

    @staticmethod
    def _eval_select(data, columns):
        return [{c: row.get(c) for c in columns} for row in data]

    @staticmethod
    def _eval_order_by(data, column, desc):
        def key(row):
            value = row.get(column)
            # sort NULLs last regardless of direction
            return (value is None, value)

        return sorted(data, key=key, reverse=desc)

    @staticmethod
    def _eval_limit(data, n):
        return data[:n]
