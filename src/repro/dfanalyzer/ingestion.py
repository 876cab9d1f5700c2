"""DfAnalyzer ingestion: runtime provenance intake into the column store.

Accepts the three wire formats that exist in this reproduction:

* the ProvLight translator output (:func:`repro.core.translator.to_dfanalyzer`),
* the DfAnalyzer capture library's own JSON messages
  (:mod:`repro.baselines.dfanalyzer_capture`),
* the ProvLake capture library's JSON messages
  (:mod:`repro.baselines.provlake`),

normalizing them into three storage families:

* ``dataflows`` — begin/end events per dataflow;
* ``tasks`` — one row per task, upserted RUNNING -> FINISHED through an
  index keyed on ``(dataflow_tag, task_id)``;
* ``datasets`` — one row per data item with attribute columns, which is
  what the paper's hyperparameter queries run against.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple, Union

from .dataflow import DataflowSpec
from .query import Query
from .store import ColumnStore

__all__ = ["DfAnalyzerService", "DfAnalyzerHttpService", "IngestError"]


class IngestError(ValueError):
    """Payload not recognized as DfAnalyzer provenance."""


class DfAnalyzerService:
    """The storage/query component of DfAnalyzer (paper Section V-A).

    The paper deliberately uses only this part of DfAnalyzer (its capture
    side is the slow baseline); ProvLight feeds it through the translator.
    The store has no simulation environment: it counts the records it
    stored in its owner's registry, ``metrics``.
    """

    def __init__(self, *, metrics) -> None:
        self.store = ColumnStore()
        self.store.create_table(
            "dataflows", ["dataflow_tag", "event", "time"]
        )
        self.store.create_table(
            "tasks",
            [
                "dataflow_tag",
                "transformation_tag",
                "task_id",
                "status",
                "time_begin",
                "time_end",
                "dependencies",
            ],
        )
        self.store.create_table(
            "datasets",
            ["dataflow_tag", "task_id", "dataset_tag", "direction", "derivations"],
        )
        #: ``(dataflow_tag, task_id)`` -> ids of the ``tasks`` rows with that
        #: key, so a FINISHED upsert finds its rows without a table scan
        self._task_rows: Dict[Tuple[Any, Any], List[int]] = {}
        self.specs: Dict[str, DataflowSpec] = {}
        self.records_ingested = metrics.counter("dfanalyzer", "records_ingested")
        self.validation_warnings: List[str] = []

    # -- prospective provenance -----------------------------------------------
    def register_dataflow(self, spec: DataflowSpec) -> None:
        """Declare a dataflow specification (prospective provenance)."""
        self.specs[spec.tag] = spec

    # -- ingestion ---------------------------------------------------------------
    def ingest(self, payload: Union[Dict[str, Any], List[Dict[str, Any]]]) -> int:
        """Ingest one payload (translator batch or capture-library body).

        Returns the number of records ingested.
        """
        records = self._normalize(payload)
        for record in records:
            if record["type"] == "dataflow":
                self.store.table("dataflows").insert(
                    {
                        "dataflow_tag": record["dataflow_tag"],
                        "event": record["event"],
                        "time": record.get("time"),
                    }
                )
            else:
                self._ingest_task(record)
            self.records_ingested.record()
        return len(records)

    def _ingest_task(self, record: Dict[str, Any]) -> None:
        tasks = self.store.table("tasks")
        key = (record["dataflow_tag"], record["task_id"])
        key_df, key_task = key
        try:
            row_ids = self._task_rows.get(key)
        except TypeError:
            raise IngestError(f"task key {key!r} is not hashable") from None
        status = record.get("status", "RUNNING")
        if status == "FINISHED" and row_ids:
            # every row with the key, whichever device inserted it
            tasks.update_rows(
                row_ids, {"status": "FINISHED", "time_end": record.get("time")}
            )
        else:
            row = {
                "dataflow_tag": key_df,
                "transformation_tag": record.get("transformation_tag"),
                "task_id": key_task,
                "status": status,
                "dependencies": ",".join(
                    str(d) for d in record.get("dependencies", ())
                ),
            }
            # a FINISHED record lands here only when its end arrived
            # before its begin (grouping reorders)
            row["time_end" if status == "FINISHED" else "time_begin"] = record.get("time")
            self._task_rows.setdefault(key, []).append(tasks.insert(row))
        datasets = self.store.table("datasets")
        for item in record.get("datasets", ()):
            row = {
                "dataflow_tag": key_df,
                "task_id": key_task,
                "dataset_tag": item.get("tag"),
                "direction": item.get("direction"),
                "derivations": ",".join(str(d) for d in item.get("derivations", ())),
            }
            elements = item.get("elements", {})
            self._validate_elements(key_df, item.get("tag"), elements)
            for name, value in elements.items():
                row[name] = value
            datasets.insert(row)

    def _validate_elements(self, dataflow_tag, dataset_tag, elements) -> None:
        spec = self.specs.get(str(dataflow_tag))
        if spec is None:
            return
        ds = spec.datasets.get(str(dataset_tag))
        if ds is None:
            return
        self.validation_warnings.extend(ds.validate_elements(elements))

    # -- format normalization -----------------------------------------------------
    def _normalize(self, payload) -> List[Dict[str, Any]]:
        if isinstance(payload, dict) and "messages" in payload:
            payload = payload["messages"]
        elif isinstance(payload, dict):
            payload = [payload]
        if not isinstance(payload, list):
            raise IngestError(f"unsupported payload type {type(payload).__name__}")
        out = []
        for record in payload:
            if not isinstance(record, dict):
                raise IngestError("records must be dicts")
            if "type" in record:
                out.append(record)  # translator format is native
            elif "object" in record:
                out.append(self._from_capture_message(record))
            elif "prov_obj" in record:
                out.append(self._from_provlake_message(record))
            else:
                raise IngestError(f"unrecognized record: {sorted(record)[:5]}")
        return out

    @staticmethod
    def _from_provlake_message(message: Dict[str, Any]) -> Dict[str, Any]:
        """One message of a ProvLake client body
        (:mod:`repro.baselines.provlake`) as a translator record."""
        obj = message["prov_obj"]
        kind, _, event = str(message.get("act_type")).partition("_")
        if kind != obj or event not in ("begin", "end"):
            raise IngestError(
                f"unknown ProvLake message {obj!r}/{message.get('act_type')!r}"
            )
        dataflow_tag = str(message["wf_execution"]).removeprefix("wfexec_")
        if obj == "workflow":
            return {
                "type": "dataflow",
                "dataflow_tag": dataflow_tag,
                "event": event,
                "time": message.get("timestamp"),
            }
        begin = event == "begin"
        task = message.get("task", {})
        values = message.get("used" if begin else "generated", {})
        return {
            "type": "task",
            "dataflow_tag": dataflow_tag,
            "transformation_tag": message.get("data_transformation"),
            "task_id": task.get("id"),
            "status": "RUNNING" if begin else "FINISHED",
            "dependencies": task.get("dependencies", []),
            "time": message.get("timestamp"),
            "datasets": [
                {
                    "tag": tag,
                    "direction": "input" if begin else "output",
                    "derivations": value.get("derived_from", []),
                    "elements": value.get("attributes", {}),
                }
                for tag, value in values.items()
            ],
        }

    @staticmethod
    def _from_capture_message(message: Dict[str, Any]) -> Dict[str, Any]:
        obj = message.get("object")
        if obj == "dataflow":
            return {
                "type": "dataflow",
                "dataflow_tag": message["dataflow_tag"],
                "event": message.get("event"),
                "time": message.get("timestamp"),
            }
        if obj != "task":
            raise IngestError(f"unknown message object {obj!r}")
        status = message.get("status", "RUNNING")
        return {
            "type": "task",
            "dataflow_tag": message["dataflow_tag"],
            "transformation_tag": message.get("transformation_tag"),
            "task_id": message.get("id"),
            "status": status,
            "dependencies": message.get("dependency", {}).get("tags", []),
            "time": message.get("performance", {}).get("time"),
            "datasets": [
                {
                    "tag": item.get("tag"),
                    "direction": "input" if status == "RUNNING" else "output",
                    "derivations": item.get("dependency", []),
                    "elements": (item.get("elements") or [{}])[0],
                }
                for item in message.get("sets", ())
            ],
        }

    # -- queries ------------------------------------------------------------------
    def query(self, table: str) -> Query:
        """Start a :class:`~repro.dfanalyzer.query.Query` on a table."""
        return Query(self.store, table)

    def dataflow_summary(self, dataflow_tag: str) -> Dict[str, Any]:
        """Run-time view: task counts by status for one dataflow."""
        rows = self.query("tasks").where("dataflow_tag", "==", dataflow_tag).rows()
        by_status: Dict[str, int] = {}
        for row in rows:
            by_status[row["status"]] = by_status.get(row["status"], 0) + 1
        return {
            "dataflow": dataflow_tag,
            "tasks": len(rows),
            "by_status": by_status,
            "spec": self.specs.get(dataflow_tag).describe()
            if dataflow_tag in self.specs
            else None,
        }


class DfAnalyzerHttpService:
    """RESTful facade: POST JSON provenance to ``/pde``-style endpoints."""

    def __init__(self, host, port: int, service: DfAnalyzerService, workers: int = 8):
        from ..http import HttpResponse, HttpServer

        self.service = service

        def handler(request):
            if request.method != "POST":
                return HttpResponse(status=405, reason="Method Not Allowed")
            try:
                payload = json.loads(request.body.decode() or "null")
                count = self.service.ingest(payload)
            except (ValueError, IngestError) as exc:
                return HttpResponse(status=400, reason="Bad Request",
                                    body=str(exc).encode())
            return HttpResponse(status=201, reason="Created",
                                body=json.dumps({"ingested": count}).encode())

        self.server = HttpServer(host, port, handler, workers=workers)

    @property
    def endpoint(self):
        return (self.server.host.name, self.server.port)
