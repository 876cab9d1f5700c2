"""Memory guard: bytes the column store keeps per ``datasets`` row.

A record's numeric attribute list is stored as a typed array (see
:mod:`repro.dfanalyzer.store`), not as a list of Python objects: 100
small ints cost 180 B instead of 856 B, and 100 floats 880 B instead
of 3.3 KB.  The payloads go the whole server-side way
(wire decode, translation, ingest) inside the traced region, so the
attribute lists are built as a run builds them; everything the
ingested rows do not keep is freed before the count.  Every payload has
the same string table (the task ids are ints), so the codec's bounded
table cache holds one entry and the count is what the store keeps.
"""

import random
import tracemalloc

import pytest

from repro.core import Translator, encode_payload
from repro.dfanalyzer import DfAnalyzerService
from repro.simkernel import Environment

RECORDS = 200
ITEMS_PER_RECORD = 10
ATTRIBUTES = 100

#: tracemalloc bytes kept per ``datasets`` row, by attribute kind; the
#: lists of Python objects kept about 940 B and 3,340 B
BOUNDS = {"int": 400, "float": 1100}


def payloads(kind):
    rng = random.Random(1)

    def attributes():
        if kind == "int":
            return {"in": [rng.randrange(100) for _ in range(ATTRIBUTES)]}
        return {"in": [rng.random() for _ in range(ATTRIBUTES)]}

    return [
        encode_payload({
            "kind": "task_begin", "workflow_id": 1, "task_id": i,
            "transformation_id": 0, "dependencies": [], "time": float(i),
            "data": [{"id": f"in{k}", "workflow_id": 1, "derivations": [],
                      "attributes": attributes()}
                     for k in range(ITEMS_PER_RECORD)],
        })
        for i in range(RECORDS)
    ]


def retained_per_row(kind):
    wire = payloads(kind)
    translator = Translator()
    service = DfAnalyzerService(metrics=Environment().metrics)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for payload in wire:
            _records, translated = translator.translate_payload(payload)
            service.ingest(translated)
        del _records, translated
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(service.store.table("datasets"))
    assert rows == RECORDS * ITEMS_PER_RECORD
    return retained / rows


@pytest.mark.parametrize("kind", sorted(BOUNDS))
def test_a_datasets_row_keeps_its_attributes_compact(kind):
    per_row = retained_per_row(kind)
    assert per_row < BOUNDS[kind], f"{per_row:.0f} B per {kind} row"
