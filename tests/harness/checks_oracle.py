"""The harness's shape checks as they were before they became relations.

Each table and figure driver used to build its ``(description, verdict)``
checks inline, in a different loop each.  They are now declared once as
relations (``repro.harness.relations``) and evaluated by one function.
The verdicts must not change, so this module keeps the previous check
blocks, frozen, as functions over the same ``rows`` (or value dicts) the
drivers computed them from; ``tests/harness/test_relations.py`` compares
them against the relations on drawn values.

Do not edit the bodies: a change here changes what the oracle pins.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

LOW_OVERHEAD_THRESHOLD = 0.03
DURATIONS = (0.5, 1.0, 3.5, 5.0)
GROUPS = (0, 10, 20, 50)
SYSTEMS = ("provlight", "provlake", "dfanalyzer")

Checks = List[Tuple[str, bool]]


def table2(rows) -> Checks:
    checks = []
    for row in rows:
        checks.append(
            (
                f"{row['system']}@{row['attrs']}/{row['duration']}s is high overhead (>3%)",
                row["overhead"] > LOW_OVERHEAD_THRESHOLD,
            )
        )
        checks.append(
            (
                f"{row['system']}@{row['attrs']}/{row['duration']}s within 35% of paper",
                abs(row["overhead"] - row["paper"]) / row["paper"] < 0.35,
            )
        )
    by_key = {(r["system"], r["attrs"], r["duration"]): r["overhead"] for r in rows}
    for attrs in (10, 100):
        for duration in DURATIONS:
            checks.append(
                (
                    f"provlake slower than dfanalyzer @{attrs}/{duration}s",
                    by_key[("provlake", attrs, duration)]
                    > by_key[("dfanalyzer", attrs, duration)],
                )
            )
    return checks


def _by_key(rows) -> Dict:
    return {(r["bandwidth"], r["group"], r["duration"]): r["overhead"] for r in rows}


def table3(rows) -> Checks:
    by_key = _by_key(rows)
    out = []
    for duration in (0.5, 1.0):
        out.append(
            (
                f"1Gbit: grouping 50 reaches low overhead at {duration}s",
                by_key[("1Gbit", 50, duration)] < LOW_OVERHEAD_THRESHOLD,
            )
        )
        out.append(
            (
                f"1Gbit: grouping monotonically helps at {duration}s",
                by_key[("1Gbit", 0, duration)]
                > by_key[("1Gbit", 10, duration)]
                > by_key[("1Gbit", 50, duration)],
            )
        )
        out.append(
            (
                f"25Kbit: overhead stays high (>43%) for all groups at {duration}s",
                all(by_key[("25Kbit", g, duration)] > 0.43 for g in GROUPS),
            )
        )
        ungrouped_factor = by_key[("25Kbit", 0, duration)] / by_key[("1Gbit", 0, duration)]
        out.append(
            (
                f"25Kbit ungrouped is several times worse than 1Gbit at {duration}s",
                ungrouped_factor > 3.0,
            )
        )
    return out


def table7(rows) -> Checks:
    checks: Checks = []
    for row in rows:
        checks.append(
            (
                f"provlight@{row['attrs']}/{row['duration']}s is low overhead (<3%)",
                row["overhead"] < LOW_OVERHEAD_THRESHOLD,
            )
        )
    by_attr = {(r["attrs"], r["duration"]): r["overhead"] for r in rows}
    for attrs in (10, 100):
        for duration in DURATIONS:
            checks.append(
                (
                    f"sub-0.5% overhead for long tasks @{attrs}/{duration}s"
                    if duration >= 3.5
                    else f"overhead under 2% @{attrs}/{duration}s",
                    by_attr[(attrs, duration)] < (0.005 if duration >= 3.5 else 0.02),
                )
            )
    return checks


def table8(rows) -> Checks:
    by_key = _by_key(rows)
    out = []
    for duration in (0.5, 1.0):
        for g in GROUPS:
            out.append(
                (
                    f"low overhead (<2%) at 25Kbit group={g} {duration}s",
                    by_key[("25Kbit", g, duration)] < 0.02,
                )
            )
        for g in GROUPS:
            fast = by_key[("1Gbit", g, duration)]
            slow = by_key[("25Kbit", g, duration)]
            out.append(
                (
                    f"bandwidth-insensitive at group={g} {duration}s",
                    abs(slow - fast) / fast < 0.15,
                )
            )
        out.append(
            (
                f"grouping still helps a little at {duration}s",
                by_key[("1Gbit", 50, duration)] <= by_key[("1Gbit", 0, duration)],
            )
        )
    return out


def table9(rows) -> Checks:
    overheads = {r["devices"]: r["overhead"] for r in rows}
    checks = [
        (
            f"low overhead (<3%) at {n} devices",
            overheads[n] < LOW_OVERHEAD_THRESHOLD,
        )
        for n in sorted(overheads)
    ]
    checks.append(
        (
            "scaling 8->64 devices changes overhead by <20% relative",
            abs(overheads[64] - overheads[8]) / overheads[8] < 0.20,
        )
    )
    return checks


def table10(rows) -> Checks:
    by_key = {(r["system"], r["duration"]): r["overhead"] for r in rows}
    checks: Checks = []
    for row in rows:
        checks.append(
            (
                f"{row['system']}@{row['duration']}s low overhead (<3%) in cloud",
                row["overhead"] < LOW_OVERHEAD_THRESHOLD,
            )
        )
    for duration in DURATIONS:
        checks.append(
            (
                f"provlight fastest in cloud at {duration}s",
                by_key[("provlight", duration)] < by_key[("dfanalyzer", duration)]
                < by_key[("provlake", duration)],
            )
        )
    factor = by_key[("provlake", 0.5)] / by_key[("provlight", 0.5)]
    checks.append(("provlight roughly 7x faster than provlake (3x..20x)", 3.0 < factor < 20.0))
    factor = by_key[("dfanalyzer", 0.5)] / by_key[("provlight", 0.5)]
    checks.append(("provlight roughly 5x faster than dfanalyzer (2.5x..15x)", 2.5 < factor < 15.0))
    return checks


def fig6a(values) -> Checks:
    return [
        ("provlight CPU utilization ~1.7-2%", 0.012 <= values["provlight"] <= 0.025),
        ("provlake uses ~7x more CPU (4x..10x)",
         4.0 < values["provlake"] / values["provlight"] < 10.0),
        ("dfanalyzer uses ~5x more CPU (3x..8x)",
         3.0 < values["dfanalyzer"] / values["provlight"] < 8.0),
    ]


def fig6b(values) -> Checks:
    return [
        ("provlight memory <4% of RAM", values["provlight"] < 0.04),
        ("provlake uses ~2x more memory (1.5x..3x)",
         1.5 < values["provlake"] / values["provlight"] < 3.0),
        ("dfanalyzer uses ~1.9x more memory (1.4x..3x)",
         1.4 < values["dfanalyzer"] / values["provlight"] < 3.0),
    ]


def fig6c(values, float_values) -> Checks:
    return [
        ("provlight transmits the least data",
         values["provlight"] < min(values["provlake"], values["dfanalyzer"])),
        ("baselines transmit at least ~2x more (int attrs)",
         min(values["provlake"], values["dfanalyzer"]) / values["provlight"] > 1.8),
        ("float attrs land near the paper's ~2x (1.5x..4x)",
         1.5 < float_values["provlake"] / float_values["provlight"] < 4.0),
    ]


def fig6d(values_w, base_w) -> Checks:
    overheads = {s: values_w[s] / base_w - 1.0 for s in SYSTEMS}
    return [
        ("provlight power overhead <3%", overheads["provlight"] < 0.03),
        ("baselines cost ~2-2.6x more power overhead (1.5x..3.5x)",
         all(1.5 < overheads[s] / overheads["provlight"] < 3.5
             for s in ("provlake", "dfanalyzer"))),
        ("average watts in the paper's band (1.40-1.52W)",
         all(1.40 < values_w[s] < 1.52 for s in SYSTEMS)),
    ]
