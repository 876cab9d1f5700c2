"""The paper's published numbers, as data.

Every harness table prints these next to the measured values.  Its
checks are relations over sibling runs (:mod:`repro.harness.relations`,
each naming its entry here) that compare *shapes* (who wins, ordering,
rough factors, low/high overhead), not absolute values: the substrate
here is a simulator, not the authors' testbed.

Overheads are fractions (0.569 = 56.9 %).
"""

from __future__ import annotations

__all__ = [
    "TABLE2",
    "TABLE3",
    "TABLE7",
    "TABLE8",
    "TABLE9",
    "TABLE10",
    "FIG6",
    "DURATIONS",
    "GROUPS",
    "LOW_OVERHEAD_THRESHOLD",
]

#: the paper's "low overhead" bar (Section III-A-c)
LOW_OVERHEAD_THRESHOLD = 0.03

DURATIONS = (0.5, 1.0, 3.5, 5.0)
GROUPS = (0, 10, 20, 50)

# Table II: baseline capture overhead on IoT/Edge, by (system, attrs) -> per duration
TABLE2 = {
    ("provlake", 10): {0.5: 0.569, 1.0: 0.299, 3.5: 0.0856, 5.0: 0.0602},
    ("dfanalyzer", 10): {0.5: 0.398, 1.0: 0.212, 3.5: 0.0612, 5.0: 0.0426},
    ("provlake", 100): {0.5: 0.573, 1.0: 0.301, 3.5: 0.0857, 5.0: 0.0604},
    ("dfanalyzer", 100): {0.5: 0.405, 1.0: 0.213, 3.5: 0.0612, 5.0: 0.0431},
}

# Table III: ProvLake grouping impact, (bandwidth, group) -> per duration
TABLE3 = {
    ("1Gbit", 0): {0.5: 0.573, 1.0: 0.301},
    ("1Gbit", 10): {0.5: 0.0683, 1.0: 0.0358},
    ("1Gbit", 20): {0.5: 0.0387, 1.0: 0.0199},
    ("1Gbit", 50): {0.5: 0.0237, 1.0: 0.0124},
    ("25Kbit", 0): {0.5: 3.21, 1.0: 1.61},
    ("25Kbit", 10): {0.5: 1.025, 1.0: 0.498},
    ("25Kbit", 20): {0.5: 1.008, 1.0: 0.5116},
    ("25Kbit", 50): {0.5: 0.9504, 1.0: 0.4323},
}

# Table VII: ProvLight overhead on IoT/Edge, attrs -> per duration
TABLE7 = {
    10: {0.5: 0.0145, 1.0: 0.0102, 3.5: 0.0031, 5.0: 0.0023},
    100: {0.5: 0.0154, 1.0: 0.0111, 3.5: 0.0037, 5.0: 0.0029},
}

# Table VIII: ProvLight grouping impact, (bandwidth, group) -> per duration
TABLE8 = {
    ("1Gbit", 0): {0.5: 0.0154, 1.0: 0.0110},
    ("1Gbit", 10): {0.5: 0.0137, 1.0: 0.0075},
    ("1Gbit", 20): {0.5: 0.0132, 1.0: 0.0072},
    ("1Gbit", 50): {0.5: 0.0131, 1.0: 0.0072},
    ("25Kbit", 0): {0.5: 0.0156, 1.0: 0.0104},
    ("25Kbit", 10): {0.5: 0.0137, 1.0: 0.0074},
    ("25Kbit", 20): {0.5: 0.0134, 1.0: 0.0073},
    ("25Kbit", 50): {0.5: 0.0131, 1.0: 0.0072},
}

# Table IX: ProvLight scalability, devices -> overhead
TABLE9 = {8: 0.0154, 16: 0.0154, 32: 0.0156, 64: 0.0157}

# Table X: cloud-server overhead, system -> per duration (100 attrs)
TABLE10 = {
    "provlake": {0.5: 0.0171, 1.0: 0.0092, 3.5: 0.0034, 5.0: 0.0026},
    "dfanalyzer": {0.5: 0.0117, 1.0: 0.0063, 3.5: 0.0025, 5.0: 0.0021},
    "provlight": {0.5: 0.0024, 1.0: 0.0017, 3.5: 0.0012, 5.0: 0.0011},
}

# Fig. 6: resource overheads during capture (0.5 s tasks, 100 attrs)
FIG6 = {
    "cpu_utilization": {"provlight": 0.0185, "provlake": 0.13, "dfanalyzer": 0.093},
    "cpu_factor_vs_provlight": {"provlake": 7.0, "dfanalyzer": 5.0},
    "memory_fraction": {"provlight": 0.035, "provlake": 0.070, "dfanalyzer": 0.067},
    "memory_factor_vs_provlight": {"provlake": 2.0, "dfanalyzer": 1.9},
    "network_kb_per_s": {"provlight": 3.7},
    "network_factor_vs_provlight": {"provlake": 1.9, "dfanalyzer": 1.8},
    "power_w": {"provlight": 1.43, "provlake": 1.47, "dfanalyzer": 1.49},
    "power_overhead": {"provlight": 0.0258, "provlake": 0.0546, "dfanalyzer": 0.0682},
    "power_factor_vs_provlight": {"provlake": 2.1, "dfanalyzer": 2.6},
}
