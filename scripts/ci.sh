#!/usr/bin/env bash
# Tier-1 CI: the static reproducibility lint, the full test suite under
# the runtime hazard detector, the example smoke tests, then the quick
# perf regression gate.
#
# The examples are the library's public face (and the quickest thing a
# user copies); executing every examples/*.py headlessly means an API
# regression in a user-facing entry point fails the gate even if no
# unit test covers that exact call pattern.
#
# The quick gate re-runs every microbenchmark with capped calibration
# (~seconds, not minutes) and fails on >QUICK_THRESHOLD slowdowns
# against benchmarks/baseline_microbench_codecs.json — so an
# accidental hot-path collapse is caught on every change, not only when
# someone remembers to run the full benchmark suite.  See
# scripts/run_benchmarks.py for the baseline/fingerprint rules.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# static reproducibility lint (AST determinism/hazard checks; see
# docs/static-analysis.md for the rule catalog and suppression grammar)
python scripts/lint.py src tests --format=text

# the suite runs under the simkernel runtime hazard detector: every
# Environment() is a DebugEnvironment, so cross-environment events,
# double triggers, non-monotonic schedules and unretrieved failures
# fail the gate at the misuse site instead of corrupting a run
python -m pytest -x -q --sim-debug

# the four contract examples below run once each, loudly, after the loop
for example in examples/*.py; do
    case "$example" in
        examples/flaky_uplink.py | examples/chaos_fanin.py | \
        examples/continuum_chaos.py | examples/elastic_fanin.py) continue ;;
    esac
    echo "smoke: $example"
    python "$example" > /dev/null
done

# durability smoke: the flaky-uplink example *asserts* zero loss and
# exactly-once ingestion across two partitions, so run it loudly (its
# output is the contract)
echo "durability smoke: examples/flaky_uplink.py"
python examples/flaky_uplink.py

# chaos smoke: the fan-in example kills a broker shard *and* flaps the
# backend link mid-stream, asserting failover + circuit-breaker spill
# recovery end exactly-once — the fault-tolerance contract, run loudly
echo "chaos smoke: examples/chaos_fanin.py"
python examples/chaos_fanin.py

# continuum smoke: the continuum chaos example churns 25% of a tiered
# constrained-edge fleet and cuts the edge<->fog backhaul mid-run,
# asserting journal-replay recovery ends exactly-once — the continuum
# topology contract, run loudly
echo "continuum smoke: examples/continuum_chaos.py"
python examples/continuum_chaos.py

# elasticity smoke: the elastic fan-in example asserts the scaling
# contract — p2c spreads a hash-adversarial CONNECT burst, the
# translator pool grows under load and shrinks back to min, and every
# record lands exactly once across the worker handovers — run loudly
echo "elasticity smoke: examples/elastic_fanin.py"
python examples/elastic_fanin.py

# harness CLI smoke: the server-plane flags are generated from the
# ExperimentSetup field metadata, so drive them end to end once (a
# sharded p2c broker plane plus an elastic pool through Table IX)
echo "harness flags smoke: python -m repro.harness table9"
python -m repro.harness table9 --reps 1 --broker-shards 2 \
    --broker-placement p2c --pool-min 2 --pool-max 4

# relations smoke: drives ProvLake and DfAnalyzer end to end through the
# CLI (their JSON bodies through the HTTP collector's ingest front) and
# checks every relation of the paper's claims outside Tables IV and IX (which
# the smokes around it run)
echo "relations smoke: python -m repro.harness table2 table3 table7 table8 table10 fig6a-d"
python -m repro.harness table2 table3 table7 table8 table10 fig6a fig6b fig6c fig6d --reps 1

# Table IV smoke: runs the PROV-IO and Komadu capture models the paper
# excluded and checks the design limits it cites as relations
echo "table IV smoke: python -m repro.harness table4"
python -m repro.harness table4 --reps 1

python scripts/run_benchmarks.py --quick
