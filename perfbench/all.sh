#!/bin/sh
# Run every benchmark workload once, untraced, each in its own process.
# Usage: sh perfbench/all.sh [SEED] [SECONDS]
# Exits nonzero if any workload's checks fail.
status=0
for workload in train-cascade infer-cascade-dense; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "${1:-1}" ${2:+--seconds "$2"} --trace 0 || status=1
done
exit $status
