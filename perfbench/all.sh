#!/bin/sh
# Print every end-to-end metric of every workload, by name and with its
# unit, plus the failed-job fraction.  Run from the repository root:
#     sh perfbench/all.sh [seed] [seconds]
# The seconds default to BENCHMARK.json's run_seconds.
set -e
seconds=${2:-$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")}
for w in $(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do
    out=$(python3 perfbench/run.py --workload "$w" --seed "${1:-0}" --seconds "$seconds" --trace 0)
    printf '%s\n' "$out" | grep -v '^context: ' | sed '$d'
done
