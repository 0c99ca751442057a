#!/usr/bin/env bash
# Print every end-to-end metric of every workload, one run each.
# Usage (from the repository root): bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-50}"
for workload in grid-wide ring-deep sweep-skew; do
  python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
  echo
done
