#!/usr/bin/env bash
# Output gate: run every benchmark workload once on the register of each
# seed given and fail unless perfbench/run.py finds the result tables
# equal to perfbench/reference.json. Graph files are reported, not gated:
# the cache meta may grow. Logs go to $RUNNER_TEMP, or a temp directory.
#
#   usage: .github/output-gate.sh SEED...
set -euo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 SEED..." >&2
  exit 1
fi
cd "$(dirname "$0")/.."
logs="${RUNNER_TEMP:-$(mktemp -d)}"
for seed in "$@"; do
  log="$logs/gate-$seed.log"
  python3 perfbench/run.py --workload all --seed "$seed" --seconds 0 | tee "$log"
  if grep -q "graph files differ from the seed reference" "$log"; then
    echo "::warning title=Graph files::GraphML, cache or community GEXF bytes differ from the seed reference at seed $seed (see the gate log)"
  fi
  tail -n 1 "$log" | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'
done
