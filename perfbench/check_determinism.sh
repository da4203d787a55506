#!/usr/bin/env bash
# Same-seed determinism check.
#
#   bash perfbench/check_determinism.sh [seed]
#
# Runs every workload twice with the same seed (untraced, 1 s of timed
# work after the deterministic prefix) and compares the "deterministic"
# lines: simulated metrics, ratios, counts and minor words must be
# identical.  Exits non-zero on any difference.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-7}"
status=0
for w in capsule_mix admit_churn admit_fill; do
  a=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 1 --trace 0 | grep '^deterministic')
  b=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 1 --trace 0 | grep '^deterministic')
  if [ "$a" = "$b" ]; then
    echo "same: $a"
  else
    echo "DIFFERENT ($w, seed $seed):"
    diff <(tr ' ' '\n' <<<"$a") <(tr ' ' '\n' <<<"$b") || true
    status=1
  fi
done
exit $status
