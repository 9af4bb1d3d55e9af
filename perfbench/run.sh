#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash perfbench/run.sh --workload sweep|cold|serve_hot|serve_churn \
#     --seed N --seconds S --trace 0|1
# Run from the repository root; dune's build output goes to stderr and
# the result is the last line of stdout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/dune-project" ] || [ ! -d "$root/lib" ]; then
  echo "perfbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 1
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# The build stays inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root "$root" ./perfbench/main.exe >&2
exec "$root/_build/default/perfbench/main.exe" --root "$root" "$@"
