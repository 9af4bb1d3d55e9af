#!/usr/bin/env bash
# Pipeline smoke: run bench/pipeline.exe — Printer/Parse round-trip
# identity over the kernel x variant grid, plus the unroll{f=4}
# value-exactness checks and cycle-parity gate on the banded SpMV
# microbench — and emit BENCH_pipeline.json.
#
# Gates (enforced by pipeline.exe itself, exit 1 on violation):
#   - every kernel x variant listing round-trips (reprint byte-identical
#     AND alpha-structurally equal);
#   - unroll{f=4} outputs are bit-identical to the un-transformed
#     pipeline on every case;
#   - "sparsify,unroll{f=4}" reaches >= MIN_RATIO (default 1.0x,
#     parity-or-better) of the baseline's virtual cycles.
#
# Run directly after `dune build`, or via `dune build @pipeline-smoke`
# (also part of @serve-smoke).
set -euo pipefail

OUT=${1:-BENCH_pipeline.json}
PIPELINE=${PIPELINE:-_build/default/bench/pipeline.exe}
case $PIPELINE in */*) ;; *) PIPELINE=./$PIPELINE ;; esac
TIMEOUT_S=${TIMEOUT_S:-600}
PIPE_ROWS=${PIPE_ROWS:-1000}
PIPE_BAND=${PIPE_BAND:-64}
PIPE_SEED=${PIPE_SEED:-7}
MIN_RATIO=${MIN_RATIO:-1.0}
PIPE_ENGINE=${PIPE_ENGINE:-bytecode}

timeout "$TIMEOUT_S" "$PIPELINE" --engine "$PIPE_ENGINE" "$PIPE_ROWS" \
  "$PIPE_BAND" "$PIPE_SEED" "$MIN_RATIO" >"$OUT"

rt_ok=$(grep -o '"roundtrip_ok": [0-9]*' "$OUT" | grep -o '[0-9]*$')
rt_total=$(grep -o '"roundtrip_total": [0-9]*' "$OUT" | grep -o '[0-9]*$')
gate_ratio=$(grep -o '"unroll_gate_ratio": [0-9.]*' "$OUT" \
  | grep -o '[0-9.]*$')
value_exact=$(grep -o '"value_exact": [a-z]*' "$OUT" | head -1 \
  | grep -o '[a-z]*$')

echo "wrote $OUT (roundtrip=${rt_ok}/${rt_total}," \
  "value_exact=${value_exact}, unroll_gate_ratio=${gate_ratio}x)"
