#!/usr/bin/env bash
# Checks that the sigmoid and tanh span kernels in src/nn/tensor.cc still
# vectorize. They are a third of a planning request when they run one
# element at a time, and a small edit (a second select in the exp clamp, a
# branch in the loop body) silently turns them scalar again. Recompiles
# tensor.cc with the build's own command plus -fopt-info-vec-optimized and
# fails unless GCC reports the SigmoidInPlace and the TanhInPlace span
# loop as vectorized.
#
# Usage: scripts/check_activation_vectorized.sh [build-dir]  (default: build)
# The build directory must be configured with
# -DCMAKE_EXPORT_COMPILE_COMMANDS=ON. Run by scripts/tier1.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"
src="src/nn/tensor.cc"

report=$(python3 - "$build/compile_commands.json" "$src" <<'EOF'
import json, os, shlex, subprocess, sys

db, src = sys.argv[1], os.path.realpath(sys.argv[2])
entry = next(e for e in json.load(open(db)) if os.path.realpath(e["file"]) == src)
args = entry.get("arguments") or shlex.split(entry["command"])
args[args.index("-o") + 1] = os.devnull
args.append("-fopt-info-vec-optimized")
run = subprocess.run(args, cwd=entry["directory"], capture_output=True, text=True)
sys.stdout.write(run.stderr)
sys.exit(run.returncode)
EOF
)

for fn in SigmoidInPlace TanhInPlace; do
  # The span loop is the first `for` of the float* overload.
  line=$(awk -v fn="$fn" '$0 ~ "^void " fn "\\(float\\*" { f = 1 }
                          f && /for \(/ { print NR; exit }' "$src")
  if [[ -z "$line" ]]; then
    echo "error: no $fn(float*, n) span loop found in $src" >&2
    exit 1
  fi
  if ! grep -q "tensor\.cc:${line}:[0-9]*: optimized: loop vectorized" <<<"$report"; then
    echo "error: the $fn span loop ($src:$line) no longer vectorizes" >&2
    exit 1
  fi
  echo "$fn span loop ($src:$line) vectorized"
done
