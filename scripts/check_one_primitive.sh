#!/usr/bin/env bash
# Lints the primitives that have exactly one home, so a second copy cannot
# drift from the first (JSON escaping once lived in four files, the
# splitmix64 finalizer in five):
#
#   - a definition (or declaration) of JsonEscape  -> src/util/string_util.{h,cc}
#   - a definition of AtomicAddDouble              -> src/util/metrics.h
#   - the splitmix64 constant 0xbf58476d1ce4e5b9   -> src/util/hash.h
#
# Scans src/, bench/, examples/ and tools/. Run by scripts/tier1.sh; exits
# non-zero listing every line outside its home.
set -euo pipefail
cd "$(dirname "$0")/.."

# "pattern @ home" pairs; both are extended regexes, `home` over file paths.
rules=(
  '(std::string|void)[[:space:]]+JsonEscape[[:space:]]*\( @ ^src/util/string_util\.(h|cc)$'
  '(std::string|void)[[:space:]]+AtomicAddDouble[[:space:]]*\( @ ^src/util/metrics\.h$'
  '0xbf58476d1ce4e5b9 @ ^src/util/hash\.h$'
)

bad=0
for rule in "${rules[@]}"; do
  pattern=${rule% @ *}
  home=${rule#* @ }
  while IFS= read -r hit; do
    file=${hit%%:*}
    if ! printf '%s\n' "$file" | grep -qE "$home"; then
      echo "$hit" >&2
      echo "  ^ belongs only in $home" >&2
      bad=1
    fi
  done < <(grep -rniE "$pattern" --include='*.h' --include='*.cc' \
             src bench examples tools || true)
done

if [ "$bad" -ne 0 ]; then
  echo "one-primitive lint FAILED" >&2
  exit 1
fi
echo "one-primitive lint OK"
