#!/usr/bin/env bash
# Lints every `mutable` data member under src/ against the rule that makes
# `const` mean thread-safe (planner_api.h): a const method may run on many
# threads at once, so anything it can write must be synchronized. A
# mutable member passes when it is
#
#   - itself a synchronization primitive or atomic (std::mutex,
#     std::shared_mutex, std::atomic<...>, std::atomic_flag,
#     std::once_flag, std::condition_variable), or
#   - documented on the same line as "guarded by <mutex>", where <mutex>
#     is a mutex member declared in the same file.
#
# Anything else (a lazily filled cache, a plain counter) is reported.
# Run by scripts/tier1.sh; exits non-zero listing every offending line.
set -euo pipefail
cd "$(dirname "$0")/.."

# "path:member" entries exempt from the rule. Keep it empty: fix the member
# instead (precompute it, make it atomic, or guard it with a mutex).
allowlist=()

bad=0
while IFS= read -r hit; do
  file=${hit%%:*}
  rest=${hit#*:}
  lineno=${rest%%:*}
  text=${rest#*:}
  decl=$(printf '%s\n' "$text" | sed -E 's/^[[:space:]]*mutable[[:space:]]+//')
  case "$decl" in
    std::mutex\ *|std::shared_mutex\ *|std::atomic\<*|std::atomic_flag\ *|\
    std::once_flag\ *|std::condition_variable\ *|std::condition_variable_any\ *)
      continue
      ;;
  esac
  member=$(printf '%s\n' "$decl" | sed -nE 's/^[^;={]*[[:space:]&*]([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*([;={].*)?$/\1/p')
  allowed=0
  for entry in "${allowlist[@]+"${allowlist[@]}"}"; do
    [ "$entry" = "$file:$member" ] && allowed=1
  done
  [ "$allowed" = 1 ] && continue
  guard=$(printf '%s\n' "$text" | sed -nE 's/.*guarded by ([A-Za-z_][A-Za-z0-9_]*).*/\1/p')
  if [ -n "$guard" ]; then
    if grep -qE "std::(shared_|recursive_)?mutex[[:space:]]+${guard}[[:space:]]*;" "$file"; then
      continue
    fi
    echo "$file:$lineno: '$member' is guarded by '$guard', which is not a" \
         "mutex member of this file" >&2
    bad=1
    continue
  fi
  echo "$file:$lineno: mutable member '$member' is neither a mutex nor an" \
       "atomic, and its line does not say 'guarded by <mutex>'" >&2
  bad=1
done < <(grep -rnE '^[[:space:]]*mutable[[:space:]]' --include='*.h' \
           --include='*.cc' src)

if [ "$bad" -ne 0 ]; then
  echo "mutable-member lint FAILED" >&2
  exit 1
fi
echo "mutable-member lint OK"
