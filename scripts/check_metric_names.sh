#!/usr/bin/env bash
# Lints every metric-name string literal in the tree against the naming
# convention the export surface depends on:
#
#   qps.<namespace>.<name>[.<subname>...]   — lowercase [a-z0-9_] segments,
#                                             at least two after "qps"
#
# The Prometheus renderer translates dots to underscores, so an uppercase
# letter or a stray character here would silently produce an invalid or
# colliding exposition series.
#
# It also keeps one ledger per event (DESIGN.md §8): code under src/ feeds
# windowed series only through obs::OwnedCounter / obs::OwnedHistogram,
# so a src/ file outside src/obs/ that reaches WindowRegistry::Global()
# for anything but TakeSnapshot() is reported. Readers in bench/, tools/
# and tests/ are exempt. Run by scripts/tier1.sh; exits non-zero listing
# every offending literal or call.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pull every string literal starting with "qps." out of the sources.
# A literal embedded in a JSON assertion appears as \"qps.foo\" — the
# trailing backslash is stripped before validation.
literals=$(grep -rhoE '"qps\.[^"]*' \
    --include='*.cc' --include='*.h' --include='*.cpp' \
    src bench examples tests tools \
  | sed -e 's/^"//' -e 's/\\$//' \
  | sort -u)

bad=0
while IFS= read -r name; do
  [ -z "$name" ] && continue
  # Dynamic-label prefixes end in "." (code appends a runtime label, e.g.
  # "qps.tenant.requests." + tenant_id). The prefix itself must still be a
  # valid name, and tenant ids are validated to [a-z0-9_] at registration.
  if printf '%s\n' "$name" | grep -qE '^qps(\.[a-z0-9_]+){2,}\.$'; then
    name="${name%.}"
  fi
  if ! printf '%s\n' "$name" | grep -qE '^qps(\.[a-z0-9_]+){2,}$'; then
    echo "bad metric name: $name" >&2
    bad=1
  fi
  # The per-tenant family is a closed set: a typo'd member would fork a
  # new series per tenant and escape every dashboard.
  case "$name" in
    qps.tenant.*)
      member="${name#qps.tenant.}"
      member="${member%%.*}"
      case "$member" in
        requests|shed|latency_ms|count) ;;
        *)
          echo "unknown qps.tenant.* member: $name (allowed:" \
               "requests shed latency_ms count)" >&2
          bad=1
          ;;
      esac
      ;;
    # Health-breaker and retry families are closed sets too: the chaos
    # dashboards alert on exactly these members.
    qps.health.*)
      member="${name#qps.health.}"
      member="${member%%.*}"
      case "$member" in
        state|quarantines|probes|recoveries) ;;
        *)
          echo "unknown qps.health.* member: $name (allowed:" \
               "state quarantines probes recoveries)" >&2
          bad=1
          ;;
      esac
      ;;
    # The ladder family is closed: breaker transitions are counted once,
    # by the qps.health.* series of the ladder's breaker key.
    qps.guarded.*)
      member="${name#qps.guarded.}"
      member="${member%%.*}"
      case "$member" in
        requests|served_neural|served_greedy|served_traditional|fallbacks|\
        circuit_short_circuits|plan_ms) ;;
        *)
          echo "unknown qps.guarded.* member: $name (allowed: requests" \
               "served_neural served_greedy served_traditional fallbacks" \
               "circuit_short_circuits plan_ms)" >&2
          bad=1
          ;;
      esac
      ;;
    qps.serve.retries.*)
      member="${name#qps.serve.retries.}"
      member="${member%%.*}"
      case "$member" in
        attempts|exhausted|success_after_retry) ;;
        *)
          echo "unknown qps.serve.retries.* member: $name (allowed:" \
               "attempts exhausted success_after_retry)" >&2
          bad=1
          ;;
      esac
      ;;
  esac
done <<< "$literals"

# One ledger per event: no hand-held windowed mirrors outside src/obs/.
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  echo "hand-held windowed series (use obs::OwnedCounter/OwnedHistogram):" \
       "$hit" >&2
  bad=1
done < <(grep -rnE 'WindowRegistry::Global\(\)' --include='*.cc' \
           --include='*.h' src \
         | grep -v '^src/obs/' \
         | grep -vE 'WindowRegistry::Global\(\)\.TakeSnapshot\(' || true)

if [ "$bad" -ne 0 ]; then
  echo "metric-name lint FAILED: names must match qps(\\.[a-z0-9_]+){2,}" \
       "and windowed series must be fed through owned metrics" >&2
  exit 1
fi
echo "metric-name lint OK ($(printf '%s\n' "$literals" | wc -l) names)"
