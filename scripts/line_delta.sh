#!/usr/bin/env bash
# Net line delta of the program sources against a base ref: lines added and
# removed under src/ + examples/, and under bench/ on a line of its own.
# Compares the working tree (tracked and staged files) with the base, so it
# reports the same numbers before and after committing.
#
# Usage: scripts/line_delta.sh [base]    (default base: HEAD~1)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
base="${1:-HEAD~1}"
cd "$repo"
sha="$(git rev-parse --verify --quiet "$base^{commit}")" ||
  { echo "line_delta: unknown base ref '$base'" >&2; exit 2; }

# Prints "<label> +added -removed net N" for the given pathspecs.
delta() {
  local label="$1"; shift
  git diff --numstat "$sha" -- "$@" | awk -v label="$label" '
    $1 != "-" { add += $1; del += $2 }
    END { printf "%-14s +%d -%d net %+d\n", label, add, del, add - del }'
}

echo "line delta vs $base (${sha:0:12})"
delta "src+examples" src examples
delta "bench" bench
