#!/usr/bin/env bash
# Fails when any '|' alternative of a ctest -R pattern matches no test, so a
# renamed or deleted suite cannot silently drop out of a filtered run. The
# pattern's alternatives must be top-level (no '|' inside parentheses).
#
# Usage: tools/check_ctest_filter.sh <build-dir> <pattern>
set -euo pipefail
build=$1
pattern=$2
status=0
IFS='|' read -ra alternatives <<< "$pattern"
for alt in "${alternatives[@]}"; do
  n=$(ctest --test-dir "$build" -N -R "$alt" | sed -n 's/^Total Tests: //p')
  printf '%6s  %s\n' "${n:-0}" "$alt"
  if [ "${n:-0}" -eq 0 ]; then
    echo "error: no test matches '$alt'" >&2
    status=1
  fi
done
exit "$status"
