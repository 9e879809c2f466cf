#!/usr/bin/env bash
# Prints the module's size — non-test Go lines (cmd/bdload, its own
# module, and testdata left out), the exported functions and methods
# declared in them, the exported surface as `go doc -short` lines, and
# the entries of TestExportsHaveCallers' allow-list (uncalledExports in
# exports_test.go) — and fails when any number exceeds its limit in
# bench/SIZE.txt. Lower a limit in the PR that earns it; raise one only
# with a reason in CHANGES.md.
set -eu
cd "$(dirname "$0")/.."

declare -A got
sources() { find . -name '*.go' ! -name '*_test.go' ! -path './cmd/bdload/*' ! -path '*/testdata/*' -print0; }
got[go_lines]=$(sources | xargs -0 cat | wc -l)
got[exported_funcs]=$(sources | xargs -0 cat | grep -cE '^func (\([^)]*\) )?[A-Z]')
got[doc_root]=$(go doc -short . | wc -l)
got[doc_transport]=$(go doc -short ./internal/transport | wc -l)
got[doc_ida]=$(go doc -short ./internal/ida | wc -l)
got[uncalled_exports]=$(awk '/^var uncalledExports = /{on = 1; next} on && /^}/{exit} on && /^\t"/{n++} END{print n + 0}' exports_test.go)

fail=0
while read -r key limit; do
	case "$key" in '' | '#'*) continue ;; esac
	echo "$key ${got[$key]} (limit $limit)"
	if [ "${got[$key]}" -gt "$limit" ]; then
		echo "::error::$key ${got[$key]} exceeds the $limit committed in bench/SIZE.txt"
		fail=1
	fi
done <bench/SIZE.txt
exit $fail
