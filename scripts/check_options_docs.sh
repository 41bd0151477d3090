#!/bin/sh
# An option surface that fits its callers. Holds every With* option
# constructor in internal/ (outside obs) to the table in DESIGN.md, "The
# option surface", in both directions, and prints who sets each.
#
#   sh scripts/check_options_docs.sh             # check, print the table
#   sh scripts/check_options_docs.sh --selftest  # prove the check can fail
#
# A constructor is a top-level `func With…` in a non-test file; its name
# in the table is <package>.<Name>. It is set by, in the order reported:
#
#   code   non-test Go under cmd/ or internal/, outside its own package,
#          calling <package>.<Name>(
#   bench  the frozen benchmark: its package's line under "Frozen API
#          surface" in bench/README.md names <Name>(
#   tests  nothing but tests — allowed only when its row says what those
#          tests are for, in a cell starting "tests:"
#
#   constructor => set       one that only tests set, with no "tests:"
#                            reason, fails: delete it with the path it
#                            selects
#   constructor => row       every constructor has a row in the table
#   row => constructor       every row names a constructor that exists
#   the page                 the table has at most 10 rows: an eleventh
#                            option is an edit to maxrows here too
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--selftest" ]; then
	# Plant each kind of violation in a scratch copy and expect exit 1.
	scratch=.bench_build/check_options_selftest
	rm -rf "$scratch"
	mkdir -p "$scratch/bench"
	cp -R internal cmd scripts DESIGN.md "$scratch/"
	cp bench/README.md "$scratch/bench/"
	trap 'rm -rf "$scratch"' EXIT

	if ! sh "$scratch/scripts/check_options_docs.sh" >/dev/null; then
		echo "selftest: the unmodified copy does not pass" >&2
		exit 1
	fi

	expect_fail() { # what, needle
		if out=$(sh "$scratch/scripts/check_options_docs.sh" 2>&1 >/dev/null); then
			echo "selftest: planted $1 was not caught" >&2
			exit 1
		fi
		if ! printf '%s\n' "$out" | grep -q -F "$2"; then
			echo "selftest: planted $1 failed for another reason:" >&2
			printf '%s\n' "$out" >&2
			exit 1
		fi
		echo "selftest: planted $1 -> exit 1 ($2)"
	}

	planted=$scratch/internal/loadgen/planted.go
	printf 'package loadgen\n\nfunc WithX() {}\n' >"$planted"
	expect_fail "uncalled constructor" "set by nothing but tests: loadgen.WithX"
	rm "$planted"

	cp DESIGN.md "$scratch/DESIGN.md.orig"
	# shellcheck disable=SC2016
	printf '| `slicache.WithGone` | off | `cmd/edged` |\n' >>"$scratch/DESIGN.md"
	expect_fail "orphan row" "row names no constructor: slicache.WithGone"
	mv "$scratch/DESIGN.md.orig" "$scratch/DESIGN.md"

	# An eleventh option, set by tests with a stated reason and with its
	# row, breaks only the page limit.
	printf 'package loadgen\n\nfunc WithX() {}\n' >"$planted"
	# shellcheck disable=SC2016
	printf '| `loadgen.WithX` | off | tests: planted |\n' >>"$scratch/DESIGN.md"
	expect_fail "eleventh option" "at most 10"

	echo "check_options_docs: selftest passed"
	exit 0
fi

doc=DESIGN.md
frozen=bench/README.md
maxrows=10
fail=0

# <package>.<Name>, one per line; the package is the directory's name.
constructors=$(grep -rn --include='*.go' --exclude='*_test.go' '^func With' internal |
	grep -v '^internal/obs/' |
	sed -E 's|^internal/([^/]+)/[^:]*:[0-9]+:func (With[A-Za-z0-9_]*).*|\1.\2|' | sort -u)

# The table's rows: lines whose first cell is `<package>.With<Name>`.
rows=$(grep -oE '^\| `[a-z]+\.With[A-Za-z0-9_]*` \|' "$doc" | sed -E 's/^\| `([^`]+)`.*/\1/' | sort)

set_by() { # <package>.<Name>: prints "<kind> <where>" for its first setter
	pkg=${1%%.*}
	name=${1#*.}
	caller=$(grep -rlF --include='*.go' --exclude='*_test.go' "$1(" cmd internal |
		grep -v "^internal/$pkg/" | sort | head -n 1 || true)
	if [ -n "$caller" ]; then
		echo "code $caller"
		return
	fi
	if sed -n '/^## Frozen API surface/,/^## /p' "$frozen" |
		grep -F -- "- \`$pkg\`:" | grep -q -F "$name("; then
		echo "bench $frozen"
	fi
}

echo "option constructor -> set by"
n=0
for c in $constructors; do
	n=$((n + 1))
	row=$(grep -F "| \`$c\` |" "$doc" || true)
	setter=$(set_by "$c")
	if [ -z "$setter" ]; then
		if printf '%s\n' "$row" | grep -q -F '| tests:'; then
			setter="tests (reason in $doc)"
		else
			echo "set by nothing but tests: $c (delete it with the path it selects, or start its 'Set by' cell in $doc with 'tests:' and say what they are for)" >&2
			fail=1
			continue
		fi
	fi
	printf '  %-32s %s\n' "$c" "$setter"
	if [ -z "$row" ]; then
		echo "undocumented option: $c (add its row to \"The option surface\" in $doc)" >&2
		fail=1
	fi
done

for r in $rows; do
	if ! printf '%s\n' "$constructors" | grep -q -F -x "$r"; then
		echo "row names no constructor: $r (delete its row from $doc)" >&2
		fail=1
	fi
done

nrows=$(printf '%s\n' "$rows" | grep -c . || true)
if [ "$nrows" -gt "$maxrows" ]; then
	echo "the option surface no longer fits on a page: $nrows rows in $doc, at most $maxrows" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_options_docs: $n option constructors, each set outside tests or with a stated reason, each with a row in $doc"
