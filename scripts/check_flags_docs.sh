#!/bin/sh
# Keeps the command-line surface and its documentation in step:
#
#   1. every flag a cmd/* binary registers is named (as -flag) in
#      README.md, EXPERIMENTS.md or OBSERVABILITY.md;
#   2. every -flag passed to a cmd/* binary by scripts/*.sh, by
#      .github/workflows/ci.yml, or by a fenced example in those three
#      documents is registered by that binary.
#
# Registered flags are read from the fs.<Type>("name", ...) calls in
# cmd/<bin>/*.go, so keep registrations literal. An invocation is a
# command line (backslash continuations joined) that names the binary as
# ./cmd/<bin> or <path>/<bin>; its flags are the -word tokens up to the
# first pipe, redirect or semicolon.
set -eu
cd "$(dirname "$0")/.."

docs="README.md EXPERIMENTS.md OBSERVABILITY.md"
fail=0

registered() {
	grep -hoE 'fs\.[A-Za-z0-9]+\((&[A-Za-z_]+, *)?"[^"]+"' "cmd/$1"/*.go |
		sed -E 's/.*"([^"]+)"$/\1/' | sort -u
}

bins=$(for d in cmd/*/; do basename "$d"; done)

for bin in $bins; do
	for flag in $(registered "$bin"); do
		# shellcheck disable=SC2086
		if ! grep -qE "(^|[^[:alnum:]-])-$flag([^[:alnum:]-]|\$)" $docs; then
			echo "undocumented flag: $bin -$flag (name it in one of: $docs)" >&2
			fail=1
		fi
	done
done

# invocations FILE...: prints "<bin> <flag>" for every flag passed to a
# cmd binary. Markdown files contribute only their fenced blocks.
invocations() {
	awk -v bins="$bins" '
		BEGIN { n = split(bins, b, /[ \n]+/) }
		FNR == 1 { fenced = 0; line = "" }
		FILENAME ~ /\.md$/ {
			if ($0 ~ /^[ \t]*```/) { fenced = !fenced; next }
			if (!fenced) next
		}
		{
			sub(/[ \t]+#.*$/, "")
			if (sub(/\\$/, "")) { line = line $0 " "; next }
			line = line $0
			for (i = 1; i <= n; i++) {
				if (b[i] == "") continue
				re = "/" b[i] "\"?[ \t]"
				if (!match(line, re)) continue
				rest = substr(line, RSTART + RLENGTH)
				sub(/[|;>].*$/, "", rest)
				sub(/&&.*$/, "", rest)
				m = split(rest, tok, /[ \t]+/)
				for (j = 1; j <= m; j++)
					if (tok[j] ~ /^-[a-z]/) {
						f = substr(tok[j], 2)
						sub(/=.*$/, "", f)
						print b[i], f
					}
			}
			line = ""
		}
	' "$@" | sort -u
}

# shellcheck disable=SC2086
unregistered=$(invocations scripts/*.sh .github/workflows/ci.yml $docs | while read -r bin flag; do
	if ! registered "$bin" | grep -qx -- "$flag"; then
		echo "$bin -$flag"
	fi
done)
if [ -n "$unregistered" ]; then
	printf '%s\n' "$unregistered" | sed 's/^/unregistered flag in use: /' >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_flags_docs: every registered flag is documented and every flag in use is registered"
