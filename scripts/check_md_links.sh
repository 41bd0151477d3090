#!/bin/sh
# Checks that the root documentation's references into the repository
# resolve:
#
#   links   every relative markdown link ([text](path) without a scheme)
#           points at a file that exists. External http(s) links and
#           pure #anchors are skipped: CI must not depend on the network.
#   paths   every backticked repo path — `internal/…`, `cmd/…`,
#           `scripts/…`, `bench/…`, `results/…`, `.github/…` — names a
#           file or directory that exists. A `:line` or `:from-to`
#           suffix is allowed, only the first word of `cmd/x -flag`
#           is the path, and a pattern (a glob character, `<…>` or an
#           ellipsis) is skipped.
#
# The path check reads the docs that describe the tree as it stands
# (docs, below). CHANGES.md, ROADMAP.md, SNIPPETS.md and PAPERS.md are
# not among them: they hold history and other repositories' paths.
#
#   sh scripts/check_md_links.sh             # check
#   sh scripts/check_md_links.sh --selftest  # prove the check can fail
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--selftest" ]; then
	# Check a scratch copy of the docs against the real tree (linked,
	# not copied), planting one violation of each kind.
	scratch=.bench_build/check_md_links_selftest
	rm -rf "$scratch"
	mkdir -p "$scratch"
	trap 'rm -rf "$scratch"' EXIT
	for f in * .github; do
		case "$f" in
		*.md) cp "$f" "$scratch/" ;;
		scripts) cp -R scripts "$scratch/" ;;
		*) ln -s "$PWD/$f" "$scratch/$f" ;;
		esac
	done
	check() { sh "$scratch/scripts/check_md_links.sh"; }

	# Forms the path check must accept: a line suffix, a range, a
	# command's flags, a glob, an ellipsis, and a stale path in a
	# history file.
	cp README.md "$scratch/README.md.orig"
	# shellcheck disable=SC2016
	printf '%s\n' '`internal/obs/trace.go:12` `cmd/tradebench/main.go:3-9`' \
		'`cmd/tradebench -out-dir runs` `internal/*/doc.go` `scripts/…`' >>"$scratch/README.md"
	# shellcheck disable=SC2016
	printf '%s\n' '`internal/nosuch/gone.go`' >>"$scratch/CHANGES.md"
	if ! check >/dev/null; then
		echo "selftest: the copy with only accepted forms does not pass" >&2
		exit 1
	fi

	expect_fail() { # what, needle
		if out=$(check 2>&1 >/dev/null); then
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

	cp "$scratch/README.md.orig" "$scratch/README.md"
	printf '%s\n' '[gone](docs/nosuch.md)' >>"$scratch/README.md"
	expect_fail "broken link" "README.md: broken link: docs/nosuch.md"

	cp "$scratch/README.md.orig" "$scratch/README.md"
	# shellcheck disable=SC2016
	printf '%s\n' 'see `internal/obs/nosuch/gone.go:12`' >>"$scratch/README.md"
	expect_fail "stale path" "README.md: stale path: internal/obs/nosuch/gone.go:12"

	echo "check_md_links: selftest passed"
	exit 0
fi

docs="README.md DESIGN.md OBSERVABILITY.md EXPERIMENTS.md PAPER.md"
fail=0
for md in *.md; do
	links=$(grep -o -E '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//') || links=
	for link in $links; do
		case "$link" in
		http://* | https://* | mailto:* | '#'*) continue ;;
		esac
		target=${link%%#*}
		[ -n "$target" ] || continue
		if [ ! -e "$target" ]; then
			echo "$md: broken link: $link" >&2
			fail=1
		fi
	done

	case " $docs " in
	*" $md "*) ;;
	*) continue ;;
	esac
	# shellcheck disable=SC2016
	paths=$(grep -o -E '`(internal|cmd|scripts|bench|results|\.github)/[^`]*`' "$md" |
		sed -E 's/^`//; s/`$//; s/ .*//') || continue
	for path in $paths; do
		case "$path" in
		*'*'* | *'?'* | *'['* | *'<'* | *'…'*) continue ;;
		esac
		target=$(printf '%s\n' "$path" | sed -E 's/:[0-9]+(-[0-9]+)?$//')
		if [ ! -e "$target" ]; then
			echo "$md: stale path: $path" >&2
			fail=1
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_md_links: all relative links and backticked repo paths resolve"
