#!/bin/sh
# Every signal has a reader, or it goes. Checks, in both directions, the
# metric families the code registers against the places that read them,
# prints the family -> reader table, and keeps OBSERVABILITY.md in step.
#
#   sh scripts/check_metrics_docs.sh             # check, print the table
#   sh scripts/check_metrics_docs.sh --selftest  # prove the check can fail
#
# A family is registered by a literal call in non-test code:
#
#   <registry>.Counter/Gauge/Histogram("family")
#   <registry>.LabeledCounter("family", "key")   documented as family{key=<key>}
#
# Any other argument shape is an error (the two the obs layer itself
# needs are listed below), so a dynamically built name cannot evade the
# extraction.
#
# A reader is one of, in the order the table reports them:
#
#   code  non-test Go outside internal/obs that indexes the name out of
#         a snapshot — .Counters["…"], .Gauges["…"], .Histograms["…"] —
#         or asks for a labeled family's children, labeledByValue(…, "…")
#   gate  a script under scripts/ (not this one) or ci.yml naming it
#   doc   a worked example: a fenced block in OBSERVABILITY.md or
#         EXPERIMENTS.md holding a /metrics line with its value,
#         "counter <name> …", "gauge <name> …" or "hist <name> …"
#
# Being listed in OBSERVABILITY.md's metric reference is not a reader,
# and neither is a test: a family only a _test.go file reads is counted
# for nobody who runs the system, and a test can check the behaviour
# through a signal that has a reader instead.
#
#   registered => read        a family with no reader fails
#   read => registered        a name that code or a test outside
#                             internal/obs indexes, and no code
#                             registers, fails (it would read as a
#                             silent zero)
#   registered => documented  the family's row in OBSERVABILITY.md must
#                             exist and name the reader the table reports
#
# Span histograms (span.<name>, one per obs.StartSpan site) are read as
# a family by prefix in internal/harness/measure.go (the per-pass latency
# breakdown); each span name, and each forensic event type, must be
# documented by name.
#
#   documented => started     a row of the span-site table must name a
#                             span some code starts (a <…> pattern row
#                             stands for several and is skipped)
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--selftest" ]; then
	# Plant each kind of violation in a scratch copy and expect exit 1.
	scratch=.bench_build/check_metrics_selftest
	rm -rf "$scratch"
	mkdir -p "$scratch/.github"
	cp -R internal cmd scripts OBSERVABILITY.md EXPERIMENTS.md "$scratch/"
	cp -R .github/workflows "$scratch/.github/"
	trap 'rm -rf "$scratch"' EXIT

	if ! sh "$scratch/scripts/check_metrics_docs.sh" >/dev/null; then
		echo "selftest: the unmodified copy does not pass" >&2
		exit 1
	fi

	expect_fail() { # what, needle
		if out=$(sh "$scratch/scripts/check_metrics_docs.sh" 2>&1 >/dev/null); then
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
	printf 'package loadgen\n\nimport "edgeejb/internal/obs"\n\nvar planted = obs.Default.Counter("x.unread")\n' >"$planted"
	expect_fail "unread family" "no reader: x.unread"

	printf 'package loadgen\n\nimport (\n\t"testing"\n\n\t"edgeejb/internal/obs"\n)\n\nfunc TestPlanted(t *testing.T) { _ = obs.Default.Snapshot().Counters["x.testonly"] }\n' >"${planted%.go}_test.go"
	printf 'package loadgen\n\nimport "edgeejb/internal/obs"\n\nvar planted = obs.Default.Counter("x.testonly")\n' >"$planted"
	expect_fail "family only a test reads" "no reader: x.testonly"
	rm -f "${planted%.go}_test.go"

	printf 'package loadgen\n\nimport "edgeejb/internal/obs"\n\nfunc planted(s obs.Snapshot) uint64 { return s.Counters["x.unregistered"] }\n' >"$planted"
	expect_fail "read-but-unregistered name" "read but not registered: x.unregistered"

	printf 'package loadgen\n\nimport "edgeejb/internal/obs"\n\nfunc planted(p string) { obs.Default.Counter(p + "built").Inc() }\n' >"$planted"
	expect_fail "dynamically built name" "non-literal registration"

	rm -f "$planted"
	# shellcheck disable=SC2016
	awk '{ print } /^\| `sqlstore\.apply` \|/ { print "| `sqlstore.planted` | db | sqlstore | a span no code starts |" }' \
		OBSERVABILITY.md >"$scratch/OBSERVABILITY.md"
	expect_fail "stale span row" "stale span row: sqlstore.planted"

	echo "check_metrics_docs: selftest passed"
	exit 0
fi

doc=OBSERVABILITY.md
fail=0
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

src() { # grep over non-test Go sources; args are grep args then dirs
	grep -r --include='*.go' --exclude='*_test.go' "$@"
}

# --- registered families ---------------------------------------------------

plain=$(src -hoE '\.(Counter|Gauge|Histogram)\("[^"]+"\)' internal cmd |
	sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u)
labeled=$(src -hoE '\.LabeledCounter\("[^"]+", *"[^"]+"\)' internal cmd |
	sed -E 's/.*\("([^"]+)", *"([^"]+)"\)/\1 \2/' | sort -u)
families=$(
	{
		printf '%s\n' "$plain"
		printf '%s\n' "$labeled" | cut -d' ' -f1
	} | grep -v '^$' | sort -u
)

# Registrations must be literal. The two exceptions are the obs layer's
# own: a labeled family minting a child, and Span.End's span.<name>.
src -nE '\.(Counter|Gauge|Histogram|LabeledCounter)\([^)]' internal cmd |
	grep -vE '\.(Counter|Gauge|Histogram)\("[^"]+"\)|\.LabeledCounter\("[^"]+", *"[^"]+"\)' |
	grep -vE '^internal/obs/labeled\.go:.*f\.r\.Counter\(labelName\(|^internal/obs/trace\.go:.*Histogram\("span\." \+' >"$tmp" || true
if [ -s "$tmp" ]; then
	echo "non-literal registration (keep metric names literal so this check stays sound):" >&2
	cat "$tmp" >&2
	fail=1
fi

# --- names read --------------------------------------------------------------

index='(Counters|Gauges|Histograms)\["[^"]+"\]|labeledByValue\([^,()]+, *"[^"]+"\)'
names_in() { # file: the families it indexes, labels stripped
	grep -hoE "$index" "$1" | sed -E 's/.*"([^"{]+)[^"]*".*/\1/' | sort -u
}
code_files=$(src -lE "$index" internal cmd | grep -v '^internal/obs/' | sort || true)
test_files=$(grep -rlE --include='*_test.go' "$index" . |
	sed 's|^\./||' | grep -vE '^(internal/obs/|bench/|\.bench_build/)' | sort || true)

reader_of() { # family: prints "<kind> <where>" for its first reader
	for f in $code_files; do
		if names_in "$f" | grep -q -F -x "$1"; then
			echo "code $f"
			return
		fi
	done
	for f in scripts/*.sh .github/workflows/ci.yml; do
		[ "$f" = scripts/check_metrics_docs.sh ] && continue
		if grep -qE "(^|[^A-Za-z0-9_.])$(printf '%s' "$1" | sed 's/\./\\./g')([^A-Za-z0-9_]|\$)" "$f"; then
			echo "gate $f"
			return
		fi
	done
	for f in OBSERVABILITY.md EXPERIMENTS.md; do
		if awk -v name="$1" '
			/^[ \t]*```/ { fenced = !fenced; next }
			fenced && ($1 == "counter" || $1 == "gauge" || $1 == "hist") {
				n = $2; sub(/\{.*/, "", n)
				if (n == name) found = 1
			}
			END { exit !found }' "$f"; then
			echo "doc $f"
			return
		fi
	done
}

# --- registered => read, registered => documented ---------------------------

echo "metric family -> reader"
nfam=0
for fam in $families; do
	nfam=$((nfam + 1))
	reader=$(reader_of "$fam")
	if [ -z "$reader" ]; then
		echo "no reader: $fam (nothing indexes it, gates on it or shows its value: delete it with its call sites)" >&2
		fail=1
		continue
	fi
	printf '  %-34s %s\n' "$fam" "$reader"
	docname=$fam
	key=$(printf '%s\n' "$labeled" | awk -v f="$fam" '$1 == f { print $2 }')
	if [ -n "$key" ] && ! printf '%s\n' "$plain" | grep -q -F -x "$fam"; then
		docname="$fam{$key=<$key>}"
	fi
	row=$(grep -F "| \`$docname\` |" "$doc" || true)
	if [ -z "$row" ]; then
		echo "undocumented metric: $docname (add its row to $doc)" >&2
		fail=1
	elif ! printf '%s\n' "$row" | grep -q -F "\`${reader#* }\`"; then
		echo "stale reader column: $docname is read by ${reader#* } (say so in its row in $doc)" >&2
		fail=1
	fi
done
printf '  %-34s %s\n' "span.<name>" "code internal/harness/measure.go (by prefix)"

# --- read => registered ------------------------------------------------------

spans=$(src -hoE 'obs\.StartSpan\([^,]+, "[^"]+"' internal cmd |
	sed -E 's/.*, "([^"]+)".*/span.\1/' | sort -u)
for f in $code_files $test_files; do
	for name in $(names_in "$f"); do
		if ! printf '%s\n%s\n' "$families" "$spans" | grep -q -F -x "$name"; then
			echo "read but not registered: $name (indexed in $f, registered literally nowhere: it reads as zero)" >&2
			fail=1
		fi
	done
done

# --- documentation of spans, event types, artifacts, summary prefixes -------

for name in $spans; do
	if ! grep -q -F "\`$name\`" "$doc"; then
		echo "undocumented span histogram: $name (add it to $doc)" >&2
		fail=1
	fi
done

# shellcheck disable=SC2016
rows=$(awk '
	/^\| span \| tier \| where \| covers \|/ { table = 1; next }
	table && !/^\|/ { exit }
	table' "$doc" | sed -nE 's/^\| `([^`<]+)` \|.*/\1/p')
nrows=0
for name in $rows; do
	nrows=$((nrows + 1))
	if ! printf '%s\n' "$spans" | grep -q -F -x "span.$name"; then
		echo "stale span row: $name (in $doc's span table, but no code starts it: delete the row)" >&2
		fail=1
	fi
done
if [ "$nrows" -eq 0 ]; then
	echo "no span rows found under $doc's '| span | tier | where | covers |' header" >&2
	fail=1
fi

event_types=$(src -hoE 'Event[A-Za-z]+ EventType = "[^"]+"' internal/obs |
	sed -E 's/.*"([^"]+)".*/\1/' | sort -u)
for t in $event_types; do
	if ! grep -q -F "\`$t\`" "$doc"; then
		echo "undocumented event type: $t (add it to $doc)" >&2
		fail=1
	fi
done

# Artifact files downstream tooling depends on by name: the perf gate
# loads summary.json, CI reads MANIFEST.json and the Perfetto trace.
for artifact in summary.json MANIFEST.json trace.perfetto.json waterfalls.txt; do
	if ! grep -q -F "\`$artifact\`" "$doc"; then
		echo "undocumented artifact: $artifact (add it to $doc)" >&2
		fail=1
	fi
done

# The summary.json namespace: the prefixes benchdiff prints and the CI
# perf gate compares against its baseline. Renaming one in the summary
# builder without updating the docs (and the baseline) turns its exact
# rows into an added and a removed row, which the gate does not judge.
for prefix in latency. sensitivity. wire. throughput. shards. cache. resource.; do
	if ! src -hoF "\"$prefix" internal/harness >/dev/null; then
		echo "summary metric prefix no longer built: $prefix (update $doc and results/baseline)" >&2
		fail=1
	fi
	if ! grep -q -F "\`$prefix" "$doc"; then
		echo "undocumented summary metric prefix: $prefix (add it to $doc)" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_metrics_docs: $nfam registered families, each with a reader and a row in $doc; $nrows span rows, each started"
