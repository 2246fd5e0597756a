#!/bin/sh
# bench-diff.sh is the wall-clock regression gate: a same-host A/B of the
# optimizer and execution benchmarks, a base revision against the working
# tree.
#
#	sh scripts/bench-diff.sh [BASE]        # or: make bench-diff BASE=<rev>
#
# BASE (default HEAD~1) is checked out in a temporary git worktree. The
# internal/bench test binaries of BASE and of the working tree are built
# once, then run in 10 pairs with the flags of
#
#	go test -short -run '^$' -bench '^Benchmark(Optimize(Fuzz)?|Exec(VM|Wasm))$' -count 1 ./internal/bench
#
# BASE runs first in odd pairs and second in even ones, so an order effect
# (the second run of a pair is often slower on a shared host) falls on
# both sides alike. The script prints each side's median ns/op with its
# interquartile range and fails if the working tree's median is more than
# 10% over BASE's on any benchmark. It also prints each side's median B/op
# and fails if the working tree's is more than 2% over BASE's: allocated
# bytes repeat to within a few bytes from run to run, so the tighter bound
# still only catches real growth. A benchmark BASE does not have is
# skipped, and the script says so. Both sides run on the same host in the
# same minutes, so the verdict tracks the change, not the machine.
set -eu

base=${1:-HEAD~1}
pairs=10
bound_pct=10
bytes_bound_pct=2
pattern='^Benchmark(Optimize(Fuzz)?|Exec(VM|Wasm))$'

cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git worktree add --quiet --detach "$tmp/base" "$base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" ./internal/bench)
go test -c -o "$tmp/change.test" ./internal/bench

# run SIDE appends "benchmark ns/op B/op" lines of one run to $tmp/SIDE.txt.
run() {
	"$tmp/$1.test" -test.short -test.run '^$' \
		-test.bench "$pattern" -test.count 1 -test.benchmem |
		awk '$1 ~ /^Benchmark/ {
			ns = ""; b = ""
			for (i = 2; i < NF; i++) {
				if ($(i+1) == "ns/op") ns = $i
				if ($(i+1) == "B/op") b = $i
			}
			sub(/-[0-9]+$/, "", $1); print $1, ns, b
		}' >>"$tmp/$1.txt"
}
i=1
while [ "$i" -le "$pairs" ]; do
	echo "bench-diff: pair $i/$pairs" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run base
		run change
	else
		run change
		run base
	fi
	i=$((i + 1))
done

# stats SIDE NAME COL prints "median q1 q3" of NAME's samples in column COL
# (2 = ns/op, 3 = B/op).
stats() {
	awk -v name="$2" -v col="$3" '$1 == name { print $col }' "$tmp/$1.txt" | sort -n | awk '
		{ v[NR] = $1 }
		function q(p,  pos, lo) { pos = (NR - 1) * p + 1; lo = int(pos); return v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) }
		END { if (NR > 0) printf "%.0f %.0f %.0f\n", q(0.5), q(0.25), q(0.75) }'
}

# compare UNIT COL BOUND prints one table of medians and fails if any
# working-tree median is more than BOUND% over BASE's.
compare() {
	rc=0
	printf '%-22s %10s  %-23s %10s  %-23s %7s\n' benchmark base "(IQR) $1" change "(IQR) $1" delta
	for name in BenchmarkOptimize BenchmarkOptimizeFuzz BenchmarkExecVM BenchmarkExecWasm; do
		b=$(stats base "$name" "$2")
		c=$(stats change "$name" "$2")
		if [ -z "$b" ]; then
			echo "bench-diff: $name: $base has no such benchmark, skipped" >&2
			continue
		fi
		if [ -z "$c" ]; then
			echo "bench-diff: $name did not run on the working tree" >&2
			rc=1
			continue
		fi
		echo "$name $b $c" | awk -v bound="$3" '{
			d = ($5 - $2) / $2 * 100
			printf "%-22s %10d  %-23s %10d  %-23s %+6.1f%%\n", $1, $2, "(" $3 "-" $4 ")", $5, "(" $6 "-" $7 ")", d
			exit (d > bound)
		}' || rc=1
	done
	return "$rc"
}

fail=0
if ! compare ns/op 2 "$bound_pct"; then
	echo "bench-diff: the change is more than ${bound_pct}% slower than $base" >&2
	fail=1
fi
if ! compare B/op 3 "$bytes_bound_pct"; then
	echo "bench-diff: the change allocates more than ${bytes_bound_pct}% more bytes than $base" >&2
	fail=1
fi
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "bench-diff: within ${bound_pct}% of $base in time and ${bytes_bound_pct}% in bytes ($pairs alternating pairs)"
