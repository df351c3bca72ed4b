#!/usr/bin/env bash
# A/B runs of the benchmark: alternating pairs of one cmd/indiss-bench
# workload on a parent revision and on HEAD, then a summary.
#
#   scripts/bench-ab.sh <parent-rev> <workload> <pairs> <first-seed>
#
# Each side is extracted with git archive into a temporary directory
# (under $TMPDIR) and built once with its own cmd/indiss-bench/run.sh;
# every run then executes that binary directly, untraced, for 20 s
# (BENCHMARK.json's run_seconds). Pair i uses seed first-seed+i; the
# parent runs first in even pairs, HEAD in odd ones.
#
# For every run it prints the exit code, the four end-to-end metrics,
# proc.cpu_us_per_lookup, loadgen.late_p90_us (printed before the
# validity guard refuses a run), churn_resurrected (campus-churn only),
# the failed operations of the result line and the run's share of VM
# steal time, read from /proc/stat before and after the run. After a
# pair's rows it prints, as lines starting with "#", the stderr of each
# run that exited non-zero or reported failed operations: the reason the
# benchmark gave for refusing the run, or the failing lookups' errors. A
# pair in which either run exited non-zero or read more than 5% steal is
# run again, at most three times in all; replaced runs stay in the
# output, marked. It ends with each side's median and q1-q3 of every
# metric over the kept pairs (nearest rank, as the benchmark's own
# percentiles), the number of pairs in which HEAD was better, and each
# side's failed operations.
set -euo pipefail

if [ "$#" -ne 4 ]; then
	echo "usage: $0 <parent-rev> <workload> <pairs> <first-seed>" >&2
	exit 2
fi
parent_rev="$1" workload="$2" pairs="$3" first_seed="$4"
cd "$(git rev-parse --show-toplevel)"
parent_sha="$(git rev-parse --verify "$parent_rev^{commit}")"
change_sha="$(git rev-parse --verify "HEAD^{commit}")"

seconds=20
max_steal=5
attempts=3
metrics="setup_s lookup_p50_us lookup_max_qps heap_live_mb proc.cpu_us_per_lookup loadgen.late_p90_us churn_resurrected"
# Direction per metric, in the order above: which way is better.
better="lower lower higher lower lower lower lower"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")"
cleanup() { chmod -R u+w "$tmp" 2>/dev/null || true; rm -rf "$tmp"; }
trap cleanup EXIT

# build extracts one revision and builds its benchmark with run.sh. An
# unknown workload makes the built binary print its usage and exit, so
# run.sh builds without running anything.
build() {
	local side="$1" sha="$2" dir="$tmp/$1"
	mkdir -p "$dir"
	git archive "$sha" | tar -x -C "$dir"
	(cd "$dir" && bash cmd/indiss-bench/run.sh --workload - >/dev/null 2>&1) || true
	if [ ! -x "$dir/.bench_build/indiss-bench" ]; then
		echo "bench-ab: building $side ($sha) failed" >&2
		exit 1
	fi
	echo "bench-ab: built $side $sha" >&2
}

# cpu_times prints the aggregate steal and total jiffies of /proc/stat.
cpu_times() {
	awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
}

# run_one runs one side once and prints one tab-separated row: exit code,
# each of $metrics (or "-" where the run printed none), failed operations
# ("-" without a result line), steal %. A run that exited non-zero or
# reported failed operations leaves its stderr in $tmp/<side>.why.
run_one() {
	local side="$1" seed="$2" out="$tmp/$1.out" rc=0 s0 t0 s1 t1
	read -r s0 t0 < <(cpu_times)
	(cd "$tmp/$side" && ./.bench_build/indiss-bench -workload "$workload" -seed "$seed" \
		-seconds "$seconds" -trace 0) >"$out" 2>"$tmp/$side.err" || rc=$?
	read -r s1 t1 < <(cpu_times)
	local row="$rc" m v
	for m in $metrics; do
		v="$(awk -v w="$workload" -v m="$m" '$1 == w && $2 == m { v = $3 } END { print (v == "" ? "-" : v) }' "$out")"
		row="$row"$'\t'"$v"
	done
	v="$(sed -n 's/^{"correct":[a-z]*,"attempted":[0-9]*,"failed":\([0-9]*\).*/\1/p' "$out")"
	row="$row"$'\t'"${v:--}"
	if [ "$rc" != 0 ] || [ "${v:-0}" -gt 0 ]; then
		cp "$tmp/$side.err" "$tmp/$side.why"
	else
		rm -f "$tmp/$side.why"
	fi
	row="$row"$'\t'"$(awk -v s="$((s1 - s0))" -v t="$((t1 - t0))" 'BEGIN { printf "%.1f", (t > 0 ? 100 * s / t : 0) }')"
	printf '%s\n' "$row"
}

build parent "$parent_sha"
build change "$change_sha"

kept="$tmp/kept.tsv"
: >"$kept"
printf 'bench-ab: %s, %d pairs from seed %d, %d s per run; parent %s, change %s\n' \
	"$workload" "$pairs" "$first_seed" "$seconds" "$parent_sha" "$change_sha"
printf 'pair\tseed\tfirst\tside\texit\t%s\tfailed\tsteal_pct\tkept\n' "$(echo $metrics | tr ' ' '\t')"
for ((i = 0; i < pairs; i++)); do
	seed=$((first_seed + i))
	order="parent change"
	first=P
	if ((i % 2 == 1)); then
		order="change parent"
		first=C
	fi
	for ((try = 1; try <= attempts; try++)); do
		declare -A rows=()
		for side in $order; do
			rows[$side]="$(run_one "$side" "$seed")"
		done
		redo=no
		for side in parent change; do
			rc="$(cut -f1 <<<"${rows[$side]}")"
			steal="$(awk -F'\t' '{ print $NF }' <<<"${rows[$side]}")"
			if [ "$rc" != 0 ] || awk -v s="$steal" -v m="$max_steal" 'BEGIN { exit !(s > m) }'; then
				redo=yes
			fi
		done
		keep=yes
		if [ "$redo" = yes ] && ((try < attempts)); then
			keep="replaced"
		elif [ "$redo" = yes ]; then
			keep="no (out of attempts)"
		fi
		for side in parent change; do
			printf '%d\t%d\t%s\t%s\t%s\t%s\n' "$i" "$seed" "$first" "$side" "${rows[$side]}" "$keep"
			if [ "$keep" = yes ]; then
				printf '%d\t%s\t%s\n' "$i" "$side" "${rows[$side]}" >>"$kept"
			fi
		done
		for side in parent change; do
			if [ -f "$tmp/$side.why" ]; then
				printf '# pair %d, %s, stderr:%s\n' "$i" "$side" "$([ -s "$tmp/$side.why" ] || echo ' (empty)')"
				sed 's/^/#   /' "$tmp/$side.why"
				rm -f "$tmp/$side.why"
			fi
		done
		unset rows
		[ "$redo" = yes ] || break
	done
done

# quantiles prints the nearest-rank q1, median and q3 of stdin's numbers.
quantiles() {
	sort -g | awk '{ v[NR] = $1 }
		function q(k,  i) { i = int((NR * k + 3) / 4); if (i < 1) i = 1; return v[i] }
		END { if (NR == 0) print "- - -"; else print q(1), q(2), q(3) }'
}

echo
printf 'metric\tbetter\tparent median [q1-q3]\tchange median [q1-q3]\tchange/parent\tchange better in\n'
col=4
set -- $better
for m in $metrics; do
	dir="$1"
	shift
	read -r pq1 pmed pq3 < <(awk -F'\t' -v c="$col" '$2 == "parent" && $c != "-" { print $c }' "$kept" | quantiles)
	read -r cq1 cmed cq3 < <(awk -F'\t' -v c="$col" '$2 == "change" && $c != "-" { print $c }' "$kept" | quantiles)
	wins="$(awk -F'\t' -v c="$col" -v d="$dir" '
		{ val[$1 "," $2] = $c; pair[$1] = 1 }
		END {
			n = 0; w = 0
			for (p in pair) {
				a = val[p ",parent"]; b = val[p ",change"]
				if (a == "" || b == "" || a == "-" || b == "-") continue
				n++
				if ((d == "lower" && b + 0 < a + 0) || (d == "higher" && b + 0 > a + 0)) w++
			}
			printf "%d/%d", w, n
		}' "$kept")"
	ratio="$(awk -v a="$pmed" -v b="$cmed" 'BEGIN { if (a + 0 == 0) print "-"; else printf "%.3f", b / a }')"
	printf '%s\t%s\t%s [%s-%s]\t%s [%s-%s]\t%s\t%s\n' "$m" "$dir" "$pmed" "$pq1" "$pq3" "$cmed" "$cq1" "$cq3" "$ratio" "$wins"
	col=$((col + 1))
done
awk -F'\t' -v c="$col" '$c != "-" { f[$2] += $c } END { printf "failed operations in kept runs: parent %d, change %d\n", f["parent"], f["change"] }' "$kept"
