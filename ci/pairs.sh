#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, judged by
# the gain rule of the choosing-metrics method.
#
#   bash ci/pairs.sh A_BENCH B_BENCH WORKLOAD [PAIRS]
#
# A_BENCH is the parent's propeller-benchmark binary, B_BENCH the
# change's. Runs PAIRS (default 10) pairs of
# `--workload WORKLOAD --seed P --seconds S --trace 0`, pair P seeding
# both sides with P and S being BENCHMARK.json's run_seconds; odd pairs
# run A first, even pairs B first. Then, for every end-to-end metric of
# BENCHMARK.json, prints each side's quartiles, the median change, how
# many pairs B won (ties count for neither side) and a verdict:
#
#   gain        B won at least nine tenths of the pairs and the medians
#               differ by more than A's own quartile distance
#   WORSE       B's median is worse than A's by more than the metric's
#               BENCHMARK.json bound
#   -           neither
#
# Each run's JSON line is kept in a temporary directory named at the
# end. Exits 1 when any run failed an output check or an operation.
set -uo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

[ $# -ge 3 ] || { echo "usage: $0 A_BENCH B_BENCH WORKLOAD [PAIRS]" >&2; exit 2; }
declare -A bins=([A]="$(realpath "$1")" [B]="$(realpath "$2")")
workload=$3
pairs=${4:-10}
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$root/BENCHMARK.json")
out=$(mktemp -d)

# name better bound, one line per end-to-end metric.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' FS=': *' "$root/BENCHMARK.json")

echo "pairs: $pairs pair(s) of $workload, ${seconds} s per run; A=${bins[A]} B=${bins[B]}" >&2
bad=0
for ((p = 1; p <= pairs; p++)); do
    order="A B"
    [ $((p % 2)) = 0 ] && order="B A"
    for side in $order; do
        line=$("${bins[$side]}" --workload "$workload" --seed "$p" --seconds "$seconds" --trace 0 \
            2>"$out/$side.$p.log" | tail -n 1)
        echo "$line" >"$out/$side.$p.json"
        if [[ $line != *'"correct":true'* || $line != *'"failed":0,'* ]]; then
            echo "pairs: pair $p side $side failed a check (see $out/$side.$p.log)" >&2
            bad=1
        fi
        wall=$(grep -o '"wall_s_p50":{"value":[^,}]*' <<<"$line" | cut -d: -f3)
        echo "pairs: pair $p side $side wall_s_p50 ${wall:-?}" >&2
    done
done

# Every run's metrics as `side pair name value` lines.
values() {
    for f in "$out"/[AB].*.json; do
        side=${f##*/}
        side=${side%%.*}
        pair=${f%.json}
        pair=${pair##*.}
        grep -o '"[a-z0-9_]*":{"value":[^,}]*' "$f" | sed 's/"//g; s/:{value:/ /' |
            while read -r name value; do
                echo "$side $pair $name $value"
            done
    done
}

values | awk -v pairs="$pairs" -v metrics="$metrics" '
    function quantile(list, n, q,    pos, lo) {
        pos = (n - 1) * q
        lo = int(pos)
        return lo + 1 < n ? list[lo] + (pos - lo) * (list[lo + 1] - list[lo]) : list[lo]
    }
    function sorted(side, name, list,    n, i, j, t) {
        delete list
        n = 0
        for (i = 1; i <= pairs; i++)
            if ((side, i, name) in v) list[n++] = v[side, i, name]
        for (i = 1; i < n; i++)
            for (j = i; j > 0 && list[j - 1] > list[j]; j--) {
                t = list[j]; list[j] = list[j - 1]; list[j - 1] = t
            }
        return n
    }
    { v[$1, $2, $3] = $4 }
    END {
        printf "%-18s %-6s %12s %12s %12s %12s %12s %12s %9s %7s  %s\n", "metric", "better",
            "A p25", "A p50", "A p75", "B p25", "B p50", "B p75", "change", "B wins", "verdict"
        m = split(metrics, rows, "\n")
        for (r = 1; r <= m; r++) {
            split(rows[r], f, " ")
            name = f[1]; lower = f[2] == "lower"; bound = f[3]
            na = sorted("A", name, a); nb = sorted("B", name, b)
            if (na == 0 || nb == 0) { printf "%-18s missing\n", name; continue }
            a25 = quantile(a, na, 0.25); a50 = quantile(a, na, 0.5); a75 = quantile(a, na, 0.75)
            b25 = quantile(b, nb, 0.25); b50 = quantile(b, nb, 0.5); b75 = quantile(b, nb, 0.75)
            wins = 0
            for (i = 1; i <= pairs; i++)
                if (("A", i, name) in v && ("B", i, name) in v) {
                    d = v["B", i, name] - v["A", i, name]
                    if (lower ? d < 0 : d > 0) wins++
                }
            gap = lower ? a50 - b50 : b50 - a50
            change = a50 != 0 ? 100 * (b50 - a50) / a50 : 0
            verdict = "-"
            if (wins * 10 >= 9 * pairs && gap > a75 - a25) verdict = "gain"
            else if (-gap > bound * (a50 < 0 ? -a50 : a50)) verdict = "WORSE"
            printf "%-18s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+8.2f%% %3d/%-3d  %s\n",
                name, f[2], a25, a50, a75, b25, b50, b75, change, wins, pairs, verdict
        }
    }'
echo "pairs: runs kept in $out" >&2
exit "$bad"
