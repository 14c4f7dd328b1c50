# shellcheck shell=bash
# Every propeller_cli invocation CI runs, one `inv` line each, grouped
# into one function per gate. ci/replay.sh sources this file and runs
# the groups it is given inside OUT/<side>/<group>/.
#
#   inv NAME EXPECTED_EXIT ARGV...
#
# runs "$BIN" ARGV in ./NAME/ with the caller's stdin and records
# stdout, stderr, exit and .wall (wall seconds) there. An unexpected
# exit code fails the gate, and so does a failed `check` (the cmp/grep
# assertions next to the invocations they check). Every path an
# invocation writes is relative, so two replay sides write equal bytes.

GATE_GROUPS=(bench determinism provenance chaos serve slo fleet paper trace surface)
CI_DIR=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

fail() {
    echo "FAIL $SIDE/$GROUP: $*" >&2
    FAILED=1
}

check() { "$@" || fail "check failed: $*"; }

inv() {
    local name=$1 want=$2 code t0=$EPOCHREALTIME
    shift 2
    mkdir -p "$name"
    (cd "$name" && exec "$BIN" "$@" >stdout 2>stderr)
    code=$?
    echo "$code" >"$name/exit"
    awk -v a="$t0" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.3f\n", b - a }' >"$name/.wall"
    printf '%s %-12s %-18s exit %-3s %8s s\n' "$SIDE" "$GROUP" "$name" "$code" "$(<"$name/.wall")"
    [ "$code" = "$want" ] || fail "$name exited $code, expected $want"
}

# The small synthetic workload ci/bench_baseline.json was recorded on.
# perf-report's --scale multiplies clang's 0.0333 default: 0.12 lands
# on the same 0.004 program.
bench() {
    inv run 0 run clang --scale 0.004 --seed 77 --out .
    inv doctor 0 doctor clang --scale 0.004 --seed 77
    inv perf_report 0 perf-report clang --scale 0.12 --seed 77 --top 10 \
        --out perf_report.json --flamegraph-out propeller.folded
    inv baseline_diff 0 diff "$CI_DIR/bench_baseline.json" ../run/run_report.json --tolerance 0.5
    # Arming attribution moves no metric: the attributed report diffs
    # identical to the plain one.
    inv attr 0 run clang --scale 0.004 --seed 77 --out . --flamegraph-out attr.folded
    inv attr_diff 0 diff ../run/run_report.json ../attr/run_report.json --tolerance 0.5
    check grep -q "reports are identical" attr_diff/stdout
}

# Same benchmark, seed and fault plan; only the worker count differs.
determinism() {
    inv j1 0 run clang --seed 77 --jobs 1 --out .
    inv j8 0 run clang --seed 77 --jobs 8 --out .
    check cmp j1/run_report.json j8/run_report.json
    check cmp j1/cc_prof.txt j8/cc_prof.txt
    check cmp j1/ld_prof.txt j8/ld_prof.txt
    inv faults_j1 0 run clang --seed 77 --faults transient=0.5,corrupt-cache=0.5 --jobs 1 --out .
    inv faults_j8 0 run clang --seed 77 --faults transient=0.5,corrupt-cache=0.5 --jobs 8 --out .
    check cmp faults_j1/run_report.json faults_j8/run_report.json
    inv doctor_j8 0 doctor clang --seed 77 --jobs 8
}

# The provenance document is equal at every job count, and arming it
# leaves run_report.json equal to the unarmed committed baseline.
provenance() {
    inv j1 0 run clang --scale 0.004 --seed 77 --provenance --jobs 1 --out .
    inv j8 0 run clang --scale 0.004 --seed 77 --provenance --jobs 8 --out .
    check cmp j1/layout_provenance.json j8/layout_provenance.json
    check cmp j1/run_report.json "$CI_DIR/bench_baseline.json"
    inv self_diff 0 layout-diff ../j1/layout_provenance.json ../j8/layout_provenance.json
    check grep -q "identical: no moved symbols, no diverging decisions" self_diff/stdout
    inv explain 0 explain clang clang_fn92 --seed 77
    check grep -q "sample mass" explain/stdout
    check grep -q "best rejected" explain/stdout
    check grep -q "placed:" explain/stdout
}

# Every scenario completes all four phases, retires the baseline's block
# trace and books every injected fault; anything else exits nonzero.
chaos() {
    inv chaos 0 chaos --seed 77 --out .
}

# The ledger is equal across --jobs, and --verify-batch requires every
# shipped binary to equal a batch relink of its signature.
serve() {
    local plan=burst-amplify=0.4,cancel-job=0.3,drop-queue=0.3,evict-storm=0.4,corrupt-cache=0.3,transient=0.2
    inv j1 0 traffic clang --seed 77 --jobs 1 --verify-batch --out .
    inv j8 0 traffic clang --seed 77 --jobs 8 --verify-batch --out .
    check cmp j1/service_ledger.json j8/service_ledger.json
    inv chaos_j1 0 traffic clang --seed 77 --queue 3 --mean-gap 4 --jobs 1 --faults "$plan" --verify-batch --out .
    inv chaos_j8 0 traffic clang --seed 77 --queue 3 --mean-gap 4 --jobs 8 --faults "$plan" --verify-batch --out .
    check cmp chaos_j1/service_ledger.json chaos_j8/service_ledger.json
    inv soak 0 traffic --soak --verify-batch --jobs 8 --out .
}

# The timeline runs on the modeled clock, so both CSVs are equal across
# --jobs; `slo` exits nonzero on any FAIL against ci/slo.toml.
slo() {
    local shape=(clang --requests 10 --tenants 3 --slots 2 --queue 6 --seed 12648430 --mean-gap 60)
    local storm=(--faults burst-amplify=0.5)
    inv clean_j1 0 timeline "${shape[@]}" --jobs 1 --out .
    inv clean_j8 0 timeline "${shape[@]}" --jobs 8 --out .
    inv storm_j1 0 timeline "${shape[@]}" "${storm[@]}" --jobs 1 --out .
    inv storm_j8 0 timeline "${shape[@]}" "${storm[@]}" --jobs 8 --out .
    for run in clean storm; do
        check cmp "${run}_j1/timeline.csv" "${run}_j8/timeline.csv"
        check cmp "${run}_j1/timeline_sampled.csv" "${run}_j8/timeline_sampled.csv"
    done
    inv slo_clean 0 slo "${shape[@]}" --config "$CI_DIR/slo.toml" --out .
    inv slo_storm 0 slo "${shape[@]}" "${storm[@]}" --config "$CI_DIR/slo.toml" --out .
}

# At --drift 0 the run exits nonzero unless post-warmup ledger rows
# repeat; drift makes the loop translate profiles and take both policy
# decisions. --jobs 2 is the first count at which a release's two arms
# run side by side.
fleet() {
    local prog=(clang --scale 0.004 --releases 6 --seed 77)
    inv zero 0 fleet "${prog[@]}" --drift 0 --out .
    inv zero_j8 0 fleet "${prog[@]}" --drift 0 --jobs 8 --out .
    check cmp zero/fleet_report.json zero_j8/fleet_report.json
    inv drift 0 fleet "${prog[@]}" --drift 0.5 --out .
    for jobs in 2 8; do
        inv "drift_j$jobs" 0 fleet "${prog[@]}" --drift 0.5 --jobs "$jobs" --out .
        check cmp drift/fleet_report.json "drift_j$jobs/fleet_report.json"
    done
    for jobs in 1 2 8; do
        inv "faults_j$jobs" 0 fleet "${prog[@]}" --drift 0.1 --provenance \
            --faults transient=0.5,corrupt-cache=0.5 --jobs "$jobs" --out .
        check cmp faults_j1/fleet_report.json "faults_j$jobs/fleet_report.json"
    done
}

# Every table, figure and ablation of the evaluation at quarter scale.
paper() {
    inv table2 0 table2 --scale 0.25
    inv table3 0 table3 --scale 0.25
    inv table5 0 table5 --scale 0.25
    inv fig4 0 fig4 --scale 0.25
    inv fig5 0 fig5 --scale 0.25
    inv fig6 0 fig6 --scale 0.25
    inv fig7 0 fig7 --scale 0.25
    inv fig8 0 fig8 --scale 0.25
    inv fig9 0 fig9 --scale 0.25
    inv spec-table 0 spec-table --scale 0.25
    inv ablation-split 0 ablation-split --scale 0.25
    inv ablation-interproc 0 ablation-interproc --scale 0.25
    inv ablation-prefetch 0 ablation-prefetch --scale 0.25
}

# The Chrome trace artifact; one worker keeps its lanes replayable.
trace() {
    inv run 0 run clang --scale 0.05 --jobs 1 --trace-out trace.json
}

# The subcommands no other group runs.
surface() {
    inv list 0 list
    inv dump 0 dump clang --scale 0.002
    inv map 0 map clang --scale 0.002
    inv annotate 0 annotate clang clang_fn92 --seed 77
    inv compare 0 compare clang --scale 0.12 --seed 77 --json
    inv serve 0 serve clang --scale 0.002 <<<$'submit t0\nsubmit t1\ndrain\nledger\nshutdown'
    check grep -q "drained: 2 job(s) completed" serve/stdout
}
