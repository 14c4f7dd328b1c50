#!/usr/bin/env bash
# Replays the CI gates of ci/gates.sh with two propeller_cli binaries
# and compares everything they wrote through one mask list.
#
#   bash ci/replay.sh A_BIN B_BIN OUT [GROUP...]
#
# Runs each GROUP (default: all) once per binary, into OUT/a/GROUP and
# OUT/b/GROUP. Exits 0 only when every gate passed on both sides and the
# two trees are byte-equal after masking; otherwise prints the group,
# invocation, file and byte offset (in the masked text) of the first
# difference. A binary against itself checks that every invocation
# replays; a parent's binary against a change's is byte-identity
# evidence for the change.
set -uo pipefail
source "$(dirname "$0")/gates.sh"

# The mask list: the only wall-clock text a comparison excuses.
MASKS=(
    -e 's/wall [0-9.]+ ms/wall _ ms/g'                           # span tree of --trace-out
    -e 's/"(ts|dur)":[0-9.]+/"\1":_/g'                           # trace.json event times
    -e 's/"cat":"(action|span)"/"cat":_/g'                       # and the 0 µs test behind "action"
    -e '/^  \[[A-Z ]{4}\] wall\./d'                              # doctor's wall.* findings
    -e 's/^verdict: profile is (healthy|degraded).*/verdict: _/' # and the WARN they can cause
    -e 's/^(layout computation wall time:).*/\1 _/'              # ablation-interproc's timing
)
mask() {
    case $1 in
    *.wall) ;; # inv's wall seconds
    *) sed -E "${MASKS[@]}" "$1" ;;
    esac
}

[ $# -ge 3 ] || { echo "usage: $0 A_BIN B_BIN OUT [GROUP...]" >&2; exit 2; }
declare -A bins=([a]="$(realpath "$1")" [b]="$(realpath "$2")")
OUT=$3
shift 3
groups=("$@")
[ $# -gt 0 ] || groups=("${GATE_GROUPS[@]}")
for group in "${groups[@]}"; do
    [[ " ${GATE_GROUPS[*]} " == *" $group "* ]] ||
        { echo "unknown group $group; groups: ${GATE_GROUPS[*]}" >&2; exit 2; }
done

gates_failed=0
for side in a b; do
    for group in "${groups[@]}"; do
        rm -rf "${OUT:?}/$side/$group"
        mkdir -p "$OUT/$side/$group"
        (
            cd "$OUT/$side/$group" || exit 1
            BIN=${bins[$side]} SIDE=$side GROUP=$group FAILED=0
            "$group" </dev/null
            exit "$FAILED"
        ) || gates_failed=1
    done
done

# Prints the first difference between OUT/a and OUT/b and returns 1.
compare() {
    local rel out where
    files=0
    while IFS= read -r rel; do
        files=$((files + 1))
        if [ ! -f "$OUT/a/$rel" ] || [ ! -f "$OUT/b/$rel" ]; then
            where="present on one side only"
        elif cmp -s "$OUT/a/$rel" "$OUT/b/$rel"; then
            continue
        elif out=$(cmp <(mask "$OUT/a/$rel") <(mask "$OUT/b/$rel") 2>&1); then
            continue
        else # cmp says `differ: byte|char N` or `EOF on ... after byte N`
            [[ $out =~ (after )?(byte|char)\ ([0-9]+) ]]
            where="${BASH_REMATCH[1]:+one side ends }${BASH_REMATCH[1]:-first differing }byte ${BASH_REMATCH[3]}"
        fi
        IFS=/ read -r group name file <<<"$rel"
        echo "replay: group $group, invocation $name, file $file: $where" >&2
        return 1
    done < <(cd "$OUT" && for side in a b; do (cd "$side" && find "${groups[@]}" -type f); done | LC_ALL=C sort -u)
}

compare
equal=$?
invocations=$(cd "$OUT/a" && find "${groups[@]}" -name exit | wc -l)
echo "replay: ${#groups[@]} group(s), $invocations invocation(s), $files file(s);" \
    "gates $([ $gates_failed = 0 ] && echo "passed on both sides" || echo "FAILED (see FAIL lines)");" \
    "masked trees $([ $equal = 0 ] && echo byte-equal || echo DIFFER)"
[ $gates_failed = 0 ] && [ $equal = 0 ]
