#!/usr/bin/env bash
# Surface counter for ROADMAP item 4's gate ("public API item count and
# total LOC both go down"). Prints six numbers over crates/*/src and
# fails when option_fields, test_only_fn, twins or range_fields exceeds
# its budget in ci/surface_budget.txt, so a new option, a new entry
# point only its own tests call, a new twin or a new hand-made span
# needs the budget edited in the same diff.
#
#   option_fields  pub fields of pub structs named
#                  *Options|*Config|*Params|*Policy|*Model
#   pub_fn         lines starting `pub fn`
#   loc            non-blank, non-`//` lines
#   test_only_fn   pub_fn names that appear as a word in the non-test
#                  text of crates/*/src and benchmark/src only in
#                  their own `fn NAME` (listed on stderr)
#   twins          pub_fn names X with a pub_fn twin named X_traced,
#                  X_logged, X_agg, X_agg_traced, X_with or X_with_*
#                  (listed on stderr): a second entry point for one
#                  body. A twin under another name (`link` and
#                  `link_refs_traced`) is not counted.
#   range_fields   fields of type `Range<u32>` in the non-test structs
#                  (listed on stderr): a span of a flat table kept by
#                  hand instead of a `propeller_obj::Span` from a
#                  `Table`.
#
# pub_fn, loc, test_only_fn and range_fields read the non-test text: each file stops
# at the #[cfg(test)] that opens its `mod tests {` block and skips any
# other #[cfg(test)]-guarded item or statement (through its `;`, or its
# closing brace when it has a body); all four skip every reference.rs
# (test-only reference implementations, compiled under #[cfg(test)] by
# the module that declares them).
#
# test_only_fn goes by name, so it misses a dead function that shares
# its name with a live one (a `parse` nobody calls next to a `parse`
# somebody does).
set -euo pipefail
cd "$(dirname "$0")/.."

rust_files() {
    find "$@" -name '*.rs' ! -path '*/reference.rs' | LC_ALL=C sort
}
files=$(rust_files crates/*/src)

# Prints the non-test, non-blank, non-`//` lines of the files it is given.
non_test() {
    awk '
        FNR == 1 { in_tests = 0; guarded = 0 }
        in_tests { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { guarded = 1; depth = 0; next }
        guarded && /^[[:space:]]*(#\[|\/\/)/ { next }
        guarded && depth == 0 && /^[[:space:]]*mod tests \{/ { in_tests = 1; next }
        guarded {
            line = $0
            depth += gsub(/\{/, "", line) - gsub(/\}/, "", line)
            if (depth <= 0 && /[;}][[:space:]]*$/) guarded = 0
            next
        }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { print }
    ' "$@"
}

# shellcheck disable=SC2086
option_fields=$(awk '
    FNR == 1 { in_struct = 0 }
    /^pub struct [A-Za-z0-9_]*(Options|Config|Params|Policy|Model)( |<|\{|$)/ { in_struct = 1; next }
    in_struct && /^}/ { in_struct = 0 }
    in_struct && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }
' $files)

# shellcheck disable=SC2086
text=$(non_test $files)
loc=$(grep -c '' <<<"$text")
pub_fn=$(grep -c '^[[:space:]]*pub fn ' <<<"$text" || true)

# Every word of the non-test text except the name in `fn NAME`.
# shellcheck disable=SC2046
used=$({ printf '%s\n' "$text"; non_test $(rust_files benchmark/src); } \
    | sed -E 's/(^|[^A-Za-z0-9_])fn [A-Za-z_][A-Za-z0-9_]*/\1/g' \
    | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | LC_ALL=C sort -u)
test_only=$(sed -nE 's/^[[:space:]]*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' <<<"$text" \
    | LC_ALL=C sort -u | LC_ALL=C comm -23 - <(printf '%s\n' "$used"))
test_only_fn=$(grep -c . <<<"$test_only" || true)

twin_list=$(sed -nE 's/^[[:space:]]*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' <<<"$text" \
    | LC_ALL=C sort -u | awk '
        { name[$0] = 1 }
        END {
            for (x in name) for (y in name)
                if (index(y, x "_") == 1 &&
                    substr(y, length(x) + 2) ~ /^(traced|logged|agg|agg_traced|with|with_.*)$/) {
                    print x "/" y
                    break
                }
        }' | LC_ALL=C sort)
twins=$(grep -c . <<<"$twin_list" || true)

# `NAME: Range<u32>` lines between a `struct NAME ... {` line and the
# line that closes it.
range_list=$(awk '
    /(^|[[:space:]])struct [A-Za-z0-9_]+.*\{[[:space:]]*$/ { in_struct = 1; next }
    in_struct && /^[[:space:]]*\}/ { in_struct = 0 }
    in_struct && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?[a-z_][a-z0-9_]*:[[:space:]]*(std::ops::)?Range<u32>/ {
        sub(/^[[:space:]]+/, ""); print
    }
' <<<"$text")
range_fields=$(grep -c . <<<"$range_list" || true)

budget() {
    sed -nE "s/^$1=([0-9]+)$/\1/p" ci/surface_budget.txt
}
echo "option_fields=$option_fields"
echo "pub_fn=$pub_fn"
echo "loc=$loc"
echo "test_only_fn=$test_only_fn"
echo "twins=$twins"
echo "range_fields=$range_fields"
if [ "$test_only_fn" -gt 0 ]; then
    # shellcheck disable=SC2086
    echo "surface: called only by their own tests:" $test_only >&2
fi
if [ "$twins" -gt 0 ]; then
    # shellcheck disable=SC2086
    echo "surface: twin entry points:" $twin_list >&2
fi
if [ "$range_fields" -gt 0 ]; then
    echo "surface: Range<u32> fields:" $range_list >&2
fi
status=0
if [ "$option_fields" -gt "$(budget option_fields)" ]; then
    echo "surface: option_fields $option_fields exceeds the budget of $(budget option_fields) in ci/surface_budget.txt" >&2
    echo "surface: a new option needs two callers that set different values, and the budget raised in the same diff" >&2
    status=1
fi
if [ "$test_only_fn" -gt "$(budget test_only_fn)" ]; then
    echo "surface: test_only_fn $test_only_fn exceeds the budget of $(budget test_only_fn) in ci/surface_budget.txt" >&2
    echo "surface: delete the entry point nothing but its tests calls, or give it a caller" >&2
    status=1
fi
if [ "$twins" -gt "$(budget twins)" ]; then
    echo "surface: twins $twins exceeds the budget of $(budget twins) in ci/surface_budget.txt" >&2
    echo "surface: fold the twin into its base entry point, callers passing what it defaulted" >&2
    status=1
fi
if [ "$range_fields" -gt "$(budget range_fields)" ]; then
    echo "surface: range_fields $range_fields exceeds the budget of $(budget range_fields) in ci/surface_budget.txt" >&2
    echo "surface: make the array a propeller_obj::Table and take the span from Table::close" >&2
    status=1
fi
exit "$status"
