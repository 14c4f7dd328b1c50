#!/usr/bin/env bash
# Surface counter for ROADMAP item 4's gate ("public API item count and
# total LOC both go down"). Prints three numbers over crates/*/src and
# fails only when option_fields exceeds ci/surface_budget.txt, so a new
# option needs the budget edited in the same diff.
#
#   option_fields  pub fields of pub structs named
#                  *Options|*Config|*Params|*Policy|*Model
#   pub_fn         lines starting `pub fn`
#   loc            non-blank, non-`//` lines
#
# pub_fn and loc stop at the #[cfg(test)] that opens a file's
# `mod tests {` block and skip any other #[cfg(test)]-guarded item or
# statement (through its `;`, or its closing brace when it has a body);
# all three skip every reference.rs (test-only reference
# implementations, compiled under #[cfg(test)] by the module that
# declares them).
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates/*/src -name '*.rs' ! -path '*/reference.rs' | LC_ALL=C sort)

# shellcheck disable=SC2086
option_fields=$(awk '
    FNR == 1 { in_struct = 0 }
    /^pub struct [A-Za-z0-9_]*(Options|Config|Params|Policy|Model)( |<|\{|$)/ { in_struct = 1; next }
    in_struct && /^}/ { in_struct = 0 }
    in_struct && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }
' $files)

# shellcheck disable=SC2086
read -r pub_fn loc < <(awk '
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
    { loc++ }
    /^[[:space:]]*pub fn / { fns++ }
    END { print fns + 0, loc + 0 }
' $files)

budget=$(grep -E '^[0-9]+$' ci/surface_budget.txt)
echo "option_fields=$option_fields"
echo "pub_fn=$pub_fn"
echo "loc=$loc"
if [ "$option_fields" -gt "$budget" ]; then
    echo "surface: option_fields $option_fields exceeds the budget of $budget in ci/surface_budget.txt" >&2
    echo "surface: a new option needs two callers that set different values, and the budget raised in the same diff" >&2
    exit 1
fi
