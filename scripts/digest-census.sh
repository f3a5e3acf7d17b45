#!/usr/bin/env bash
# digest-census.sh
#
# Lists every non-test `impl App for …` and `impl PacketHook for …` in
# crates/*/src that does not override `digest`, one `file:line type` row
# each. Non-test means: before the file's first `#[cfg(test)]`. An
# app or hook that keeps the trait's empty default is invisible to
# `Sim::state_digest`, so a divergence in its state shows only once it
# reaches an output (and `planp diverge` cannot name it). A type with no
# state a run carries forward writes `fn digest(&self, _: &mut Fnv) {}`
# and a comment saying so. The last line is the row count; CI fails
# above 0. Run from the root of the repository.
set -euo pipefail

[ -d crates ] || { echo "digest-census: run from the repository root" >&2; exit 2; }

find crates/*/src -name '*.rs' | sort | xargs awk '
FNR == 1 { live = 1; open = 0 }
/^#\[cfg\(test\)\]/ { live = 0 }
!live { next }
open && $0 ~ ("^" indent "}") {
    if (!seen) { printf "%s:%d %s\n", file, line, type; rows++ }
    open = 0
}
open && /fn digest\(/ { seen = 1 }
!open && /^[ \t]*impl.*[^A-Za-z_](App|PacketHook) for / {
    match($0, /^[ \t]*/); indent = substr($0, 1, RLENGTH)
    type = $0; sub(/.* for /, "", type); sub(/[ {].*/, "", type)
    file = FILENAME; line = FNR; open = 1; seen = 0
    if ($0 ~ /}[ \t]*$/) { printf "%s:%d %s\n", file, line, type; rows++; open = 0 }
}
END { printf "\n%d App/PacketHook impls without a digest\n", rows + 0 }'
