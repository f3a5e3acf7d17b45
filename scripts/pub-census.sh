#!/usr/bin/env bash
# pub-census.sh [max-mentions]
#
# Lists every `pub fn` declared in crates/*/src whose name appears at
# most max-mentions times (default 3, the declaration included) as a
# whole word across the Rust of crates/, src/, tests/, perf/src/ and
# examples/, with the files that name it. A `pub fn` named only by its
# own definition and a test or two is surface without a caller: make it
# crate-private, delete it, or find the caller that keeps it. Same-named
# functions in two places share one count, and a name in a comment
# counts, so a row is a lead to read, not a verdict. Informational:
# prints, never fails a build. Run from the root of the repository.
set -euo pipefail

max=${1:-3}
dirs=(crates src tests perf/src examples)
[ -d crates ] || { echo "pub-census: run from the repository root" >&2; exit 2; }

names=$(grep -rhoE --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
    sed 's/^pub fn //' | sort -u)

# One pass over every identifier: `file:line:token` per word.
grep -rnoE --include='*.rs' '\b[A-Za-z_][A-Za-z0-9_]*\b' "${dirs[@]}" |
awk -F: -v max="$max" -v names="$names" '
BEGIN { n = split(names, list, "\n"); for (i = 1; i <= n; i++) want[list[i]] = 1 }
($3 in want) {
    count[$3]++
    if (!(($3, $1) in seen)) { seen[$3, $1] = 1; files[$3] = files[$3] " " $1 }
}
END {
    for (name in count) if (count[name] <= max) printf "%d %s%s\n", count[name], name, files[name]
}' | sort -k1,1n -k2,2 | awk -v max="$max" '
{ rows++; f = ""; for (i = 3; i <= NF; i++) f = f " " $i; printf "%-32s %2d %s\n", $2, $1, f }
END { printf "\n%d pub fns named %d times or fewer\n", rows, max }'
