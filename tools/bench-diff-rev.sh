#!/usr/bin/env bash
# bench-diff-rev.sh compares the benchmarks of a git revision with the
# working tree on the same host. It builds the test binaries of the
# root package, internal/sim and internal/core at REV (checked out in a
# temporary git worktree) and in the working tree, runs them in 10
# old/new pairs, the new side first in every other pair so neither
# side always runs on a warmer or cooler host, and compares the
# per-benchmark medians with tools/benchdiff at TOLERANCE percent.
# Both sides share the machine and its load, unlike the committed
# baseline `make bench-diff` compares against, which was recorded on
# another host.
#
#   tools/bench-diff-rev.sh REV BENCH_REGEXP TOLERANCE
#
# The raw outputs stay in results/bench-rev/old.txt and new.txt for
# their B/op and allocs/op, which benchdiff does not print. GO names
# the go command (default go).
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: tools/bench-diff-rev.sh REV BENCH_REGEXP TOLERANCE" >&2
	exit 2
fi
rev=$1 bench=$2 tolerance=$3
go=${GO:-go}
pairs=10
pkgs=(. ./internal/sim ./internal/core)

root=$(git rev-parse --show-toplevel)
cd "$root"
out=results/bench-rev
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/rev" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/rev" "$rev"

for i in "${!pkgs[@]}"; do
	(cd "$tmp/rev" && "$go" test -c -o "$tmp/old$i.test" "${pkgs[$i]}")
	"$go" test -c -o "$tmp/new$i.test" "${pkgs[$i]}"
done

mkdir -p "$out"
: >"$out/old.txt"
: >"$out/new.txt"
# run SIDE TREE runs one side's binaries, each in its package directory
# of TREE (tests read testdata relative to it).
run() {
	for i in "${!pkgs[@]}"; do
		(cd "$2/${pkgs[$i]}" && "$tmp/$1$i.test" -test.run '^$' -test.bench "$bench" \
			-test.benchmem -test.timeout 30m) >>"$out/$1.txt"
	done
}
for p in $(seq "$pairs"); do
	echo "bench-diff-rev: pair $p of $pairs" >&2
	if [ $((p % 2)) -eq 1 ]; then
		run old "$tmp/rev"
		run new "$root"
	else
		run new "$root"
		run old "$tmp/rev"
	fi
done
"$go" run ./tools/benchdiff -tolerance "$tolerance" "$out/old.txt" "$out/new.txt"
