#!/usr/bin/env bash
# Smoke test of the CLI as a user runs it; CI runs it on every Python version.
# `verify all` forks its suites over the runner's CPUs, so the pinned run
# (suites in process) must print the same bytes.  The script entry point
# skips interpreter finalization, where `-X dev` reports unclosed files, so
# `main` runs here under a normal shutdown and must write no stderr.
# `--order=N` and the prefix `--ord N` are read by argparse, the canonical
# `--order N` by the CLI's own reader of its grammar table: each command
# must print the same bytes in all three spellings.  Output must not depend
# on the hash seed either (a set or a str-keyed dict iterated into the
# output would): three commands print the same bytes under two seeds.
# `bernoulli(n)` reads one table that its recurrence extends, so forty rising
# indices must cost one build and print what forty falling ones print; a
# series inversion per higher index would run for about a minute.
set -eo pipefail
export PYTHONPATH=src
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
python -m tatecalc.cli verify all --order 64 --json > "$out/unpinned.json"
taskset -c 0 python -m tatecalc.cli verify all --order 64 --json > "$out/pinned.json"
cmp "$out/pinned.json" "$out/unpinned.json"
python -m tatecalc.cli verify all --order=64 --json > "$out/equals.json"
cmp "$out/equals.json" "$out/unpinned.json"
python -m tatecalc.cli verify all --ord 64 --json > "$out/prefix.json"
cmp "$out/prefix.json" "$out/unpinned.json"
for args in "verify all --order 24" "report q-integrality --order 16"; do
  python -X dev -W error -c 'import sys; from tatecalc import cli; sys.exit(cli.main(sys.argv[1:]))' \
    $args > "$out/canonical.txt" 2> "$out/stderr.txt"
  if [ -s "$out/stderr.txt" ]; then cat "$out/stderr.txt"; exit 1; fi
  python -m tatecalc.cli ${args/--order /--order=} > "$out/equals.txt"
  cmp "$out/equals.txt" "$out/canonical.txt"
  python -m tatecalc.cli ${args/--order /--ord } > "$out/prefix.txt"
  cmp "$out/prefix.txt" "$out/canonical.txt"
done
same_across_hash_seeds() {
  PYTHONHASHSEED=0 python -m tatecalc.cli "$@" > "$out/seed0"
  PYTHONHASHSEED=1 python -m tatecalc.cli "$@" > "$out/seed1"
  cmp "$out/seed0" "$out/seed1"
}
same_across_hash_seeds verify all --order 24 --json
same_across_hash_seeds report q-integrality --order 16 --json
same_across_hash_seeds eval "exp(b*T)*geom(cinv)" --order 6 --json
rising=$(seq -s+ -f 'bernoulli(%g)' 473 512)
falling=$(seq -s+ -f 'bernoulli(%g)' 512 -1 473)
timeout 30 python -m tatecalc.cli eval "$rising" > "$out/rising.txt"
timeout 30 python -m tatecalc.cli eval "$falling" > "$out/falling.txt"
cmp "$out/rising.txt" "$out/falling.txt"
