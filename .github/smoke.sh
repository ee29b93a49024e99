#!/usr/bin/env bash
# Smoke test of the CLI as a user runs it; CI runs it on every Python version.
# `verify all` forks its suites over the runner's CPUs, so the pinned run
# (suites in process) must print the same bytes.  The script entry point
# skips interpreter finalization, where `-X dev` reports unclosed files, so
# `main` runs here under a normal shutdown and must write no stderr.
# `--order=N` and the prefix `--ord N` are read by argparse, the canonical
# `--order N` by the CLI's own reader of its grammar table: each command
# must print the same bytes in all three spellings.
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
