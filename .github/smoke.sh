#!/usr/bin/env bash
# Smoke test of the CLI as a user runs it; CI runs it on every Python version.
# `verify all` forks its suites over the runner's CPUs, so the pinned run
# (suites in process) must print the same bytes.  The script entry point
# skips interpreter finalization, where `-X dev` reports unclosed files, so
# `main` runs here under a normal shutdown and must write no stderr.
set -eo pipefail
export PYTHONPATH=src
out=$(mktemp -d)
python -m tatecalc.cli verify all --order 64 --json > "$out/unpinned.json"
taskset -c 0 python -m tatecalc.cli verify all --order 64 --json > "$out/pinned.json"
cmp "$out/pinned.json" "$out/unpinned.json"
for args in "verify all --order 24" "report q-integrality --order 16"; do
  python -X dev -W error -c 'import sys; from tatecalc import cli; sys.exit(cli.main(sys.argv[1:]))' \
    $args > /dev/null 2> "$out/stderr.txt"
  if [ -s "$out/stderr.txt" ]; then cat "$out/stderr.txt"; exit 1; fi
done
