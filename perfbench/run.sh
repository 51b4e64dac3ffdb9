#!/bin/sh
# Build the benchmark and the lsml daemon from this checkout (release
# profile), then run one workload:
#   sh perfbench/run.sh --workload grid|exact|serve --seed N --seconds S --trace 0|1
# Build output goes to stderr; stdout carries the stamp and result lines.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: $root is not a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
profile=release
DUNE_CACHE=disabled dune build --profile "$profile" ./perfbench/main.exe ./bin/lsml.exe 1>&2
rev=unknown
if [ -e .git ]; then rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown); fi
exec ./_build/default/perfbench/main.exe --nproc "$(nproc)" --git-rev "$rev" \
  --profile "$profile" --lsml ./_build/default/bin/lsml.exe "$@"
