#!/usr/bin/env bash
# Build the daemon and the suite from this checkout, then run the suite:
#
#   bash bench/suite/run.sh --workload hot-count --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout.  Arguments go to `suite.exe run`.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of an EntropyDB checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./bin/entropydb_cli.exe ./bench/suite/suite.exe >&2

exec ./_build/default/bench/suite/suite.exe run \
  --server ./_build/default/bin/entropydb_cli.exe "$@"
