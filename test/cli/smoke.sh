#!/usr/bin/env bash
# CLI smoke: the verbs that write and read summary files, end to end, in
# a scratch directory.  Every step must exit 0; output is discarded.
#
#   bash test/cli/smoke.sh path/to/entropydb
set -euo pipefail

edb=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/edb-cli-smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT
run() { "$edb" "$@" >/dev/null 2>&1 || { echo "cli smoke: entropydb $* failed" >&2; exit 1; }; }

sql="SELECT COUNT(*) FROM f WHERE distance IN [10,30]"
run generate --dataset flights-coarse --rows 3000 --seed 7 -o "$dir/base.csv"
run generate --dataset flights-coarse --rows 300 --seed 8 -o "$dir/batch.csv"
run build --dataset flights-coarse -i "$dir/base.csv" -o "$dir/flat.summary" --pairs 1 --buckets 40 --sweeps 5
run build --dataset flights-coarse -i "$dir/base.csv" -o "$dir/sharded.summary" --pairs 1 --buckets 40 --sweeps 5 --shards 2
run info "$dir/flat.summary"
run info "$dir/sharded.summary"
# Every query shape (COUNT, SUM, AVG, GROUP BY, OR) and explain, on the
# flat file and the 2-part file.
for part in flat sharded; do
  for q in "$sql" \
    "SELECT SUM(distance) FROM f WHERE fl_time IN [0,20]" \
    "SELECT AVG(distance) FROM f WHERE fl_time IN [0,20]" \
    "SELECT COUNT(*) FROM f WHERE distance IN [10,30] GROUP BY origin_state ORDER BY COUNT(*) DESC LIMIT 3" \
    "SELECT COUNT(*) FROM f WHERE origin_state = 'S00' OR dest_state = 'S01'"; do
    run query -s "$dir/$part.summary" "$q"
  done
  run explain -s "$dir/$part.summary" "$sql"
  run explain -s "$dir/$part.summary" --exact-csv "$dir/base.csv" --dataset flights-coarse "$sql"
done
run ingest -s "$dir/flat.summary" --sweeps 5 "$dir/batch.csv"
run query -s "$dir/flat.summary" "$sql"
run upgrade "$dir/flat.summary" "$dir/upgraded.summary"
run query -s "$dir/upgraded.summary" "$sql"
