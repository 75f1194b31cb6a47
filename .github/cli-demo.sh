#!/usr/bin/env bash
# Every command line of the README, its "Other verbs" included, through the
# installed `quchain` script.
#
#   bash .github/cli-demo.sh WORKDIR
#
# Everything is written under WORKDIR, so the checkout is left as it was.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$1"
cat > maxcut6.json <<'JSON'
{
  "offset": 0,
  "nodes": [
    {"id": 0, "w": 1}, {"id": 1, "w": 1}, {"id": 2, "w": 1},
    {"id": 3, "w": 1}, {"id": 4, "w": 1}, {"id": 5, "w": 1}
  ],
  "edges": [
    {"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 2, "w": 1},
    {"u": 2, "v": 3, "w": 1}, {"u": 3, "v": 4, "w": 1},
    {"u": 4, "v": 5, "w": 1}, {"u": 0, "v": 4, "w": 1},
    {"u": 1, "v": 3, "w": 1}
  ]
}
JSON
quchain solve --problem maxcut --graph maxcut6.json --p 1 --out params.json
quchain --calib "$repo/src/quchain/data/chain18.json" \
  compile --problem maxcut --graph maxcut6.json \
  --params params.json --out circuit.qasm --layout layout.json
id=$(quchain --store st submit --qasm circuit.qasm --shots 100)
test "$(quchain --store st status "$id")" = completed
quchain --store st result "$id" --problem maxcut --graph maxcut6.json \
  --top 2 --dot solution.dot --hist histogram.csv > result.txt
sed -n 2p result.txt | grep -q ' \*$'  # the best row is flagged

# Node 6 has no edge, so the max-cut model is the same six qubits and the
# bitstring does not cover node 6: it is drawn unfilled.
sed 's/{"id": 5, "w": 1}/{"id": 5, "w": 1}, {"id": 6, "w": 1}/' maxcut6.json > maxcut7.json
quchain --store st result "$id" --problem maxcut --graph maxcut7.json \
  --dot solution7.dot > result7.txt
grep -qx '  6 \[style=filled, fillcolor=white\];' solution7.dot

# A max cut whose only edge weighs 0: the estimate is -0.0, printed as 0.
cat > zero2.json <<'JSON'
{
  "offset": 0,
  "nodes": [{"id": 0, "w": 0}, {"id": 1, "w": 0}],
  "edges": [{"u": 0, "v": 1, "w": 0}]
}
JSON
quchain solve --problem maxcut --graph zero2.json --grid-size 2 > zero2.txt
grep -qx 'objective estimate (max) = 0' zero2.txt

# Graph coloring of a triangle in three colors: nine one-hot qubits, sampled
# with submit --wait, and the DOT file drawn from the best row.
cat > triangle.json <<'JSON'
{
  "offset": 0,
  "nodes": [{"id": 0, "w": 0}, {"id": 1, "w": 0}, {"id": 2, "w": 0}],
  "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 0, "v": 2, "w": 1}, {"u": 1, "v": 2, "w": 1}]
}
JSON
coloring=(--problem coloring --graph triangle.json --colors 3)
quchain solve "${coloring[@]}" --grid-size 8 --out coloring.json
quchain compile "${coloring[@]}" --params coloring.json --out coloring.qasm
quchain --store st submit --qasm coloring.qasm --shots 200 --wait > coloring.txt
head -n 1 coloring.txt | grep -qE '^task [0-9a-f]{32}: completed$'
test "$(tail -n +2 coloring.txt | awk '{ n += $2 } END { print n }')" -eq 200
cid=$(head -n 1 coloring.txt | cut -d' ' -f2 | tr -d :)
quchain --store st result "$cid" "${coloring[@]}" --dot coloring.dot > coloring-result.txt
test "$(grep -c 'fillcolor=' coloring.dot)" -eq 3  # one line per vertex
grep -qx '  0 -- 1;' coloring.dot && grep -qx '  1 -- 2;' coloring.dot

# Other verbs.
quchain bench --sizes 10,20,30 --densities 0.3,0.8 --p-list 1 --reps 20 --out bench.csv
test "$(wc -l < bench.csv)" -eq 127  # header, 3 sizes x 2 densities x 20 reps, 6 cell means
quchain --calib "$repo/src/quchain/data/chain10.json" chains > chains.txt
grep -q '^k=10: ' chains.txt  # the whole 10-qubit chain is one stored chain
