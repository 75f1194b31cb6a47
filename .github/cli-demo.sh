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
quchain solve --problem maxcut --graph maxcut6.json --p 1 --out params.json > solve1.txt
# Depth 2 interpolates from the p=1 optimum and refines by Nelder-Mead: its
# energy is no higher.
quchain solve --problem maxcut --graph maxcut6.json --p 2 > solve2.txt
e1=$(sed -n 's/^E_p = //p' solve1.txt)
e2=$(sed -n 's/^E_p = //p' solve2.txt)
awk -v a="$e1" -v b="$e2" 'BEGIN { exit !(a != "" && b != "" && b + 0 <= a + 0) }'
compile6=(--calib "$repo/src/quchain/data/chain18.json"
  compile --problem maxcut --graph maxcut6.json --params params.json)
quchain "${compile6[@]}" --out circuit.qasm --layout layout.json > compile.txt
# The printed CNOT count is the number of cx lines written, and compiling
# again writes the same bytes.
test "$(sed -n 's/^cnot_count = //p' compile.txt)" -eq "$(grep -c '^cx ' circuit.qasm)"
quchain "${compile6[@]}" --out circuit-again.qasm > /dev/null
cmp circuit.qasm circuit-again.qasm
id=$(quchain --store st submit --qasm circuit.qasm --shots 100)
test "$(quchain --store st status "$id")" = completed
quchain --store st result "$id" --problem maxcut --graph maxcut6.json \
  --top 2 --dot solution.dot --hist histogram.csv > result.txt
sed -n 2p result.txt | grep -q ' \*$'  # the best row is flagged
# The completed line holds its counts as one packed "bits:count,..." string.
grep -qE '"counts": "[01]+:[0-9]+' st/tasks.jsonl

# A malformed QASM file is rejected with exit code 1 before any store exists.
printf 'not qasm\n' > bad.qasm
code=0
quchain --store fresh submit --qasm bad.qasm --shots 10 2> bad.txt || code=$?
test "$code" -eq 1
grep -q 'document must start with' bad.txt
test ! -e fresh

# A store as older versions wrote it, counts as a JSON object, still reads.
mkdir old
qasm6='OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncreg c[6];\nmeasure q[0] -> c[0];\n'
cat > old/tasks.jsonl <<JSON
{"counts": null, "created_at": 1792388888.5, "error": null, "id": "00112233445566778899aabbccddeeff", "name": "old", "qasm": "$qasm6", "seed": 3, "shots": 10, "status": "queued", "updated_at": 1792388888.5}
{"counts": {"000000": 3, "010101": 7}, "created_at": 1792388888.5, "error": null, "id": "00112233445566778899aabbccddeeff", "name": "old", "qasm": "$qasm6", "seed": 3, "shots": 10, "status": "completed", "updated_at": 1792388889.5}
JSON
test "$(quchain --store old status 00112233445566778899aabbccddeeff)" = completed
quchain --store old result 00112233445566778899aabbccddeeff \
  --problem maxcut --graph maxcut6.json > old-result.txt
sed -n 2p old-result.txt | grep -qE '^010101 7 .* 5 \*$'  # five of seven edges cut
sed -n 3p old-result.txt | grep -qE '^000000 3 .* 0 \*$'

# Node 6 has no edge, yet the max-cut model holds one qubit per declared
# node: seven qubits end to end, and node 6 is filled from its own bit.
sed 's/{"id": 5, "w": 1}/{"id": 5, "w": 1}, {"id": 6, "w": 1}/' maxcut6.json > maxcut7.json
maxcut7=(--problem maxcut --graph maxcut7.json)
quchain solve "${maxcut7[@]}" --p 1 --out params7.json
quchain compile "${maxcut7[@]}" --params params7.json --out circuit7.qasm
id7=$(quchain --store st submit --qasm circuit7.qasm --shots 100)
quchain --store st result "$id7" "${maxcut7[@]}" --dot solution7.dot > result7.txt
test "$(sed -n 2p result7.txt | cut -d' ' -f1 | tr -d '\n' | wc -c)" -eq 7
grep -qxE '  6 \[style=filled, fillcolor=(lightblue|salmon)\];' solution7.dot

# A 5-node max cut whose middle node 2 has no edge: its labels are 0..4, so
# the five-qubit model builds and solves.
cat > gap5.json <<'JSON'
{
  "offset": 0,
  "nodes": [{"id": 0, "w": 0}, {"id": 1, "w": 0}, {"id": 2, "w": 0},
            {"id": 3, "w": 0}, {"id": 4, "w": 0}],
  "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 3, "v": 4, "w": 1}]
}
JSON
quchain solve --problem maxcut --graph gap5.json --grid-size 8 > gap5.txt

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
quchain solve "${coloring[@]}" --p 1 --grid-size 8 --out coloring.json > coloring-solve.txt
# The p=1 lines cover the whole beta period: with beta confined to
# [0, pi/2) this estimate was 4.72; the optimum is 0.
estimate=$(sed -n 's/^objective estimate (min) = //p' coloring-solve.txt)
awk -v e="$estimate" 'BEGIN { exit !(e != "" && e < 2) }'
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
