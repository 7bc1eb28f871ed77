#!/bin/bash
# Usage: cli_compare.sh <tree> <outdir>
# Runs every CLI invocation against <tree>/src from a fresh working copy of
# <tree>'s corpus and records stdout, stderr, exit code and the --csv file,
# with "wall_time_s": <number> masked.
tree=$(cd "$1" && pwd); out=$(realpath -m "$2"); rm -rf "$out"; mkdir -p "$out"
work=$(mktemp -d); cp -r "$tree/corpus" "$work/corpus"; cd "$work"
echo '{"order": [0, 1, 2, 3], "prices": [0.9, 0.8, 0.7, 0.6]}' > marketing.json
echo '{"influence_set": [1, 3], "p": 0.5}' > ie.json
echo '{"q": 0.3, "p": 0.6}' > rie.json
echo '{"K": 3, "q": [0.2, 0.3, 0.5], "seed": 1}' > gie.json
printf 'undirected 4\n0 1 1.1e307\n1 2 1.1e307\n2 3 1.1e307\n3 0 1.1e307\n' > huge.txt
C=corpus/cycle4.txt; R=corpus/random12.txt; B=corpus/bipartite33.txt
i=0
run() { i=$((i+1)); PYTHONPATH="$tree/src" python -m netrev.cli "$@" >"$out/$i.out" 2>"$out/$i.err"; echo "$? $*" >"$out/$i.rc"
        sed -i -E 's/"wall_time_s": [0-9.eE+-]+/"wall_time_s": X/' "$out/$i.out"
        if [ -f t.csv ]; then mv t.csv "$out/$i.csv"; fi; }
for s in marketing ie rie gie; do run eval --input $C --strategy $s.json; done
for m in baseline tuned bipartite; do run ie --input $B --mode $m --seed 3; done
run gie --input $R
run gie --input $R --mode optimize --K 8 --seed 2
run sdp-ie --input $R --seed 4 --trials 40
run sdp-ie --input $R --seed 4 --trials 40 --rank 3
run oracle --input $C --mode best-ie
run oracle --input huge.txt --mode best-ie
run oracle --input $C --mode best-strategy --seed 1
run oracle --input $C --mode best-ordering --prices 0.9,0.8,0.7,0.6
run oracle --input $C --mode best-ordering
run gadget-table --kind three_path --seed 1
run gadget-table --kind set_edge --pricing-prob 0.6
run certify --kind class_ie
run certify --kind random_ie --lam 0.5 --grid-step 0.05
run certify --kind sdp_directed
run certify --kind sdp_undirected --p 0.5 --gamma 0.176 --grid-step 0.05
run certify --kind sdp_self
run simulate --input $C --strategy ie.json --trials 20000 --seed 5
run simulate --input $R --strategy rie.json --trials 20000 --seed 5
run table --corpus corpus --csv t.csv --seed 2 --trials 30
run gen --kind random --n 30 --density 0.2 --weight-range 0.1 1 --seed 3
run gen --kind set_edge --pricing-prob 0.7
run eval --input $C --strategy missing.json
run table --corpus nowhere
cd /; rm -rf "$work"
