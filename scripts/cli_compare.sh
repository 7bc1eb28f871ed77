#!/bin/bash
# Usage: cli_compare.sh <tree> <outdir>
# Runs every CLI invocation against <tree>/src from a fresh working copy of
# <tree>'s corpus and records stdout, stderr, exit code and the --csv file,
# with "wall_time_s": <number> and the path of <tree> (which warnings print)
# masked.
tree=$(cd "$1" && pwd); out=$(realpath -m "$2"); rm -rf "$out"; mkdir -p "$out"
work=$(mktemp -d); cp -r "$tree/corpus" "$work/corpus"; cd "$work"
echo '{"order": [0, 1, 2, 3], "prices": [0.9, 0.8, 0.7, 0.6]}' > marketing.json
echo '{"influence_set": [1, 3], "p": 0.5}' > ie.json
echo '{"q": 0.3, "p": 0.6}' > rie.json
echo '{"K": 3, "q": [0.2, 0.3, 0.5], "seed": 1}' > gie.json
echo '{"influence_set": [Infinity], "p": 0.6}' > inf.json
echo '{"K": 2, "q": [0.5, 0.5], "sed": 3}' > sed.json
echo '{"K": 2, "q": [0.5, 0.5], "seed": -1}' > negseed.json
echo '{"order": [0, 1.0, 2, 3], "prices": [0.9, 0.8, 0.7, 0.6]}' > floatorder.json
echo '{"influence_set": [true], "p": 0.5}' > boolset.json
echo '{"order": [0, 1, 2, 3], "prices": ["0.9", 0.8, 0.7, 0.6]}' > textprice.json
printf 'undirected 4\n0 1 1.1e307\n1 2 1.1e307\n2 3 1.1e307\n3 0 1.1e307\n' > huge.txt
C=corpus/cycle4.txt; R=corpus/random12.txt; B=corpus/bipartite33.txt
i=0
run() { i=$((i+1)); PYTHONPATH="$tree/src" python -m netrev.cli "$@" >"$out/$i.out" 2>"$out/$i.err"; echo "$? $*" >"$out/$i.rc"
        sed -i -E 's/"wall_time_s": [0-9.eE+-]+/"wall_time_s": X/' "$out/$i.out"
        sed -i "s#$tree/#TREE/#g" "$out/$i.err"
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
run certify --kind rounding_undirected
run certify --kind rounding_undirected --schedule flat
run certify --kind rounding_directed
run certify --kind random_ie --directed
run certify --kind class_ie --K 3 --q 0.2,0.3,0.5 --directed
run certify --kind sdp_self --lam 1
run certify --kind sdp_directed --gamma 1.5
run certify --kind sdp_self --gamma nan
run sdp-ie --input $R --seed 4 --trials 40 --gamma 1.5
run simulate --input $C --strategy ie.json --trials 20000 --seed 5
run simulate --input $R --strategy rie.json --trials 20000 --seed 5
run simulate --input $C --strategy marketing.json --trials 20000 --seed 5
run table --corpus corpus --csv t.csv --seed 2 --trials 30
run gen --kind random --n 30 --density 0.2 --weight-range 0.1 1 --seed 3
run gen --kind set_edge --pricing-prob 0.7
run gen --kind random --n 20 --density 0.25 --weight-range 0.1 1 --self-weight-range 0.2 1 --seed 7 --output u20.txt
run gen --kind random --n 20 --directed --density 0.2 --weight-range 0.1 1 --seed 8 --output d20.txt
for net in u20.txt d20.txt; do
  run oracle --input $net --mode best-ie
  run oracle --input $net --mode best-ie --pricing-prob 0.6
  for s in ie rie gie; do run simulate --input $net --strategy $s.json --trials 20000 --seed 5; done
done
run eval --input $C --strategy missing.json
run eval --input $C --strategy inf.json
run table --corpus nowhere
run gen --kind random --n 7 --density 0.6666666666666666 --weight-range 0.1 1 --seed 5 --output m7.txt
run sdp-ie --input m7.txt --seed 0
run eval --input $C --strategy sed.json
run eval --input $C --strategy negseed.json
run oracle --input corpus/dag6.txt --mode best-strategy --seed 1
run oracle --input u20.txt --mode best-strategy --seed 1
run oracle --input corpus/dag6.txt --mode best-ordering --prices 0.9,0.8,0.7,0.6,0.55,0.5
run gadget-table --kind extended_triangle --seed 1
printf 'undirected 3\n' > empty3.txt
run ie --input empty3.txt --mode tuned
run gen --kind random --n 2000 --density 0.002 --weight-range 0.1 1 --self-weight-range 0.1 0.5 --seed 11 --output u2000.txt
run gen --kind random --n 2000 --directed --density 0.002 --weight-range 0.1 1 --seed 12 --output d2000.txt
for net in u2000.txt d2000.txt; do cp $net "$out/$net"; run ie --input $net --mode baseline; done
printf 'directed 3\n1 1 0.5\n0 1 -1\n0 x 1\n0 1\n' > faults.txt
run ie --input faults.txt --mode baseline
printf 'undirected 3\n0 1 0.5\n2 2 0.1\n1 0 0.25\n2 2 0.2\n0 1 1\n' > dup.txt
run ie --input dup.txt --mode baseline
run gen --kind complete_dag --n 8 --output dag8.txt
run gen --kind random --n 8 --directed --density 0.5 --seed 4 --output r8.txt
for net in dag8.txt r8.txt; do cp $net "$out/$net"; run oracle --input $net --mode best-strategy --seed 0; done
printf 'directed 9\n0 1 1\n7 8 0.5\n' > d9.txt
run oracle --input d9.txt --mode best-strategy
run gen --kind cycle --n 8 --density 0.5 --seed 3
run gen --kind bipartite --n 6 --self-weight-range 0.1 0.5 --seed 1
run gen --kind path --n 5 --parts 2 3
run gen --kind complete_dag --n 4 --self-weight-range 0.1 0.5 --seed 1
run ie --input corpus/cycle5.txt --mode bipartite
run sdp-ie --input $R --seed 4 --trials 20000
run oracle --input $C --mode best-ordering --prices 0.75,0.75,0.75,0.75
# exits 2 at once; a tree without the MAX_TRIALS check runs it for hours
run sdp-ie --input $R --trials 100000000000
run simulate --input $C --strategy ie.json --trials 0
run certify --kind random_ie --lam -0.5
run gie --input $C --K 1
for s in floatorder boolset textprice; do run eval --input $C --strategy $s.json; done
cd /; rm -rf "$work"
