#!/usr/bin/env bash
# CLI smoke test on the bundled spec: gen, compile, fit, eval and compare
# through the installed `scorecraft` command.  Run from a checkout root:
#
#     PYTHONWARNINGS=error::RuntimeWarning bash tests/cli_smoke.sh
set -eo pipefail

spec=src/scorecraft/fixtures/scorecard_spec.csv
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
scorecraft gen --spec "$spec" --out "$out/train.csv" --seed 1 --n-good 3000 --n-bad 1000
scorecraft compile --spec "$spec"
scorecraft compile --spec "$spec" --data "$out/train.csv" --centering weighted
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --out "$out/model.json" --report "$out/report.txt"
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --centering weighted --out "$out/centered.json" > "$out/centered.txt"
cat "$out/centered.txt"
grep -qx 'status: converged' "$out/centered.txt"
# An output into a missing directory fails before any fitting.
code=0
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --out "$out/missing/model.json" > "$out/refused.txt" 2>&1 || code=$?
cat "$out/refused.txt"
test "$code" -eq 1
if grep -q '^iter' "$out/refused.txt"; then exit 1; fi
scorecraft eval --model "$out/model.json" --data "$out/train.csv" > "$out/eval.txt"
cat "$out/eval.txt"
# The same file with every cell quoted, which the csv module reads
# record by record, evaluates to the same lines.
python - "$out/train.csv" "$out/quoted.csv" <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as src, open(sys.argv[2], "w", newline="") as dst:
    csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
PY
scorecraft eval --model "$out/model.json" --data "$out/quoted.csv" > "$out/eval-quoted.txt"
diff "$out/eval.txt" "$out/eval-quoted.txt"
scorecraft eval --model "$out/centered.json" --data "$out/train.csv" --dump-cdfs "$out/cdfs.csv"
# The dump holds one line per data row plus its header, and each
# field is the shortest round-trip repr of its value.
python - "$out/cdfs.csv" "$out/train.csv" <<'PY'
import sys
dump, data = (open(p, encoding="utf-8").read().splitlines() for p in sys.argv[1:])
assert dump[0] == "# score goods_cdf bads_cdf", dump[0]
assert len(dump) == len(data), (len(dump), len(data))
fields = [line.split(" ") for line in dump[1:]]
assert all(len(f) == 3 for f in fields), "a line without three fields"
wrong = [v for f in fields for v in f if repr(float(v)) != v]
assert not wrong, wrong[:5]
PY
scorecraft compare --data "$out/train.csv" --model fitted="$out/model.json"
