#!/usr/bin/env bash
# CLI smoke test on the bundled spec: gen, compile, fit, eval and compare
# through the installed `scorecraft` command.  Run from a checkout root:
#
#     PYTHONWARNINGS=error::RuntimeWarning bash tests/cli_smoke.sh
set -eo pipefail
# Every output gets the mode a plain write would give it under this umask.
umask 022

spec=src/scorecraft/fixtures/scorecard_spec.csv
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
scorecraft gen --spec "$spec" --out "$out/train.csv" --seed 1 --n-good 3000 --n-bad 1000
scorecraft compile --spec "$spec" > "$out/compile.txt"
cat "$out/compile.txt"
grep -qx 'equality rows: 29' "$out/compile.txt"
grep -qx 'inequality rows: 106' "$out/compile.txt"
# Attribute 1 carries "= 0"; pinning its coefficient to 1 as well is
# refused when the constraints are compiled, with one line and no rows.
code=0
scorecraft compile --spec "$spec" --inweight 2=1 > "$out/pinned.txt" 2> "$out/pinned.err" || code=$?
cat "$out/pinned.err"
test "$code" -eq 1
test "$(wc -l < "$out/pinned.err")" -eq 1
if grep -q 'rows:' "$out/pinned.txt"; then exit 1; fi
scorecraft compile --spec "$spec" --data "$out/train.csv" --centering weighted
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --out "$out/model.json" --report "$out/report.txt"
# The ridge makes H definite at any lambda: a large one converges with
# nothing on stderr.
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 1e16 --out "$out/stiff.json" > /dev/null 2> "$out/stiff.err"
cat "$out/stiff.err"
test ! -s "$out/stiff.err"
# A lambda whose double overflows is refused with one line before any input
# is read: no LAPACK message on stdout, and no model.
code=0
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 1e308 --out "$out/huge.json" > "$out/huge.txt" 2> "$out/huge.err" || code=$?
cat "$out/huge.err"
test "$code" -eq 1
test "$(wc -l < "$out/huge.err")" -eq 1
if grep -q DLASCL "$out/huge.txt"; then exit 1; fi
test ! -e "$out/huge.json"
# Weights that are each finite but whose total overflows are refused by fit
# and eval with one line: no LAPACK message and no nan measure on stdout, and
# no model.
python - "$out/train.csv" "$out/overflow.csv" <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as src:
    header, *rows = csv.reader(src)
w = header.index("w")
with open(sys.argv[2], "w", newline="") as dst:
    csv.writer(dst).writerows([header] + [row[:w] + ["1e308"] + row[w + 1 :] for row in rows])
PY
for cmd in fit eval; do
    case $cmd in
        fit) args=(--spec "$spec" --lambda 0.5 --out "$out/overflow.json") ;;
        eval) args=(--model "$out/model.json") ;;
    esac
    code=0
    scorecraft "$cmd" --data "$out/overflow.csv" "${args[@]}" > "$out/overflow-$cmd.txt" 2> "$out/overflow-$cmd.err" || code=$?
    cat "$out/overflow-$cmd.err"
    test "$code" -eq 1
    test "$(wc -l < "$out/overflow-$cmd.err")" -eq 1
    if grep -q -e DLASCL -e nan "$out/overflow-$cmd.txt"; then exit 1; fi
done
test ! -e "$out/overflow.json"
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --centering weighted --out "$out/centered.json" > "$out/centered.txt"
cat "$out/centered.txt"
grep -qx 'status: converged' "$out/centered.txt"
# Every row written twice, or once with weight 2, is the same sample: both
# merge to the same rows and weights, and a merged design chooses its runs
# for its own row count, so the two centered models are the same bytes.
python - "$out/train.csv" "$out/twice.csv" "$out/heavy.csv" <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as src:
    header, *rows = csv.reader(src)
w = header.index("w")
with open(sys.argv[2], "w", newline="") as twice, open(sys.argv[3], "w", newline="") as heavy:
    twice, heavy = csv.writer(twice), csv.writer(heavy)
    twice.writerow(header)
    heavy.writerow(header)
    for row in rows:
        twice.writerows([row, row])
        heavy.writerow(row[:w] + ["2"] + row[w + 1 :])
PY
for data in twice heavy; do
    scorecraft fit --spec "$spec" --data "$out/$data.csv" --lambda 0.5 --centering weighted --out "$out/$data.json" > "$out/$data.txt"
done
cmp "$out/twice.json" "$out/heavy.json"
# An output into a missing directory fails before any fitting.
code=0
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --out "$out/missing/model.json" > "$out/refused.txt" 2>&1 || code=$?
cat "$out/refused.txt"
test "$code" -eq 1
if grep -q '^iter' "$out/refused.txt"; then exit 1; fi
# An output through a symbolic link writes the link's target and keeps
# the link, as a plain write would.
mkdir "$out/models"
ln -s models/v3.json "$out/cur.json"
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --out "$out/cur.json" > /dev/null
test -L "$out/cur.json"
cmp "$out/models/v3.json" "$out/model.json"
# A link into a missing directory is refused with one line before any fitting.
ln -s nowhere/m.json "$out/dangling.json"
code=0
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --out "$out/dangling.json" > "$out/dangling.txt" 2> "$out/dangling.err" || code=$?
cat "$out/dangling.err"
test "$code" -eq 1
test "$(wc -l < "$out/dangling.err")" -eq 1
if grep -q '^iter' "$out/dangling.txt"; then exit 1; fi
test -L "$out/dangling.json" && test ! -e "$out/nowhere"
# An output that names another output, here the report's CSV twin, is
# refused with one line before any work, and neither file is written.
code=0
scorecraft fit --spec "$spec" --data "$out/train.csv" --report "$out/r.txt" --out "$out/r.txt.csv" > "$out/clash.txt" 2> "$out/clash.err" || code=$?
cat "$out/clash.err"
test "$code" -eq 1
test "$(wc -l < "$out/clash.err")" -eq 1
test ! -e "$out/r.txt" && test ! -e "$out/r.txt.csv"
# A model whose beta and q were cut together, its spec hash kept, is
# refused at load with one line naming it, and nothing is scored.
python - "$out/model.json" "$out/cut.json" <<'PY'
import json, sys
with open(sys.argv[1], encoding="utf-8") as src:
    payload = json.load(src)
payload["beta"], payload["q"] = payload["beta"][:5], 5
with open(sys.argv[2], "w", encoding="utf-8") as dst:
    json.dump(payload, dst)
PY
code=0
scorecraft eval --model "$out/cut.json" --data "$out/train.csv" > "$out/cut.txt" 2> "$out/cut.err" || code=$?
cat "$out/cut.err"
test "$code" -eq 1
test "$(wc -l < "$out/cut.err")" -eq 1
grep -qF "$out/cut.json" "$out/cut.err"
if grep -q '^divergence' "$out/cut.txt"; then exit 1; fi
# A model with a NaN coefficient (which `json` reads) is refused at load
# with one line naming it.
python - "$out/model.json" "$out/nan.json" <<'PY'
import json, sys
with open(sys.argv[1], encoding="utf-8") as src:
    payload = json.load(src)
payload["beta"][3] = float("nan")
with open(sys.argv[2], "w", encoding="utf-8") as dst:
    json.dump(payload, dst)
PY
code=0
scorecraft eval --model "$out/nan.json" --data "$out/train.csv" > "$out/nan.txt" 2> "$out/nan.err" || code=$?
cat "$out/nan.err"
test "$code" -eq 1
test "$(wc -l < "$out/nan.err")" -eq 1
grep -qF "$out/nan.json" "$out/nan.err"
if grep -q '^divergence' "$out/nan.txt"; then exit 1; fi
# A model whose lam no fit could have written (here -1) is refused at load
# with one line naming it, and nothing is scored.
python - "$out/model.json" "$out/lam.json" <<'PY'
import json, sys
with open(sys.argv[1], encoding="utf-8") as src:
    payload = json.load(src)
payload["lam"] = -1
with open(sys.argv[2], "w", encoding="utf-8") as dst:
    json.dump(payload, dst)
PY
code=0
scorecraft eval --model "$out/lam.json" --data "$out/train.csv" > "$out/lam.txt" 2> "$out/lam.err" || code=$?
cat "$out/lam.err"
test "$code" -eq 1
test "$(wc -l < "$out/lam.err")" -eq 1
grep -qF "$out/lam.json" "$out/lam.err"
if grep -q '^divergence' "$out/lam.txt"; then exit 1; fi
# Weights and lambda scaled together by 2^20 fit the same coefficients,
# element for element, as the unit weights at lambda 0.5.
python - "$out/train.csv" "$out/scaled.csv" <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as src:
    header, *rows = csv.reader(src)
w = header.index("w")
with open(sys.argv[2], "w", newline="") as dst:
    csv.writer(dst).writerows([header] + [row[:w] + ["1048576"] + row[w + 1 :] for row in rows])
PY
scorecraft fit --spec "$spec" --data "$out/scaled.csv" --lambda 524288 --out "$out/scaled.json" > /dev/null
python - "$out/model.json" "$out/scaled.json" <<'PY'
import json, sys
unit, scaled = (json.load(open(p, encoding="utf-8"))["beta"] for p in sys.argv[1:])
assert scaled == unit, max(abs(a - b) for a, b in zip(unit, scaled))
PY
# A --probs file that is not JSON is refused with one line naming it.
printf '{"char170": ' > "$out/cut-probs.json"
code=0
scorecraft gen --spec "$spec" --out "$out/refused.csv" --probs "$out/cut-probs.json" --n-good 5 --n-bad 5 2> "$out/probs.err" || code=$?
cat "$out/probs.err"
test "$code" -eq 1
test "$(wc -l < "$out/probs.err")" -eq 1
grep -qF "$out/cut-probs.json" "$out/probs.err"
# An empty --probs path is refused by name with one line, and no file is
# drawn from the default probabilities.
code=0
scorecraft gen --spec "$spec" --out "$out/empty-probs.csv" --probs "" --n-good 5 --n-bad 5 2> "$out/empty.err" || code=$?
cat "$out/empty.err"
test "$code" -eq 1
test "$(wc -l < "$out/empty.err")" -eq 1
test ! -e "$out/empty-probs.csv"
# Pinning attributes 2 and 3 (coefficients 3 and 4) to 0 and 1 breaks
# attribute 2's "> 3": the fit ends infeasible, exit 2, with one line and
# no model.
code=0
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --inweight 3=0 --inweight 4=1 --out "$out/infeasible.json" > /dev/null 2> "$out/infeasible.err" || code=$?
cat "$out/infeasible.err"
test "$code" -eq 2
test "$(wc -l < "$out/infeasible.err")" -eq 1
grep -q infeasible "$out/infeasible.err"
test ! -e "$out/infeasible.json"
# Pinning coefficient 5 to 50 drives every probability to 0 or 1, and the
# steps stop far from an optimum: the fit ends max_iterations, exit 2, and
# does not say converged.
code=0
scorecraft fit --spec "$spec" --data "$out/train.csv" --lambda 0.5 --inweight 5=50 --out "$out/diverged.json" > "$out/diverged.txt" 2> "$out/diverged.err" || code=$?
grep '^status' "$out/diverged.txt"
test "$code" -eq 2
if grep -q 'status: converged' "$out/diverged.txt"; then exit 1; fi
# A file and its twin with every cell quoted, which the csv module reads
# record by record, evaluate to the same lines: the training file, and an
# 80k-row file that the loader reads in several chunks and then merges.
scorecraft gen --spec "$spec" --out "$out/large.csv" --seed 2 --n-good 60000 --n-bad 20000
for data in train large; do
    scorecraft eval --model "$out/model.json" --data "$out/$data.csv" > "$out/eval-$data.txt"
    cat "$out/eval-$data.txt"
    python - "$out/$data.csv" "$out/$data-quoted.csv" <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as src, open(sys.argv[2], "w", newline="") as dst:
    csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
PY
    scorecraft eval --model "$out/model.json" --data "$out/$data-quoted.csv" > "$out/eval-$data-quoted.txt"
    diff "$out/eval-$data.txt" "$out/eval-$data-quoted.txt"
done
scorecraft eval --model "$out/centered.json" --data "$out/train.csv" --dump-cdfs "$out/cdfs.csv"
# The dump holds one line per distinct score plus its header; the centered
# model gives each data row its own score.  Each field is the shortest
# round-trip repr of its value.
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
for file in model.json report.txt report.txt.csv cdfs.csv train.csv; do
    test "$(stat -c %a "$out/$file")" = 644
done
# A score file is read as a data file is: its twin with a comment line and
# a quoted cell compares the same.
python - "$out/train.csv" "$out/score.csv" "$out/score-twin.csv" <<'PY'
import sys
rows = sum(1 for _ in open(sys.argv[1], encoding="utf-8")) - 1
scores = [repr(i * 7919 % 997 / 8) for i in range(rows)]
with open(sys.argv[2], "w") as plain, open(sys.argv[3], "w") as twin:
    plain.write("score\n" + "".join(s + "\n" for s in scores))
    twin.write("score\n# one number per data row\n" + f'"{scores[0]}"\n')
    twin.write("".join(s + "\n" for s in scores[1:]))
PY
for score in score score-twin; do
    scorecraft compare --data "$out/train.csv" --model fitted="$out/model.json" --score mod="$out/$score.csv" > "$out/compare-$score.txt"
done
cat "$out/compare-score.txt"
diff "$out/compare-score.txt" "$out/compare-score-twin.txt"
# A score of row index mod 3 ties Goods with Bads; it compares the same on
# copies of both files with their data rows reversed.
python - "$out/train.csv" "$out/tied.csv" "$out/train-reversed.csv" "$out/tied-reversed.csv" <<'PY'
import sys
header, *rows = open(sys.argv[1], encoding="utf-8").read().splitlines(keepends=True)
scores = [f"{i % 3}\n" for i in range(len(rows))]
for path, lines in zip(sys.argv[2:], (["score\n"] + scores, [header] + rows[::-1], ["score\n"] + scores[::-1])):
    with open(path, "w", encoding="utf-8") as dst:
        dst.writelines(lines)
PY
scorecraft compare --data "$out/train.csv" --score tied="$out/tied.csv" > "$out/compare-tied.txt"
scorecraft compare --data "$out/train-reversed.csv" --score tied="$out/tied-reversed.csv" > "$out/compare-tied-reversed.txt"
cat "$out/compare-tied.txt"
diff "$out/compare-tied.txt" "$out/compare-tied-reversed.txt"
