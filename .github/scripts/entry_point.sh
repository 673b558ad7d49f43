#!/usr/bin/env bash
# The command line end to end, through the command given as the arguments: every
# mode's help, reruns that must repeat their bytes, full-size %.17g round trips and
# invalid runs that must exit 1 and name their key. As in Tier-1 (filterwarnings), a
# numpy overflow or invalid-value warning fails it. From any directory:
#
#     .github/scripts/entry_point.sh parrondoqw                        # installed script
#     PYTHONPATH=src .github/scripts/entry_point.sh python -m parrondoqw.cli
set -euo pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]" >&2
  exit 2
fi
cd "$(dirname "$0")/../.."
export PYTHONWARNINGS=error::RuntimeWarning
cli=("$@")
tmp=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/entry_point.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

"${cli[@]}" --help
for mode in walk ensemble sweep-coin sweep-initial classical; do
  "${cli[@]}" "$mode" --help
done
"${cli[@]}" classical --steps 10 --out "$tmp/c"
test -f "$tmp/c/classical.csv"

# a rerun writes every CSV, P(x, t) included, byte for byte again
for run in 1 2; do
  "${cli[@]}" walk --config recipes/first_steps_composite_2_2.cfg --record-full \
    --out "$tmp/w$run"
done
test -f "$tmp/w1/trajectory_distribution.csv"
for csv in "$tmp"/w1/*.csv; do
  cmp "$csv" "$tmp/w2/$(basename "$csv")"
done

# a shorter rerun into w1 rewrites each file in place: the bytes of a fresh run
for run in 1 3; do
  "${cli[@]}" walk --config recipes/first_steps_composite_2_2.cfg --record-full \
    --steps 3 --out "$tmp/w$run"
done
for csv in "$tmp"/w3/*.csv; do
  cmp "$csv" "$tmp/w1/$(basename "$csv")"
done
python3 -m json.tool "$tmp/w1/trajectory.json" > /dev/null

# a random-phase walk whose draws cross a 256-step block reruns byte for byte: its coin
# tables read each step's phase from (seed, tag, t) alone
for run in 1 2; do
  "${cli[@]}" walk --config recipes/random_phase_alternating_walk.cfg --steps 300 \
    --record-full --out "$tmp/rp$run"
done
test -f "$tmp/rp1/trajectory_distribution.csv"
for csv in "$tmp"/rp1/*.csv; do
  cmp "$csv" "$tmp/rp2/$(basename "$csv")"
done

# full-size walks whose P(x, t) has exponent-form, tiny and subnormal cells, the second
# from complex amplitudes (the largest table the benchmark writes): as %.17g round-trips,
# every number must print as the %.17g of its own value, under the header "t" and the
# sites' positions, each line labelled by its step
for full in "winning_composite_2_1 401 801" "random_phase_alternating_walk 451 1001"; do
  read -r recipe lines sites <<< "$full"
  "${cli[@]}" walk --config "recipes/$recipe.cfg" --out "$tmp/$recipe"
  python3 - "$tmp/$recipe/trajectory_distribution.csv" "$lines" "$sites" <<'EOF'
import csv, sys
lines, half = int(sys.argv[2]), int(sys.argv[3]) // 2
with open(sys.argv[1], newline="") as fh:
    header, *rows = csv.reader(fh)
assert header == ["t", *map(str, range(-half, half + 1))], header[:3]
assert [row[0] for row in rows] == list(map(str, range(lines))), len(rows)
assert {len(row) for row in rows} == {len(header)}, {len(row) for row in rows}
bad = [cell for row in rows for cell in row[1:] if "%.17g" % float(cell) != cell]
assert not bad, bad[:10]
EOF
done

status=0
"${cli[@]}" walk --bogus || status=$?
test "$status" -eq 1

# every validation error fails with exit 1 and starts with its key: a value its type
# cannot parse, a key the mode does not read, a value a field's rule rejects (the
# ensemble fails before the first of its 1e7 walker-steps), a size past its bound, a
# light cone wider than the lattice (the one pre-run check, which names sites) and a
# sweep's fixed coin angle out of range (its grid key)
sed 's/^grid\.fixed\.theta_a = .*/grid.fixed.theta_a = 7/' \
  recipes/sweep_tanh_plane_composite_2_1.cfg > "$tmp/fixed.cfg"
for bad in "classical --steps abc:steps" \
           "walk --config recipes/walk_spin_down.cfg --iterations 5:iterations" \
           "classical --steps -1:steps" \
           "ensemble --config recipes/probabilistic_mix_q50.cfg --workers 0:workers" \
           "walk --config recipes/walk_spin_down.cfg --sites 99999999999999999999:sites" \
           "walk --config recipes/walk_spin_down.cfg --steps 101:sites" \
           "sweep-coin --config $tmp/fixed.cfg:grid.fixed.theta_a"; do
  status=0
  # shellcheck disable=SC2086  # the case's words are the command's arguments
  "${cli[@]}" ${bad%:*} --out "$tmp/bad" 2> "$tmp/bad.err" || status=$?
  cat "$tmp/bad.err"
  test "$status" -eq 1
  grep -q "^configuration error: ${bad##*:}: " "$tmp/bad.err"
  test ! -e "$tmp/bad"
done
echo "entry point: all checks passed"
