#!/usr/bin/env bash
# Byte-compare the outputs of two ukfkit source trees on a fixed list of commands.
#
#     tools/cmp_outputs.sh OTHER_TREE
#
# Runs every command below with this tree's src/ and with OTHER_TREE's src/,
# once at each BLAS thread count in OPENBLAS_NUM_THREADS=1 and =2, and compares
# the CSV files, stdout, stderr and exit code of each run with the other
# tree's at the same count, then each tree's runs at 1 thread with its own
# runs at 2, so that a change that moves bits still shows that its outputs do
# not depend on the thread count.  The path in a "wrote ... to PATH" line is
# ignored.  Prints one line per command and count (tree against tree), then
# one per tree ("this" or "other") and command (1 thread against 2), and
# under a differing one what differs: for a CSV file the header name of each column holding any
# differing value, with the largest relative difference |new - old| /
# max(|new|, |old|) over its differing values after the colon (1 where one
# side is 0, inf where a side is not a finite number), for any other output
# its first diff lines.  Exits 1 if anything differs, 0 when every output is identical.
set -u -o pipefail

if [ $# -ne 1 ] || [ ! -d "$1/src/ukfkit" ]; then
    echo "usage: $0 OTHER_TREE  (a directory holding src/ukfkit)" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
other=$(cd "$1" && pwd)
python=${PYTHON:-python3}
threads=(1 2)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Both trees read this tree's copy of the linear-4x2 config and the two configs written below,
# so they get the same input.  The one-state run is the only command whose gain solves have a
# single right-hand side (l_x = l_y = 1).  The zero-start run begins every filter at P = 0 with
# no process noise: kf and ekf fail at step 1 (an exact zero posterior is not SPD) and enkf
# runs on, so it covers the zero initial factor of the kf and ekf slices and a step-1 failure.
# The ts = 0.05 Lorenz run's truth overflows and turns non-finite at step 25: the run writes no
# CSV, exits 1 and prints its one error line, so it covers a truth-failure run's stderr.  In the
# run after it ukf (alpha 0.2) loses definiteness at step 40 in the stacked call, is replayed
# alone and fails while kf runs on and enkf runs its own loop, so it covers a mid-run stack failure
# with the filter groups run one after the other.  In the run after that eukfa and eukfc fail at
# step 40 and ukf at 41 while enkf runs on, so it covers the order in which stderr lists the
# failures: by step, then by filter order.  The one after it is the only EnKF run with an odd
# number of process draws per step (3 x 1001), so the ensemble's sampler drops the last sine of
# each step.  The last command is the only one where more than one filter survives a replay:
# eukfa and eukfc fail at step 43 and ukf at 44, and kf and ekf then run on for 256 steps as one
# stack of their concatenated one-slice posteriors; the run exits 1.  Every other failed stack
# leaves one survivor at most, so only this run steps a stack formed from replayed rows.  The three
# verify commands step every system's checks as one stack with one alpha per sigma-point slice: seed
# 0 is the default, seed 34013 has an ill-conditioned A (cond(A) ~ 6.6e3), and seed 20240 is the
# seed of the acceptance suites in tests/test_acceptance.py, whose report gates the paper's claim.
printf '%s\n' "model = custom" "a = 0.95" "c = 1" "q = 0.1" "r = 0.1" >"$work/one-state.cfg"
printf '%s\n' "model = linear-ex2" "p0 = 0" "q = 0" >"$work/zero-start.cfg"
commands=(
    "run --model lorenz --filters ekf,ukf,eukfa,eukfc --steps 2000 --seed 7"
    "run --model vdp --filters ekf,ukf,eukfa,eukfc --steps 2000 --seed 7"
    "run --model linear-ex2 --filters kf,ekf,ukf,eukfa,eukfc --alpha 3 --steps 500 --seed 3"
    "run --config $here/bench/linear-4x2.cfg --filters enkf,kf,ekf,ukf,eukfa,eukfc --ensemble 2000 --steps 300 --seed 7"
    "run --model linear-ex1 --filters kf,ukf,eukfa,eukfc --steps 60 --seed 1 --alpha 0.2"
    "run --model vdp --ts 0.05 --mu 2 --filters ekf,ukf,eukfa,eukfc --steps 2000 --seed 1"
    "run --model linear-ex1 --filters kf,ukf,eukfa,eukfc --steps 100 --seed 20240"
    "reproduce --example 1"
    "reproduce --example 2"
    "reproduce --example 3 --ensemble 2000 --steps 300 --seed 20240"
    "reproduce --example 4 --ensemble 2000 --steps 300 --seed 20240"
    "verify --trials 100 --seed 0"
    "verify --trials 100 --seed 34013"
    "verify --trials 100 --seed 20240"
    "run --config $work/one-state.cfg --filters enkf,kf,ekf,ukf,eukfa,eukfc --ensemble 2000 --steps 300 --seed 7"
    "run --config $work/zero-start.cfg --filters enkf,kf,ekf --ensemble 2000 --steps 50 --seed 7"
    "run --model lorenz --ts 0.05 --steps 100 --seed 1 --filters ekf,ukf"
    "run --model linear-ex1 --filters enkf,kf,ukf --alpha 0.2 --ensemble 2000 --steps 60 --seed 1"
    "run --model linear-ex1 --filters enkf,kf,ukf,eukfa,eukfc --alpha 0.2 --ensemble 500 --steps 200 --seed 3"
    "run --model lorenz --filters enkf,ekf --ensemble 1001 --steps 200 --seed 5"
    "run --model linear-ex1 --filters kf,ekf,ukf,eukfa,eukfc --alpha 0.2 --steps 300 --seed 2"
)

run_all() {  # run_all TREE SIDE THREADS
    local i=0 cmd dir
    for cmd in "${commands[@]}"; do
        i=$((i + 1))
        dir="$work/$2/$3/$i"
        mkdir -p "$dir"
        case $cmd in
            run*) set -- "$1" "$2" "$3" --out "$dir/run.csv" ;;
            reproduce*) set -- "$1" "$2" "$3" --out "$dir" ;;
            *) set -- "$1" "$2" "$3" ;;
        esac
        # shellcheck disable=SC2086  # each command is a list of words
        (cd "$dir" && OPENBLAS_NUM_THREADS=$3 PYTHONPATH="$1/src" "$python" -m ukfkit $cmd "${@:4}" >stdout 2>stderr; echo $? >exit)
        sed -i 's/^\(wrote .* to \).*$/\1<out>/' "$dir/stdout"
    done
}

csv_columns() {  # csv_columns OLD NEW: the columns where NEW's values differ from OLD's, each with its largest relative difference
    "$python" - "$1" "$2" <<'EOF_PY'
import csv, math, sys
old, new = (list(csv.reader(open(path, newline=""))) for path in sys.argv[1:])
header = new[0] if new else []

def rel(a, b):  # |b - a| / max(|a|, |b|) of two differing fields; inf unless both are finite numbers
    try:
        a, b = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0

cols = []
for i, name in enumerate(header):
    diffs = [rel(a[i], b[i]) if a[i:i + 1] and b[i:i + 1] else math.inf for a, b in zip(old[1:], new[1:]) if a[i:i + 1] != b[i:i + 1]]
    if diffs:
        cols.append(f"{name}:{max(diffs):.2g}")
notes = [] if old[:1] == new[:1] else ["header differs"]
notes += [] if len(old) == len(new) else [f"{len(old) - 1} rows against {len(new) - 1}"]
print("columns " + (" ".join(cols) or "(none)") + "".join(f"; {note}" for note in notes))
EOF_PY
}

report() {  # report OLD_DIR NEW_DIR: each output of one command that differs between the two runs
    local f
    for f in $( (ls "$1"; ls "$2") | sort -u); do
        if [ ! -f "$1/$f" ] || [ ! -f "$2/$f" ]; then
            echo "    $f: only on one side"
        elif ! cmp -s "$1/$f" "$2/$f"; then
            case $f in
                *.csv) echo "    $f: $(csv_columns "$1/$f" "$2/$f")" ;;
                *) diff "$1/$f" "$2/$f" | sed "s/^/    $f: /" | cut -c1-160 | head -8 ;;
            esac
        fi
    done
}

status=0
for t in "${threads[@]}"; do
    run_all "$here" this "$t"
    run_all "$other" other "$t"
    i=0
    for cmd in "${commands[@]}"; do
        i=$((i + 1))
        if diff -r "$work/other/$t/$i" "$work/this/$t/$i" >/dev/null 2>&1; then
            echo "same      threads=$t  $cmd"
        else
            echo "DIFFERENT threads=$t  $cmd"
            report "$work/other/$t/$i" "$work/this/$t/$i"
            status=1
        fi
    done
done
for side in this other; do
    i=0
    for cmd in "${commands[@]}"; do
        i=$((i + 1))
        if diff -r "$work/$side/${threads[0]}/$i" "$work/$side/${threads[1]}/$i" >/dev/null 2>&1; then
            echo "same      threads=${threads[0]}/${threads[1]}  tree=$side  $cmd"
        else
            echo "DIFFERENT threads=${threads[0]}/${threads[1]}  tree=$side  $cmd"
            report "$work/$side/${threads[0]}/$i" "$work/$side/${threads[1]}/$i"
            status=1
        fi
    done
done
exit $status
