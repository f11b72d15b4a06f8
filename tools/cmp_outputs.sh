#!/usr/bin/env bash
# Byte-compare the outputs of two ukfkit source trees on a fixed list of commands.
#
#     tools/cmp_outputs.sh OTHER_TREE
#
# Runs every command below with this tree's src/ and with OTHER_TREE's src/,
# once at each BLAS thread count in OPENBLAS_NUM_THREADS=1 and =2, and compares
# the CSV files, stdout, stderr and exit code of each run with the other
# tree's at the same count.  The path in a "wrote ... to PATH" line is
# ignored.  Prints one line per command and count, each difference, and exits
# 1 if there is any, 0 when every output is identical.
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

# Both trees read this tree's copy of the linear-4x2 config and the one-state config written
# below, so they get the same input.  The one-state run is the only command whose gain solves
# have a single right-hand side (l_x = l_y = 1).
printf '%s\n' "model = custom" "a = 0.95" "c = 1" "q = 0.1" "r = 0.1" >"$work/one-state.cfg"
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
    "run --config $work/one-state.cfg --filters enkf,kf,ekf,ukf,eukfa,eukfc --ensemble 2000 --steps 300 --seed 7"
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

status=0
for t in "${threads[@]}"; do
    run_all "$here" this "$t"
    run_all "$other" other "$t"
    i=0
    for cmd in "${commands[@]}"; do
        i=$((i + 1))
        if diff -r "$work/other/$t/$i" "$work/this/$t/$i" >"$work/diff" 2>&1; then
            echo "same      threads=$t  $cmd"
        else
            echo "DIFFERENT threads=$t  $cmd"
            sed 's/^/    /' "$work/diff" | cut -c1-160 | head -8
            status=1
        fi
    done
done
exit $status
