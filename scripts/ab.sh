#!/usr/bin/env bash
# A/B of the end-to-end benchmark between two commits.
#
#   bash scripts/ab.sh [options] <ref-a> [<ref-b>]     (ref-b defaults to HEAD)
#
#   --pairs N      runs per side and workload (default 5)
#   --workload W   one workload (default: every workload in BENCHMARK.json)
#   --seed S       passed to bench/run.sh (default 42)
#   --seconds T    passed to bench/run.sh: measure each run for T seconds
#                  (default: the benchmark's own rep count)
#   --traced       add one traced run per side and workload, and fail if
#                  vclock.total_s, engine.level_steps or
#                  solver.cells_updated differ between the sides
#
# Each ref is exported with `git archive` (committed files only) under
# .bench_build/ab/<sha>/, and each side runs its own, unchanged
# bench/run.sh --trace 0, so both are measured by the ruler of their own
# tree. Runs alternate in pairs, A first in odd pairs and B first in even
# ones. Per workload and end-to-end metric the report gives each side's
# median [q1, q3], the change of B against A, in how many pairs B read
# better, and a verdict against BENCHMARK.json's bound and direction,
# judged as bench/compare.go's judge does: if either side's
# (q3 - q1) / median exceeds the bound the row is "unresolved", unless
# every B run beats every A run. Each run's JSON line is kept under
# .bench_build/ab/out/.
#
# Exit status: 0 when every run completed correctly, 1 when a run
# reported correct: false or a failed operation (or, with --traced, the
# sides disagree on a deterministic count), 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2; exit 2; }

pairs=5 workload="" seed=42 seconds="" traced=0 refs=()
while (($#)); do
	case $1 in
	--pairs) pairs=${2:?}; shift 2 ;;
	--workload) workload=${2:?}; shift 2 ;;
	--seed) seed=${2:?}; shift 2 ;;
	--seconds) seconds=${2:?}; shift 2 ;;
	--traced) traced=1; shift ;;
	-h | --help) usage ;;
	-*) echo "ab.sh: unknown option $1" >&2; usage ;;
	*) refs+=("$1"); shift ;;
	esac
done
((${#refs[@]} == 1 || ${#refs[@]} == 2)) || usage
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: --pairs takes a positive count" >&2; exit 2; }
refs+=(HEAD)

root=$PWD/.bench_build/ab
sha_a=$(git rev-parse --verify "${refs[0]}^{commit}")
sha_b=$(git rev-parse --verify "${refs[1]}^{commit}")

# export <sha>: the committed tree under $root/<sha>, built once.
export_tree() {
	local dir=$root/$1
	if [[ ! -f $dir/.exported ]]; then
		rm -rf "$dir"
		mkdir -p "$dir"
		git archive "$1" | tar -x -C "$dir"
		touch "$dir/.exported"
	fi
	# -h builds the benchmark through the tree's own run.sh and exits 0,
	# so no measured run pays for the build.
	bash "$dir/bench/run.sh" -h 2>/dev/null || true
}
echo "ab: A = ${refs[0]} ($sha_a), B = ${refs[1]} ($sha_b)" >&2
export_tree "$sha_a"
[[ $sha_b == "$sha_a" ]] || export_tree "$sha_b"

if [[ -n $workload ]]; then
	workloads=("$workload")
else
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

out=$root/out
rm -rf "$out"
mkdir -p "$out"

# run <side> <workload> <name> <trace>: one bench/run.sh of the side's
# tree; its last output line (the JSON result) goes to $out/<workload>/<name>.
run() {
	local sha=$sha_a
	[[ $1 == b ]] && sha=$sha_b
	local args=(--workload "$2" --seed "$seed" --trace "$4")
	[[ -n $seconds ]] && args+=(--seconds "$seconds")
	mkdir -p "$out/$2"
	bash "$root/$sha/bench/run.sh" "${args[@]}" >"$out/$2/$3.log" 2>&1 || true
	tail -n 1 "$out/$2/$3.log" >"$out/$2/$3"
}

for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		echo "ab: $w pair $i/$pairs" >&2
		if ((i % 2)); then order=(a b); else order=(b a); fi
		for side in "${order[@]}"; do run "$side" "$w" "$side.$i" 0; done
	done
	if ((traced)); then
		echo "ab: $w traced" >&2
		run a "$w" a.traced 1
		run b "$w" b.traced 1
	fi
done

python3 - "$out" "$pairs" "$traced" "${workloads[@]}" <<'PY'
import json, statistics, sys

out, pairs, traced, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
bench = json.load(open("BENCHMARK.json"))
# bench/metricsdef.go judges setup_s on medians alone: its quartiles are
# a few milliseconds of process start.
spread_exempt = {"setup_s"}
bad = []

def load(w, name):
    path = f"{out}/{w}/{name}"
    try:
        line = json.loads(open(path).read())
    except (OSError, ValueError):
        bad.append(f"{w} {name}: no JSON result line (see {path}.log)")
        return None
    if not line.get("correct") or line.get("failed", 0) > 0:
        bad.append(f"{w} {name}: correct={line.get('correct')} failed={line.get('failed')}/{line.get('attempted')}")
    return line

def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)  # the benchmark's own rule
    return q1, statistics.median(v), q3

def spread(q):
    return abs(q[2] - q[0]) / abs(q[1]) if q[1] else 0

for w in workloads:
    reps = {s: [load(w, f"{s}.{i}") for i in range(1, pairs + 1)] for s in "ab"}
    print(f"\n== {w} ({pairs} pairs)")
    print(f"  {'metric':<12} {'unit':<6} {'better':<6} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} {'change':>8} {'B wins':>7} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        pts = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
               for a, b in zip(reps["a"], reps["b"]) if a and b and name in a["metrics"] and name in b["metrics"]]
        if not pts:
            continue
        va, vb = [p[0] for p in pts], [p[1] for p in pts]
        qa, qb = quartiles(va), quartiles(vb)
        better = (lambda x, y: y < x) if lower else (lambda x, y: y > x)
        wins = sum(better(x, y) for x, y in pts)
        worse_by = ((qb[1] - qa[1]) if lower else (qa[1] - qb[1])) / qa[1] if qa[1] else 0
        if name not in spread_exempt and max(spread(qa), spread(qb)) > m["bound"]:
            verdict = "better" if better(min(va) if lower else max(va), max(vb) if lower else min(vb)) else "unresolved"
        elif worse_by > m["bound"]:
            verdict = "worse"
        elif worse_by < -m["bound"]:
            verdict = "better"
        else:
            verdict = "same"
        change = 100 * (qb[1] - qa[1]) / qa[1] if qa[1] else 0
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"  {name:<12} {m['unit']:<6} {m['better']:<6} {fmt(qa):>32} {fmt(qb):>32} {change:>+7.2f}% {wins:>3}/{len(pts):<3} {100 * m['bound']:>5.3g}%  {verdict}")
    for s in "ab":
        att = sum(r["attempted"] for r in reps[s] if r)
        fail = sum(r["failed"] for r in reps[s] if r)
        print(f"  ops failed {s.upper()}: {fail}/{att}")
    if traced:
        ta, tb = load(w, "a.traced"), load(w, "b.traced")
        for name in ("vclock.total_s", "engine.level_steps", "solver.cells_updated"):
            x = ta and ta["metrics"].get(name, {}).get("value")
            y = tb and tb["metrics"].get(name, {}).get("value")
            same = x == y
            print(f"  traced {name:<22} A {x}  B {y}  {'same' if same else 'DIFFERENT'}")
            if not same:
                bad.append(f"{w} traced: {name} differs (A {x}, B {y})")

for b in bad:
    print("FAIL:", b)
sys.exit(1 if bad else 0)
PY
