#!/usr/bin/env bash
# pair.sh — paired same-host comparison of two revisions, on the repository
# benchmark (perfbench) or on root Go benchmarks, with the verdict rule
# written in.
#
# Usage:
#   scripts/pair.sh [-n ROUNDS] [-w WORKLOAD] [-s SECONDS] [-seed FIRST] [-trace 0|1] BASE HEAD
#   scripts/pair.sh [-n ROUNDS] [-benchtime T] -bench REGEX BASE HEAD
#   scripts/pair.sh -n 10 -w fleet-routed -s 40 -seed 101 8b5091a HEAD
#   scripts/pair.sh -n 10 -benchtime 200x -bench '^BenchmarkMLPRetrainServing$' 8b5091a HEAD
#
# Both revisions are extracted with `git archive` into a fresh temp
# directory (mktemp, so under TMPDIR) and built once each: the perfbench
# binary, or with -bench the root package's test binary (`go test -c`).
# Round i then runs both binaries, base first in even rounds and head first
# in odd ones, so slow drift of the host lands on both sides equally
# (Mytkowicz et al., ASPLOS 2009; Kalibera & Jones, ISMM 2013). A perfbench
# round runs on seed FIRST+i; a -bench round runs the matching benchmarks
# once each (-benchmem, -benchtime T, default 1s; a fixed count such as
# 200x gives both sides the same work when a benchmark's work per op
# changes as it runs). Every run's output stays in the temp directory's
# runs/.
#
# Per metric it prints both medians, both interquartile ranges and the
# rounds head won, in the direction BENCHMARK.json gives (-bench: ns/op
# and allocs/op per benchmark, lower is better). Verdict rule: a change
# counts as better (or worse) only if it wins (or loses) at least 9 in 10
# rounds (and 10 rounds were run) and the gap between the medians is wider
# than the base's IQR; anything else reads "same". In perfbench mode,
# metrics whose median moved the wrong way by more than their
# BENCHMARK.json bound, or whose head IQR exceeds the bound, are flagged
# and make the exit status 1. Each perfbench run also reports the host CPU
# share stolen by other tenants during its untraced phase (host.steal_pct);
# the script prints it per round and side and flags every round where either
# side saw more than 10 percent (steal_max below), since a verdict that
# rests on such rounds measures the host as much as the code. Flagged steal
# does not change the exit status.
#
# Defaults: 10 rounds of fleet-routed, 40 s each, untraced, seeds from 1.
set -euo pipefail
# The body is one compound command, so bash parses all of it before running
# any of it: editing or checking out this file during a long run cannot
# change the run.
{

rounds=10 workload=fleet-routed seconds=40 seed=1 trace=0 bench= benchtime=1s
steal_max=10 # percent of host CPU stolen in a run before its round is flagged
while [ $# -gt 2 ]; do
	case "$1" in
	-n) rounds="$2"; shift 2 ;;
	-w) workload="$2"; shift 2 ;;
	-s) seconds="$2"; shift 2 ;;
	-seed) seed="$2"; shift 2 ;;
	-trace) trace="$2"; shift 2 ;;
	-bench) bench="$2"; shift 2 ;;
	-benchtime) benchtime="$2"; shift 2 ;;
	*) echo "pair.sh: unknown option $1" >&2; exit 2 ;;
	esac
done
if [ $# -ne 2 ] || [[ "$1" == -* ]]; then
	sed -n '7,9p' "$0" >&2
	exit 2
fi
repo="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
dir="$(mktemp -d)"
mkdir -p "$dir/runs"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

for side in base head; do
	rev="$1"
	[ "$side" = head ] && rev="$2"
	mkdir "$dir/$side"
	git -C "$repo" archive "$rev" | tar -x -C "$dir/$side"
	git -C "$repo" rev-parse "$rev" >"$dir/$side.rev"
	if [ -n "$bench" ]; then
		(cd "$dir/$side" && go test -c -o "$dir/$side.bin" .)
	else
		(cd "$dir/$side/perfbench" && go build -o "$dir/$side.bin" .)
	fi
done
if [ -n "$bench" ]; then
	echo "pair: base $(cat "$dir/base.rev") head $(cat "$dir/head.rev"); $rounds rounds of -bench '$bench', benchtime $benchtime; runs in $dir/runs" >&2
else
	echo "pair: base $(cat "$dir/base.rev") head $(cat "$dir/head.rev"); $rounds rounds of $workload, ${seconds}s, trace $trace; runs in $dir/runs" >&2
fi

run() { # side round
	local s=$((seed + $2)) out="$dir/runs/$1-$2.txt"
	# Each binary runs from its own tree, as perfbench/run.sh or go test
	# would.
	if [ -n "$bench" ]; then
		(cd "$dir/$1" && "$dir/$1.bin" -test.run '^$' -test.bench "$bench" \
			-test.benchmem -test.benchtime "$benchtime" -test.count 1) >"$out" 2>&1 ||
			{ cat "$out" >&2; echo "pair: $1 round $2 failed" >&2; exit 1; }
		echo "  round $2 $1: $(grep -c '^Benchmark' "$out") benchmarks" >&2
		return
	fi
	(cd "$dir/$1" && "$dir/$1.bin" --workload "$workload" --seed "$s" \
		--seconds "$seconds" --trace "$trace") >"$out" 2>&1
	echo "  round $2 seed $s $1: steal $(awk '$1 == "host.steal_pct" {print $2; exit}' "$out")%, $(tail -n 1 "$out" | cut -c1-60)..." >&2
}
for ((i = 0; i < rounds; i++)); do
	if ((i % 2 == 0)); then
		run base "$i"; run head "$i"
	else
		run head "$i"; run base "$i"
	fi
done

python3 - "$dir" "$rounds" "$bench" "$steal_max" <<'PYEOF'
import json, math, re, statistics, sys

d, n, bench, steal_max = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
better, bound = {}, {}
if not bench:
    spec = json.load(open(f"{d}/head/BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

def load_bench(path):
    # "BenchmarkFoo-2  300  123 ns/op  0 B/op  0 allocs/op": keep ns/op and
    # allocs/op, keyed by the name without its GOMAXPROCS suffix.
    out = {}
    for line in open(path):
        f = line.split()
        if not f or not f[0].startswith("Benchmark"):
            continue
        name = re.sub(r"-\d+$", "", f[0])
        for v, unit in zip(f[2::2], f[3::2]):
            if unit in ("ns/op", "allocs/op"):
                out[f"{name} {unit}"] = float(v)
    return out

def load(side, i):
    path = f"{d}/runs/{side}-{i}.txt"
    if bench:
        return load_bench(path)
    with open(path) as f:
        doc = json.loads(f.read().strip().splitlines()[-1])
    if not doc.get("correct"):
        sys.exit(f"pair: {side} round {i} failed its checks")
    return {k: v["value"] for k, v in doc["metrics"].items()}

def steal(side, i):
    # perfbench prints "  host.steal_pct  <value> %  (diagnostic, ...)"
    # for its untraced phase; None where a run did not report it.
    for line in open(f"{d}/runs/{side}-{i}.txt"):
        f = line.split()
        if len(f) >= 2 and f[0] == "host.steal_pct":
            return float(f[1])
    return None

base = [load("base", i) for i in range(n)]
head = [load("head", i) for i in range(n)]

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

need = math.ceil(0.9 * n)
if not set(base[0]) & set(head[0]):
    sys.exit("pair: no metric in common; does the benchmark regexp match on both sides?")
print(f"{'metric':32s} {'base median [IQR]':>26s} {'head median [IQR]':>26s} {'head wins':>9s}  verdict")
flagged = 0
for name in sorted(set(base[0]) & set(head[0])):
    b = [r[name] for r in base]
    h = [r[name] for r in head]
    lower = better.get(name, "lower") == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(b, h))
    mb, mh, ib, ih = statistics.median(b), statistics.median(h), iqr(b), iqr(h)
    gap = abs(mh - mb)
    verdict = "same"
    if n < 10:
        verdict = "too few rounds"
    elif gap > ib and wins >= need:
        verdict = "BETTER"
    elif gap > ib and losses >= need:
        verdict = "WORSE"
    notes = []
    if name in bound and mb:
        limit = bound[name] * abs(mb)
        if (mh - mb if lower else mb - mh) > limit:
            notes.append(f"worse than bound {bound[name]:g}")
        if ih > limit:
            notes.append(f"head IQR past bound {bound[name]:g}")
    flagged += bool(notes)
    print(f"{name:32s} {mb:14.4g} [{ib:9.3g}] {mh:14.4g} [{ih:9.3g}] {wins:4d}/{n:<4d}  {verdict}"
          + (" (" + "; ".join(notes) + ")" if notes else ""))
print(f"rule: better/worse needs >= 10 rounds, >= {need}/{n} wins/losses and a median gap wider than the base IQR")
if not bench:
    fmt = lambda v: "n/a" if v is None else f"{v:.1f}%"
    stolen = []
    print("host.steal_pct per round (base / head):", "  ".join(
        f"{i}: {fmt(steal('base', i))} / {fmt(steal('head', i))}" for i in range(n)))
    for i in range(n):
        if any(v is not None and v > steal_max for v in (steal("base", i), steal("head", i))):
            stolen.append(i)
    if stolen:
        print(f"steal: rounds {', '.join(map(str, stolen))} had more than {steal_max:g}% of the host's CPU stolen "
              f"on a side; the verdicts above rest partly on them")
sys.exit(1 if flagged else 0)
PYEOF
exit
}
