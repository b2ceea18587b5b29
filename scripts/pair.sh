#!/usr/bin/env bash
# pair.sh — paired same-host comparison of two revisions on the repository
# benchmark (perfbench), with the verdict rule written in.
#
# Usage:
#   scripts/pair.sh [-n ROUNDS] [-w WORKLOAD] [-s SECONDS] [-seed FIRST] [-trace 0|1] BASE HEAD
#   scripts/pair.sh -n 10 -w fleet-routed -s 40 -seed 101 8b5091a HEAD
#
# Both revisions are extracted with `git archive` into a fresh temp
# directory (mktemp, so under TMPDIR) and their perfbench binaries are built
# once each. Round i then runs both binaries on seed FIRST+i, base
# first in even rounds and head first in odd ones, so slow drift of the host
# lands on both sides equally (Mytkowicz et al., ASPLOS 2009; Kalibera &
# Jones, ISMM 2013). Every run's output stays in the temp directory's runs/.
#
# Per metric it prints both medians, both interquartile ranges and the
# rounds head won, in the direction BENCHMARK.json gives. Verdict rule: a
# change counts as better (or worse) only if it wins (or loses) at least 9
# in 10 rounds and the gap between the medians is wider than the base's
# IQR; anything else reads "same". Metrics whose median moved the wrong way
# by more than their BENCHMARK.json bound, or whose head IQR exceeds the
# bound, are flagged.
#
# Defaults: 10 rounds of fleet-routed, 40 s each, untraced, seeds from 1.
set -euo pipefail

rounds=10 workload=fleet-routed seconds=40 seed=1 trace=0
while [ $# -gt 2 ]; do
	case "$1" in
	-n) rounds="$2"; shift 2 ;;
	-w) workload="$2"; shift 2 ;;
	-s) seconds="$2"; shift 2 ;;
	-seed) seed="$2"; shift 2 ;;
	-trace) trace="$2"; shift 2 ;;
	*) echo "pair.sh: unknown option $1" >&2; exit 2 ;;
	esac
done
if [ $# -ne 2 ]; then
	sed -n '5,7p' "$0" >&2
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
	(cd "$dir/$side/perfbench" && go build -o "$dir/$side.bin" .)
done
echo "pair: base $(cat "$dir/base.rev") head $(cat "$dir/head.rev"); $rounds rounds of $workload, ${seconds}s, trace $trace; runs in $dir/runs" >&2

run() { # side round
	local s=$((seed + $2))
	# Each binary runs from its own tree, as perfbench/run.sh would.
	(cd "$dir/$1" && "$dir/$1.bin" --workload "$workload" --seed "$s" \
		--seconds "$seconds" --trace "$trace") >"$dir/runs/$1-$2.txt" 2>&1
	echo "  round $2 seed $s $1: $(tail -n 1 "$dir/runs/$1-$2.txt" | cut -c1-60)..." >&2
}
for ((i = 0; i < rounds; i++)); do
	if ((i % 2 == 0)); then
		run base "$i"; run head "$i"
	else
		run head "$i"; run base "$i"
	fi
done

python3 - "$dir" "$rounds" <<'PYEOF'
import json, math, statistics, sys

d, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open(f"{d}/head/BENCHMARK.json"))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

def load(side, i):
    with open(f"{d}/runs/{side}-{i}.txt") as f:
        doc = json.loads(f.read().strip().splitlines()[-1])
    if not doc.get("correct"):
        sys.exit(f"pair: {side} round {i} failed its checks")
    return {k: v["value"] for k, v in doc["metrics"].items()}

base = [load("base", i) for i in range(n)]
head = [load("head", i) for i in range(n)]

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

need = math.ceil(0.9 * n)
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
    if gap > ib and wins >= need:
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
print(f"rule: better/worse needs >= {need}/{n} wins/losses and a median gap wider than the base IQR")
sys.exit(1 if flagged else 0)
PYEOF
