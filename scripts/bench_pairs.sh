#!/bin/sh
# Alternating parent/change pairs of the serving benchmark, the way
# benchmark/README.md and the choosing-metrics guide ask a gain or a
# "no regression" to be shown: bench_pairs.sh <base-ref> [pairs=5]
# (`make bench-pairs BASE=<ref> [PAIRS=n]`).
#
# The base commit is unpacked under a temp dir and the working tree is
# the change; pair i runs `go run ./benchmark -seed i -runs 1` on both,
# odd pairs parent first, even pairs change first. Each side's runs are
# then concatenated into one result document (a document's
# workloads.<name> is a list of runs) whose provenance names the side's
# commit (the change's with +dirty when the tree is), a table counts, per
# workload and end-to-end metric, the pairs each side won — its verdict
# column says "better" when every change run beats every parent run,
# "worse" when every parent run beats every change run, and otherwise
# defers to -compare — and `-compare parent change` prints the medians
# against BENCHMARK.json's bounds. Every
# invocation appends one JSON line to BENCH_history.jsonl: both commits,
# the date, the host's cores and GOMAXPROCS, and each side's per-workload
# medians of every end-to-end metric, with the pair wins, the separated
# verdicts and the failures.
# Nothing else may run on the machine meanwhile; one pair takes about 5
# minutes.
#
# bench_pairs.sh <base-ref> <pairs> <workload> (`make bench-pairs
# BASE=<ref> WORKLOAD=<name>`) runs that one workload instead: pair i is
# `go run ./benchmark -workload <name> -seed i -trace 0` on both sides,
# whose one-line result is wrapped into a one-run result document, so
# the table, the history line and -compare read it as they read a full
# run (-compare lists the other workloads as missing). A pair then takes
# about two minutes — the way to buy the ten pairs a claim needs on the
# workload it names; the all-workload pairs stay the no-regression check.
set -eu
cd "$(dirname "$0")/.."
base=${1:?usage: bench_pairs.sh <base-ref> [pairs=5] [workload]}
pairs=${2:-5}
workload=${3:-}
command -v python3 >/dev/null || { echo "bench_pairs: python3 is needed to merge the result documents" >&2; exit 1; }
change=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$base" | tar -x -C "$tmp/parent"

i=1
while [ "$i" -le "$pairs" ]; do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for side in $order; do
		dir=$change
		[ "$side" = parent ] && dir=$tmp/parent
		echo "== pair $i of $pairs: $side, seed $i"
		# A run with failed requests exits non-zero after writing its
		# document; keep going so that every run made is reported.
		if [ -n "$workload" ]; then
			(cd "$dir" && go run ./benchmark -workload "$workload" -seed "$i" -trace 0 >"$tmp/$side.$i.line") ||
				echo "== pair $i: the $side run reported failures"
		else
			(cd "$dir" && go run ./benchmark -seed "$i" -runs 1 -out "$tmp/$side.$i.json") ||
				echo "== pair $i: the $side run reported failures"
		fi
	done
	i=$((i + 1))
done

base_commit=$(git rev-parse --short=12 "$base")
change_commit=$(git rev-parse --short=12 HEAD)
[ -n "$(git status --porcelain --untracked-files=no)" ] && change_commit="$change_commit+dirty"

python3 - "$tmp" "$pairs" "$base_commit" "$change_commit" "$workload" <<'PY'
import datetime, json, os, statistics, sys
tmp, pairs, only = sys.argv[1], int(sys.argv[2]), sys.argv[5]

def one_workload_doc(side, i):
    # The one-line result of `-workload W -trace 0`, as a result document
    # holding one run of W.
    line = json.loads(open(f"{tmp}/{side}.{i}.line").read().strip().splitlines()[-1])
    run = {"workload": only, "seed": i, "correct": line["correct"], "attempted": line["attempted"],
           "failed": line["failed"], "end_to_end": line["metrics"]}
    prov = {"nproc": os.cpu_count(), "seed": i,
            "gomaxprocs": int(os.environ.get("GOMAXPROCS") or os.cpu_count())}
    return {"provenance": prov, "workloads": {only: [run]}}

docs = {}
for side in ("parent", "change"):
    doc = None
    for i in range(1, pairs + 1):
        run = one_workload_doc(side, i) if only else json.load(open(f"{tmp}/{side}.{i}.json"))
        if doc is None:
            doc = run
        else:
            for name, runs in run["workloads"].items():
                doc["workloads"][name] += runs
    # The benchmark records HEAD, which names neither an unpacked parent
    # (no .git) nor an uncommitted change: say which commit ran.
    doc["provenance"]["commit"] = sys.argv[3] if side == "parent" else sys.argv[4]
    json.dump(doc, open(f"{tmp}/{side}.json", "w"))
    docs[side] = doc["workloads"]

spec = json.load(open("BENCHMARK.json"))
parent, change = docs["parent"], docs["change"]
history = {
    "base": sys.argv[3], "change": sys.argv[4], "pairs": pairs,
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    # Both sides run on this host; the change's envelope says with what.
    "nproc": os.cpu_count(), "gomaxprocs": doc["provenance"]["gomaxprocs"],
    "workloads": {},
}
if only:
    history["workload"] = only
print("\npairs won (same seed, parent vs change; ties count for neither) and the verdict")
print(f"{'workload':<14} {'metric':<16} {'parent':>6} {'change':>6} {'tie':>4}  verdict")
for w in (w["name"] for w in spec["workloads"] if not only or w["name"] == only):
    for m in spec["end_to_end"]:
        wins = {"parent": 0, "change": 0, "tie": 0}
        # Values signed so that larger is better.
        sign = -1 if m["better"] == "lower" else 1
        pvs = [sign * r["end_to_end"][m["name"]]["value"] for r in parent[w]]
        cvs = [sign * r["end_to_end"][m["name"]]["value"] for r in change[w]]
        for pv, cv in zip(pvs, cvs):
            wins["tie" if pv == cv else "change" if cv > pv else "parent"] += 1
        # Separated runs need no spread bound: every run of one side
        # beats every run of the other.
        verdict = "better" if min(cvs) > max(pvs) else "worse" if max(cvs) < min(pvs) else "see -compare"
        print(f"{w:<14} {m['name']:<16} {wins['parent']:>6} {wins['change']:>6} {wins['tie']:>4}  {verdict}")
        for side, runs in (("parent", parent[w]), ("change", change[w])):
            med = statistics.median(r["end_to_end"][m["name"]]["value"] for r in runs)
            history["workloads"].setdefault(w, {}).setdefault(side, {})[m["name"]] = med
        history["workloads"][w].setdefault("change_wins", {})[m["name"]] = wins["change"]
        if verdict != "see -compare":
            history["workloads"][w].setdefault("verdict", {})[m["name"]] = verdict
    failed = sum(r["failed"] for r in parent[w] + change[w])
    wrong = sum(not r["correct"] for r in parent[w] + change[w])
    history["workloads"][w].update(failed=failed, wrong=wrong)
    print(f"{w:<14} failed requests {failed}, runs answering wrongly {wrong}")
print()
with open("BENCH_history.jsonl", "a") as f:
    f.write(json.dumps(history, sort_keys=True) + "\n")
PY
go run ./benchmark -compare "$tmp/parent.json" "$tmp/change.json" || true
