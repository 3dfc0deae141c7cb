#!/bin/sh
# Tier-1 gate: build, full test suite, and a JSON bench smoke.
set -eu

cd "$(dirname "$0")"

# Byte-exact comparison with a readable failure: on mismatch, print a
# bounded unified diff (the goldens are large, a bare cmp offset is
# useless for diagnosing which model or pass diverged).
golden_diff() {
  if ! cmp -s "$1" "$2"; then
    echo "GOLDEN MISMATCH: $2 differs from $1" >&2
    diff -u "$1" "$2" | head -60 >&2
    return 1
  fi
}

echo "== dune build =="
dune build

echo "== exports: every exported value has a caller outside its module =="
# A value a lib/*/*.mli exports whose name appears in no .ml under lib/,
# bin/, examples/ or perfbench/ other than its own module's is reached
# by tests alone.  The scan is word-level: any other appearance of the
# name passes, so it raises no false alarms (and it misses a name that
# only a qualified or shadowed use elsewhere shares).  Allowlist, one
# entry per line, a Module.value or Module.* pattern and its reason:
export_allow='
Interp.* lib/interp stays until the memory-image oracle item decides it
'
unused=$(awk -v allow="$export_allow" '
  BEGIN {
    n_allow = split(allow, lines, "\n")
    for (i = 1; i <= n_allow; i++) { split(lines[i], f, " "); pat[i] = f[1] }
  }
  FNR == 1 { mli = FILENAME ~ /\.mli$/ }
  mli {
    if (match($0, /^[ \t]*val [a-z_][A-Za-z0-9_'"'"']*/)) {
      s = substr($0, RSTART, RLENGTH); sub(/^[ \t]*val /, "", s)
      own = FILENAME; sub(/i$/, "", own)
      m = FILENAME; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
      n++; name[n] = s; owner[n] = own; want[s] = 1
      mod[n] = toupper(substr(m, 1, 1)) substr(m, 2)
    }
    next
  }
  {
    line = $0; gsub(/[^A-Za-z0-9_'"'"']/, " ", line)
    k = split(line, w, " ")
    for (i = 1; i <= k; i++)
      if ((w[i] in want) && !((w[i], FILENAME) in hit)) {
        hit[w[i], FILENAME] = 1; files[w[i]]++
      }
  }
  END {
    for (i = 1; i <= n; i++) {
      if (files[name[i]] - ((name[i], owner[i]) in hit) > 0) continue
      q = mod[i] "." name[i]; ok = 0
      for (j = 1; j <= n_allow; j++)
        if (pat[j] == q || pat[j] == mod[i] ".*") ok = 1
      if (!ok) print q
    }
  }' $(find lib -name '*.mli' | sort) \
     $(find lib bin examples perfbench -name '*.ml' | sort) | sort -u)
if [ -n "$unused" ]; then
  echo "exported, but no caller outside its own module except tests:"
  echo "$unused"
  exit 1
fi

echo "== wire: one reply codec =="
# Only lib/serial/wire.ml builds, sums, classifies and decodes a reply:
# a second reader of a reply's "ok" or "sum" field, or a second digest
# of a payload's rendering, is a copy that can drift from what serve
# sends (the tier's own copy once dropped a requested sum).
wire_copies=$(grep -rnF -e 'member_opt "ok"' -e 'member_opt "sum"' \
  -e 'digest_string (Json.to_string' --include='*.ml' lib bin \
  | grep -v '^lib/serial/wire\.ml:' || true)
if [ -n "$wire_copies" ]; then
  echo "reply-format code outside lib/serial/wire.ml:"
  echo "$wire_copies"
  exit 1
fi

echo "== dune runtest =="
dune runtest

echo "== bench smoke: table1 --json =="
out=BENCH_table1.json
dune exec bin/lcmm_cli.exe -- bench table1 --json "$out" > /dev/null
# The emitted document must parse and carry the expected shape.
grep -q '"experiment": "table1"' "$out"
grep -q '"average_speedup"' "$out"
grep -q '"umm_ms"' "$out"
grep -q '"lcmm_ms"' "$out"
golden_diff test/golden/bench_table1.golden.json "$out"
echo "wrote $out"

echo "== tier-2: differential fuzzing (lcmm check) =="
# Fixed seeds keep the sweep deterministic; failures are shrunk and
# saved under _build/check-cases for replay with `lcmm check --replay`.
mkdir -p _build/check-cases
dune exec bin/lcmm_cli.exe -- check --seed 7 --count 500 \
  --save-dir _build/check-cases

echo "== bench: --json argument errors are one-line CLI errors =="
# --json names one output file, so it needs exactly one experiment and
# that experiment must produce a document; an unknown experiment is an
# error too.  Each is rejected before anything runs.
for args in "table1 faults --json _build/bench_reject.json" \
            "table2 --json _build/bench_reject.json" "bogus"; do
  status=0
  _build/default/bin/lcmm_cli.exe bench $args > _build/bench_reject.out \
    2> _build/bench_reject.err || status=$?
  [ "$status" -ne 0 ]
  [ ! -s _build/bench_reject.out ]
  [ "$(wc -l < _build/bench_reject.err)" -eq 1 ]
  grep -q '^lcmm: ' _build/bench_reject.err
done
[ ! -e _build/bench_reject.json ]
grep -q 'known: .*fusion' _build/bench_reject.err

echo "== tier-2: multi-tenant runtime smoke =="
dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,vgg:1 --seed 7 \
  --json BENCH_runtime_smoke.json > /dev/null
grep -q '"makespan_ms"' BENCH_runtime_smoke.json
grep -q '"bandwidth_timeline"' BENCH_runtime_smoke.json

echo "== tier-2: multi-tenant benchmark --json =="
out=BENCH_runtime.json
dune exec bin/lcmm_cli.exe -- bench runtime --json "$out" > /dev/null
grep -q '"experiment": "runtime"' "$out"
grep -q '"edf_makespan_ms"' "$out"
grep -q '"greedy_makespan_ms"' "$out"
grep -q '"optimized_makespan_ms"' "$out"
# Portfolio guarantee, per mix and in aggregate: the optimized schedule
# never loses to greedy or EDF on makespan.
grep -q '"all_not_worse": true' "$out"
if grep -q '"optimized_not_worse": false' "$out"; then
  echo "optimized schedule lost to greedy/edf on a mix"; exit 1
fi
# On at least half of the priority-arbitrated mixes the optimizer must
# cut the high-priority tenant's slowdown below EDF's.
awk -F': ' '/"priority_mix_count"/ { p = $2 + 0 }
            /"hp_reduced_count"/ { h = $2 + 0 }
            END { exit (p > 0 && 2 * h >= p) ? 0 : 1 }' "$out"
golden_diff test/golden/bench_runtime.golden.json "$out"
echo "wrote $out"

echo "== tier-2: seeded fault-injection smoke =="
# A seeded bank-loss + stall/failure mix must complete, report its spec
# and the per-tenant fault counters in the JSON document.
dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,squeezenet:1 \
  --faults 'seed=42,stall:0.1:0.3,fail:0.05,droop@2:5:0.5,bankloss@3:4m' \
  --json BENCH_fault_smoke.json > /dev/null
grep -q '"fault_spec"' BENCH_fault_smoke.json
grep -q '"faults"' BENCH_fault_smoke.json
grep -q '"retries"' BENCH_fault_smoke.json
# The same run pins the fault path byte for byte — stall and backoff
# floats included — at one and two runtime domains, and over three DRAM
# channels.
golden_diff test/golden/runtime_faults.golden.json BENCH_fault_smoke.json
dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,squeezenet:1 \
  --faults 'seed=42,stall:0.1:0.3,fail:0.05,droop@2:5:0.5,bankloss@3:4m' \
  --domains 2 --json _build/runtime_faults_par.json > /dev/null
golden_diff test/golden/runtime_faults.golden.json _build/runtime_faults_par.json
dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,squeezenet:1 \
  --faults 'seed=42,stall:0.1:0.3,fail:0.05,droop@2:5:0.5,bankloss@3:4m' \
  --channels 3 --json _build/runtime_faults_ch3.json > /dev/null
golden_diff test/golden/runtime_faults_channels3.golden.json \
  _build/runtime_faults_ch3.json
# The all-quiet spec must reproduce the fault-free report bit for bit.
dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,squeezenet:1 \
  --json BENCH_nofault_a.json > /dev/null
dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,squeezenet:1 \
  --faults 'seed=42' --json BENCH_nofault_b.json > /dev/null
cmp BENCH_nofault_a.json BENCH_nofault_b.json
rm -f BENCH_nofault_a.json BENCH_nofault_b.json

echo "== tier-2: degraded-plan oracle =="
dune exec bin/lcmm_cli.exe -- check --seed 11 --count 120 --oracle degraded \
  --save-dir _build/check-cases

echo "== tier-2: fault-intensity benchmark --json =="
out=BENCH_faults.json
dune exec bin/lcmm_cli.exe -- bench faults --json "$out" > /dev/null
grep -q '"experiment": "faults"' "$out"
grep -q '"degradation"' "$out"
grep -q '"evicted_bytes"' "$out"
golden_diff test/golden/bench_faults.golden.json "$out"
echo "wrote $out"

echo "== tier-2: planner perf benchmark --json =="
out=BENCH_perf.json
dune exec bin/lcmm_cli.exe -- bench perf --json "$out" > /dev/null
grep -q '"experiment": "perf"' "$out"
grep -q '"plans_per_sec"' "$out"
grep -q '"table_us"' "$out"
# The interference+coloring+dnnk time on the 1024-node mixed row must
# stay within 15575.95 us: 20x under the 311519 us that pipeline took
# before the packed-bitset interference and indexed DNNK work.
awk -F': ' '/"family"/ { fam = $2 } /"nodes"/ { n = $2 + 0 }
            /"icd_us"/ && fam ~ /"mixed"/ && n == 1024 { seen = 1; us = $2 + 0 }
            END { exit (seen && us <= 15575.95) ? 0 : 1 }' "$out"
# The benchmark must carry the 16k-node scale row.
grep -q '"nodes": 16384' "$out"
# Skip-family (DenseNet-style) rows time DNNK where the fan-in is wide.
# The 512-node row's DNNK pass must stay within 30 ms; evaluating Eq. 1
# over boxed items and hash lookups took ~200 ms there, a closure call
# per queried item 31-37 ms, and the mark-reading kernel 13-15 ms on a
# 2-vCPU host.
grep -q '"family": "skip"' "$out"
awk -F': ' '/"family"/ { fam = $2 } /"nodes"/ { n = $2 + 0 }
            /"dnnk_us"/ && fam ~ /"skip"/ && n == 512 { seen = 1; us = $2 + 0 }
            END { exit (seen && us <= 30000) ? 0 : 1 }' "$out"
# The same row's profile_us must stay within 10 ms.  It still times the
# graph table, the Eq. 1 profiles and the metric tables that
# Framework.plan builds; a compile takes the table from its DSE instead,
# and table_us times that table alone.  Flat input-term arrays and a
# one-walk consumer table read 3.4-5.7 ms there; per-edge term lists and
# a graph walk per value read 20-30 ms (2-vCPU host).
awk -F': ' '/"family"/ { fam = $2 } /"nodes"/ { n = $2 + 0 }
            /"profile_us"/ && fam ~ /"skip"/ && n == 512 { seen = 1; us = $2 + 0 }
            END { exit (seen && us <= 10000) ? 0 : 1 }' "$out"
# The 4096-node mixed row times the passes a splitting trial repeats.
# Coloring must stay within 18 ms, interference within 11 ms and the
# splitting loop within 130 ms; per-edge bit sets, member scans and a
# closure-built DNNK term read ~19, ~36 and ~195 ms there.
awk -F': ' '/"family"/ { fam = $2 } /"nodes"/ { n = $2 + 0 }
            fam ~ /"mixed"/ && n == 4096 && /"coloring_us"/ { seen++; c = $2 + 0 }
            fam ~ /"mixed"/ && n == 4096 && /"interference_us"/ { seen++; i = $2 + 0 }
            fam ~ /"mixed"/ && n == 4096 && /"splitting_us"/ { seen++; s = $2 + 0 }
            END { exit (seen == 3 && c <= 18000 && i <= 11000 && s <= 130000) ? 0 : 1 }' "$out"
# The tile DSE a compile runs (dse_us) is one sweep that scores both
# design styles from one per-graph table: within 10 ms on the 1024-node
# mixed row and 15 ms on the 512-node skip row.  It reads 2.1-3.5 and
# 3.4-5.0 ms there (2-vCPU host).  Two one-style sweeps with a per-tile
# streaming kernel read ~7-11 and ~42 ms, and a whole latency profile
# per design point ~102 and ~1072 ms per style.
awk -F': ' '/"family"/ { fam = $2 } /"nodes"/ { n = $2 + 0 }
            /"dse_us"/ && fam ~ /"mixed"/ && n == 1024 { seen = 1; us = $2 + 0 }
            END { exit (seen && us <= 10000) ? 0 : 1 }' "$out"
awk -F': ' '/"family"/ { fam = $2 } /"nodes"/ { n = $2 + 0 }
            /"dse_us"/ && fam ~ /"skip"/ && n == 512 { seen = 1; us = $2 + 0 }
            END { exit (seen && us <= 15000) ? 0 : 1 }' "$out"
# The second style must cost a fraction of a sweep, whatever the host:
# on the 1024- and 4096-node mixed rows, the both-styles sweep stays
# within 1.5x the LCMM-only one (dse_lcmm_us, the runtime's call).  One
# pass over the nodes per candidate for both styles read 1.00-1.13 and
# 1.14-1.39 there over 10 runs; a fold per style read 1.04-1.24 and
# 1.18-1.68, and two separate sweeps about 2.0 (2-vCPU host).
for size in 1024 4096; do
  awk -F': ' -v size="$size" '/"family"/ { fam = $2 } /"nodes"/ { n = $2 + 0 }
            fam ~ /"mixed"/ && n == size && /"dse_us"/ { seen++; both = $2 + 0 }
            fam ~ /"mixed"/ && n == size && /"dse_lcmm_us"/ { seen++; one = $2 + 0 }
            END { exit (seen == 2 && one > 0 && both <= 1.5 * one) ? 0 : 1 }' "$out"
done
# One schedule search on the squeezenet!x2 + inception_v4 x2 priority
# mix (9 candidates, one exact engine run each), best of 50, must stay
# within 26x the time of simulating its four plans alone with Sim.Engine
# (code the search does not run, timed in the same reps, so the ratio
# moves far less than either time on a slow or loaded host).  The
# allocation-lean search (flat engine state, an array beam, only the
# winner's run kept) read 14.6-20.9x over 10 runs (4.3-6.9 ms over
# 290-403 us); the one before it read 25.5-31.1x over 5 runs on the same
# host, and 23.3-31.7x before that; the one that rebuilt its
# scheduler and arbiter lists on every settle pass read 35-38x, 2-vCPU
# host.
awk -F': ' '/"runtime_search"/ { rs = 1 }
            rs && /"search_per_sim"/ { seen = 1; r = $2 + 0 }
            rs && /"engine_runs"/ { runs = $2 + 0 }
            END { exit (seen && runs >= 1 && r <= 26) ? 0 : 1 }' "$out"
# The same search gated on work, which no host changes: it allocates at
# most 400k minor words (reads 345,609; 891,815 with per-node engine
# records and a beam that copied its states), and one EDF engine run of
# its four tenants at most 45 words per node and transfer (reads 40.82;
# 82-87 before).
awk -F': ' '/"runtime_search"/ { rs = 1 }
            rs && /"search_minor_words"/ { sw++; words = $2 + 0 }
            rs && /"engine_words_per_item"/ { ew++; per = $2 + 0 }
            END { exit (sw == 1 && ew == 1 && words <= 400000 && per <= 45) ? 0 : 1 }' "$out"
# A cold capacity sweep must run the DSE and the prepare stage once: 16
# googlenet requests on a fresh engine that differ only in capacity,
# op and fusion share one design key and one prepare key, so the other
# 15 take both stages from the model's stage memo.  A sweep per request
# counted 16 of each.
awk -F': ' '/"cold_sweep"/ { cs = 1 }
            cs && /"requests"/ { req = $2 + 0 }
            cs && /"dse_runs"/ { dn++; d = $2 + 0 }
            cs && /"prepares"/ { pn++; p = $2 + 0 }
            END { exit (dn == 1 && pn == 1 && req == 16 && d == 1 && p == 1) ? 0 : 1 }' "$out"
# A repeated compile must not hash the model: the best-of-300 warm hit
# on resnet152 (30.5 KB of canonical text) stays within 2x the one on
# alexnet (1.4 KB).  Answering from the per-model digest memo reads
# 0.8-1.1; hashing the model on every hit read 3.5-3.9 (2-vCPU host).
awk -F': ' '/"warm_hit"/ { wh = 1 }
            wh && /"resnet152_per_alexnet"/ { seen = 1; r = $2 + 0 }
            END { exit (seen && r <= 2.0) ? 0 : 1 }' "$out"
echo "wrote $out"

echo "== tier-2: wide-row DNNK on a 536-node skip graph =="
# The skip rows above all fit their SRAM, so they never reach the DP.
# This graph does, with compensation rows and nodes too wide for their
# memos.  The plan must finish within 15 s (5.4-7.2 s on a 2-vCPU host)
# and keep its digest.
dune build ./perfbench/main.exe
skip_out=$(timeout 15 ./_build/default/perfbench/main.exe --plan-skip 536)
echo "$skip_out"
echo "$skip_out" | grep -q 'plan digest eaf8301c98bb670de2fc331367a213e6$'

echo "== tier-2: sharded tier vs single-process serve (byte-exact) =="
# One compile per zoo model; with timing off every response is a pure
# function of its request, so a 2-shard tier must answer byte-for-byte
# what one serve process answers.
reqs=_build/tier_requests.ndjson
dune exec bin/lcmm_cli.exe -- models 2>/dev/null | awk \
  '{ printf "{\"op\":\"compile\",\"model\":\"%s\",\"dtype\":\"i16\"}\n", $1 }' \
  > "$reqs"
dune exec bin/lcmm_cli.exe -- serve --no-timing < "$reqs" \
  > _build/tier_serve_ref.ndjson 2> /dev/null
dune exec bin/lcmm_cli.exe -- tier --shards 2 --no-timing < "$reqs" \
  > _build/tier_fresh.ndjson 2> /dev/null
cmp _build/tier_serve_ref.ndjson _build/tier_fresh.ndjson

echo "== tier-2: every wire field, serve and tier (byte-exact) =="
# Requests that set every planner option, every run and tenant field,
# simulate's images and the envelope's id, deadline and checksum off
# their defaults, plus two malformed ones; then the error and decode
# paths: models, a cache_get miss, an unknown op, a truncated line, an
# id holding an object, and a batch with a checksum.  One serve process must
# answer the committed golden, and a 2-shard tier, which re-encodes each
# request to forward it, must answer byte-for-byte the same.
fields=test/golden/protocol_fields.requests.ndjson
dune exec bin/lcmm_cli.exe -- serve --no-timing < "$fields" \
  > _build/protocol_fields_serve.ndjson 2> /dev/null
golden_diff test/golden/protocol_fields.golden.ndjson \
  _build/protocol_fields_serve.ndjson
dune exec bin/lcmm_cli.exe -- tier --shards 2 --no-timing < "$fields" \
  > _build/protocol_fields_tier.ndjson 2> /dev/null
cmp _build/protocol_fields_serve.ndjson _build/protocol_fields_tier.ndjson

echo "== tier-2: peer cache fill across a reshard =="
# Warm a 1-shard tier's disk cache, then serve the same workload from a
# 2-shard tier over the same cache root: digests now owned by the new
# shard miss locally and must be filled from the warm sibling's cache —
# no plan is ever compiled twice.
cache_root=_build/tier_cache
rm -rf "$cache_root"
dune exec bin/lcmm_cli.exe -- tier --shards 1 --cache-dir "$cache_root" \
  --no-timing < "$reqs" > /dev/null 2> /dev/null
{ cat "$reqs"; echo '{"op":"stats"}'; } \
  | dune exec bin/lcmm_cli.exe -- tier --shards 2 --cache-dir "$cache_root" \
      --no-timing > _build/tier_warm.ndjson 2> /dev/null
# The warm answers (served from disk and peer fills) must still be
# byte-identical to the single-process reference, whichever shard
# answered each digest.
head -n "$(wc -l < "$reqs")" _build/tier_warm.ndjson \
  | cmp - _build/tier_serve_ref.ndjson
# And the tier counters must show the fill actually happened.
tail -n 1 _build/tier_warm.ndjson | grep -q '"computes":0'
tail -n 1 _build/tier_warm.ndjson \
  | awk -F'"peer_fills":' '{ exit (($2 + 0) >= 1) ? 0 : 1 }'

echo "== tier-2: tier socket cleanup on SIGTERM =="
tier_sockdir=_build/tier_sockets
rm -rf "$tier_sockdir"
dune exec bin/lcmm_cli.exe -- tier --shards 2 --socket _build/tier_front.sock \
  --socket-dir "$tier_sockdir" 2> /dev/null &
tier_pid=$!
i=0
while [ ! -S _build/tier_front.sock ] && [ "$i" -lt 200 ]; do
  sleep 0.05; i=$((i + 1))
done
[ -S _build/tier_front.sock ]
kill -TERM "$tier_pid"
wait "$tier_pid" || true
# The front socket, every shard socket and every shard process are gone.
[ ! -e _build/tier_front.sock ]
if ls "$tier_sockdir"/*.sock > /dev/null 2>&1; then
  echo "leaked shard sockets"; exit 1
fi

echo "== tier-2: a rejected tier argument leaves no shard behind =="
# --vnodes 0 is refused by the ring, after the shards are spawned: every
# spawned `lcmm serve` must be stopped and its socket removed.
bad_sockdir=_build/tier_bad_args
rm -rf "$bad_sockdir"
status=0
_build/default/bin/lcmm_cli.exe tier --shards 2 --workers 1 --vnodes 0 \
  --socket-dir "$bad_sockdir" < /dev/null 2> _build/tier_bad_args.err \
  || status=$?
[ "$status" -ne 0 ]
grep -q '^lcmm: Ring.create: vnodes must be >= 1$' _build/tier_bad_args.err
if pgrep -f "serve --socket $bad_sockdir/" > /dev/null; then
  echo "leaked shard processes"; pkill -f "serve --socket $bad_sockdir/"
  exit 1
fi
if ls "$bad_sockdir"/*.sock > /dev/null 2>&1; then
  echo "leaked shard sockets"; exit 1
fi

echo "== tier-2: serve load benchmark --json + p99 SLO gate =="
out=BENCH_serve.json
dune exec bin/lcmm_cli.exe -- bench serve --json "$out" 2> /dev/null > /dev/null
grep -q '"experiment": "serve"' "$out"
grep -q '"p999_ms"' "$out"
grep -q '"saturation_rps"' "$out"
grep -q '"slo_pass": true' "$out"
echo "wrote $out"

echo "== tier-2: plan/runtime bit-exactness vs committed goldens =="
# The optimized pipeline must keep producing byte-identical output: the
# whole-zoo plan summaries and a single-tenant runtime report are
# compared against goldens committed with the optimization work.
dune exec bin/lcmm_cli.exe -- plan > _build/plan_zoo.out
golden_diff test/golden/plan_zoo.golden _build/plan_zoo.out
dune exec bin/lcmm_cli.exe -- runtime --tenants googlenet:1 \
  --json _build/runtime_single.json > /dev/null
golden_diff test/golden/runtime_single.golden.json _build/runtime_single.json
# The optimizer work must leave the exact greedy and EDF paths byte
# identical: goldens snapshotted before the schedule search landed.
dune exec bin/lcmm_cli.exe -- runtime --tenants googlenet:1 \
  --scheduler greedy --json _build/runtime_single_greedy.json > /dev/null
golden_diff test/golden/runtime_single_greedy.golden.json \
  _build/runtime_single_greedy.json
dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,vgg16:1 --seed 7 \
  --json _build/runtime_multi_edf.json > /dev/null
golden_diff test/golden/runtime_multi_edf.golden.json \
  _build/runtime_multi_edf.json

echo "== tier-2: optimized schedule search converges across the zoo =="
# Two replicas of every zoo model: the plan/schedule co-iteration must
# reach its fixpoint (not the round limit) and report the search
# telemetry on each.
for m in $(dune exec bin/lcmm_cli.exe -- models 2> /dev/null \
             | awk '{ print $1 }'); do
  dune exec bin/lcmm_cli.exe -- runtime --tenants "$m:2" \
    --scheduler optimized --json _build/runtime_opt_zoo.json > /dev/null
  grep -q '"converged": true' _build/runtime_opt_zoo.json \
    || { echo "optimized schedule did not converge on $m x2"; exit 1; }
done

echo "== tier-2: parallel runtime is byte-identical =="
# Runtime parallelism (per-tenant solves, schedule candidates) must be a
# pure speedup: the same runtime report on 4 worker domains, byte for
# byte.  Each plan runs on one domain, so `plan` takes no --domains.
dune exec bin/lcmm_cli.exe -- runtime --tenants googlenet:1 --domains 4 \
  --json _build/runtime_single_par.json > /dev/null
golden_diff test/golden/runtime_single.golden.json _build/runtime_single_par.json

echo "== tier-2: fusion — off is inert, on sweeps the zoo, DDR must win =="
# Fusion off: the plan output (and the runtime report above) already
# matched the committed goldens byte for byte — the flagless pipeline
# must be indistinguishable from a build without lib/fusion.  Fusion
# on: the whole zoo plans cleanly and prints its decisions.
dune exec bin/lcmm_cli.exe -- plan --fusion > _build/plan_zoo_fusion.out
grep -q '^fusion: ' _build/plan_zoo_fusion.out
# The fusion-on output minus its fusion lines and the SRAM grant (the
# fused plan charges the FIFO + slabs, so that one number may grow) is
# exactly the golden: the post-pass appends and re-accounts, it never
# perturbs a planning decision.
grep -v -e '^fusion: ' -e '^  segment \[' _build/plan_zoo_fusion.out \
  | sed 's/; tensor SRAM [0-9]* bytes$//' > _build/plan_zoo_fusion_stripped.out
sed 's/; tensor SRAM [0-9]* bytes$//' test/golden/plan_zoo.golden \
  > _build/plan_zoo_nosram.golden
golden_diff _build/plan_zoo_nosram.golden _build/plan_zoo_fusion_stripped.out
# The ablation bench: at least one zoo model must strictly beat base
# LCMM on total DDR bytes under fusion.
out=BENCH_fusion.json
dune exec bin/lcmm_cli.exe -- bench fusion --json "$out" 2> /dev/null \
  > /dev/null
grep -q '"experiment": "fusion"' "$out"
grep -q '"lcmm_fusion"' "$out"
grep -q '"stream_tile"' "$out"
awk -F': ' '/"fusion_ddr_wins"/ { exit ($2 + 0 >= 1) ? 0 : 1 }' "$out"
golden_diff test/golden/bench_fusion.golden.json "$out"
echo "wrote $out"

echo "== tier-2: runtime fusion path vs committed golden (1 and 2 domains) =="
# `lcmm runtime --fusion` is the only caller of the runtime's fusion
# hook: its report is pinned byte for byte at one and two runtime
# domains.
for d in 1 2; do
  dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,squeezenet:1 \
    --fusion --domains "$d" --json _build/runtime_fusion_d$d.json > /dev/null
  golden_diff test/golden/runtime_fusion.golden.json \
    _build/runtime_fusion_d$d.json
done

echo "== tier-2: optimized runtime vs committed golden (1 and 2 domains) =="
# The optimized scheduler's plan/schedule co-iteration under priority
# arbitration, with fusion and two DDR channels: its report is pinned
# byte for byte at one and two runtime domains.
for d in 1 2; do
  dune exec bin/lcmm_cli.exe -- runtime \
    --tenants squeezenet:2:0,inception_v4:2:1 --scheduler optimized \
    --arbitration priority --fusion --channels 2 --domains "$d" \
    --json _build/runtime_optimized_d$d.json > /dev/null
  golden_diff test/golden/runtime_optimized.golden.json \
    _build/runtime_optimized_d$d.json
done

echo "== tier-2: optimized runtime under faults vs committed golden (1 and 2 domains) =="
# The schedule search under the ci fault spec: every candidate run
# replays the same seeded faults and the bank loss degrades one tenant
# mid-run.  Pinned byte for byte at one and two runtime domains.
for d in 1 2; do
  dune exec bin/lcmm_cli.exe -- runtime --tenants alexnet:2,squeezenet:1 \
    --scheduler optimized \
    --faults 'seed=42,stall:0.1:0.3,fail:0.05,droop@2:5:0.5,bankloss@3:4m' \
    --domains "$d" --json _build/runtime_optimized_faults_d$d.json > /dev/null
  golden_diff test/golden/runtime_optimized_faults.golden.json \
    _build/runtime_optimized_faults_d$d.json
done

echo "== tier-2: chaos off is byte-identical =="
# The whole resilience layer (retries, hedging, call timeouts, checksum
# validation) plus a quiet chaos spec (seed only, no transport clauses)
# must be invisible: the tier answers byte-for-byte what the plain serve
# reference answered.
dune exec bin/lcmm_cli.exe -- tier --shards 2 --no-timing \
  --chaos 'seed=7' --retries 2 --hedge-ms 200 --call-timeout-ms 2000 \
  < "$reqs" > _build/tier_quiet.ndjson 2> /dev/null
cmp _build/tier_serve_ref.ndjson _build/tier_quiet.ndjson

echo "== tier-2: malformed chaos spec is a structured CLI error =="
# A bad clause must be rejected at argument-parse time (cmdliner exit
# 124) with an error naming the offending clause — not at serve time.
status=0
dune exec bin/lcmm_cli.exe -- tier --chaos 'seed=1,bogus:0.5' \
  < /dev/null > /dev/null 2> _build/chaos_badspec.err || status=$?
[ "$status" -eq 124 ]
grep -q 'clause' _build/chaos_badspec.err

echo "== tier-2: SIGTERM drains gracefully =="
# SIGTERM on a live tier must finish in-flight work, flush the router
# LRU to the shard caches, report the drain, exit 0, and leave no shard
# socket or process behind.
drain_sockdir=_build/tier_drain_socks
drain_fifo=_build/tier_drain_fifo
# Stale outputs from a previous run would satisfy the response-wait
# instantly and race the TERM against tier startup.
rm -rf "$drain_sockdir"
rm -f "$drain_fifo" _build/tier_drain.out _build/tier_drain.err
mkfifo "$drain_fifo"
# The binary directly, not via `dune exec`: the TERM must reach the
# tier itself, not a wrapper that may die 143 before forwarding it.
_build/default/bin/lcmm_cli.exe tier --shards 2 --no-timing \
  --socket-dir "$drain_sockdir" < "$drain_fifo" \
  > _build/tier_drain.out 2> _build/tier_drain.err &
drain_pid=$!
exec 9> "$drain_fifo"
printf '{"op":"compile","model":"alexnet","dtype":"i8"}\n' >&9
i=0
while [ ! -s _build/tier_drain.out ] && [ "$i" -lt 200 ]; do
  sleep 0.05; i=$((i + 1))
done
[ -s _build/tier_drain.out ]
kill -TERM "$drain_pid"
wait "$drain_pid"
exec 9>&-
rm -f "$drain_fifo"
grep -q 'drained' _build/tier_drain.err
grep -q '"ok":true' _build/tier_drain.out
if ls "$drain_sockdir"/*.sock > /dev/null 2>&1; then
  echo "leaked shard sockets after drain"; exit 1
fi
# Only a real lcmm process counts as a leak (pgrep -f also matches any
# unrelated command line that merely mentions the socket dir).
for p in $(pgrep -f "$drain_sockdir" || true); do
  [ "$p" = "$$" ] && continue
  if [ -e "/proc/$p/exe" ] \
     && readlink "/proc/$p/exe" | grep -q lcmm_cli; then
    echo "leaked shard process $p after drain"; exit 1
  fi
done

echo "== tier-2: chaos soak — availability, integrity, reproducibility =="
# The zoo mix through a deliberately faulty 2-shard tier over the
# intensity ladder: availability at the middle rung must hold the
# floor, every success must be byte-identical to the fault-free
# reference (zero divergent), and the same spec + seed must reproduce
# the injected/tier counters exactly across two runs.
out=BENCH_chaos.json
dune exec bin/lcmm_cli.exe -- bench chaos --json "$out" \
  2> /dev/null > /dev/null
grep -q '"experiment": "chaos"' "$out"
grep -q '"divergent_total": 0' "$out"
grep -q '"availability_pass": true' "$out"
grep -q '"integrity_pass": true' "$out"
grep -q '"chaos_pass": true' "$out"
dune exec bin/lcmm_cli.exe -- bench chaos --json _build/BENCH_chaos_rerun.json \
  2> /dev/null > /dev/null
fp_a=$(grep -o '"counter_fingerprint": "[0-9a-f]*"' "$out")
fp_b=$(grep -o '"counter_fingerprint": "[0-9a-f]*"' _build/BENCH_chaos_rerun.json)
[ -n "$fp_a" ] && [ "$fp_a" = "$fp_b" ]
echo "wrote $out"

echo "CI OK"
