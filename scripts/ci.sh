#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
#
# The build environment has no crates registry, so every cargo call runs
# --offline; the workspace is self-contained (see crates/compat/).
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release (offline) =="
cargo build --workspace --release --offline

echo "== cargo test (offline) =="
cargo test --workspace -q --offline

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== perfbench: the benchmark still builds and its own tests pass =="
# perfbench/layers links the workspace crates by path, so an engine API
# change that breaks the benchmark fails here rather than at benchmark
# time. Its own workspace: the build lands in perfbench/layers/target.
cargo build --release --offline --manifest-path perfbench/layers/Cargo.toml
cargo test --offline --manifest-path perfbench/layers/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "== validate smoke: differential harness =="
# Fast tier of the differential validation harness (spmv-locality
# validate): 16 stratified matrices through every prediction pipeline
# and the simulator, exits nonzero on any invariant divergence. The full
# 200-matrix corpus is the release gate (see EXPERIMENTS.md). The summary
# line must also report the pinned check count, so a check row that
# silently stops running fails here; change the count only together with
# the checks it counts.
VALIDATE_SMOKE_CHECKS=4462
VALIDATE_TMP=$(mktemp)
cargo run --release --offline --bin spmv-locality -- \
    validate --matrices 16 --smoke > "$VALIDATE_TMP"
python3 - "$VALIDATE_TMP" "$VALIDATE_SMOKE_CHECKS" <<'EOF'
import json, sys

summary = json.loads(open(sys.argv[1]).read().splitlines()[-1])["summary"]
want = int(sys.argv[2])
assert summary["divergences"] == 0, summary
assert summary["checks_run"] == want, \
    f"validate smoke ran {summary['checks_run']} checks, pinned {want}"
print(f"validate smoke ok: {want} checks, 0 divergences")
EOF
rm -f "$VALIDATE_TMP"

echo "== telemetry smoke: batch --metrics (spmv-obs) =="
# The metrics sink must never change the report: run the same tiny batch
# with and without --metrics (and with different worker counts) and
# byte-compare the JSON-lines output, then check the metrics document is
# valid JSON whose span tree covers the pipeline stages end to end.
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT
printf 'corpus count=2 scale=64 seed=7\nmethods A,B\nsettings off,2,5\nthreads 2\nscale 64\n' \
    > "$OBS_TMP/jobs.spec"
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/jobs.spec" --workers 1 > "$OBS_TMP/report_plain.jsonl"
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/jobs.spec" --workers 4 --metrics "$OBS_TMP/metrics.json" \
    > "$OBS_TMP/report_metrics.jsonl"
cmp "$OBS_TMP/report_plain.jsonl" "$OBS_TMP/report_metrics.jsonl" || {
    echo "ci: batch report changed under --metrics / worker count" >&2
    exit 1
}
python3 - "$OBS_TMP/metrics.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spmv-obs/1", doc["schema"]

names = set()
def walk(spans):
    for s in spans:
        names.add(s["name"])
        walk(s["children"])
walk(doc["spans"])
for span in ("batch.run", "cache.lookup", "profile.build",
             "profile.domain", "reuse_stack.extract", "trace.stream"):
    assert span in names, f"missing span {span}; saw {sorted(names)}"
assert doc["counters"]["engine.cache.computations"] > 0, doc["counters"]
assert doc["counters"]["memtrace.cursor.refs"] > 0, doc["counters"]
# --workers 4 over two one-domain matrices leaves each profile two pool
# workers, so the byte comparison above covers the capacity-sharded
# fan-out, not only the per-domain one.
assert doc["gauges"].get("engine.profile.shards", 0) >= 2, doc["gauges"]
# The marker stacks ran and reported their accesses.
assert doc["counters"]["reuse.marker.accesses"] > 0, doc["counters"]
# So did method (B)'s exact stack, and its distinct-pair count — the
# measure of the pair storage — was observed once per profile domain.
assert doc["counters"]["reuse.exact.accesses"] > 0, doc["counters"]
pairs = doc["histograms"].get("core.xpair.distinct_pairs")
assert pairs and pairs["count"] > 0 and pairs["sum"] > 0, doc["histograms"].keys()
# What a finished method-(B) profile retains, its entries summed over the
# per-domain runs, is observed once per profile: two matrices, each
# profiled once for method B. The runs are never merged, so the retained
# entries are exactly the domains' distinct pairs.
kept = doc["histograms"].get("core.xpair.profile_pairs")
assert kept and kept["count"] == 2, doc["histograms"].keys()
assert kept["sum"] == pairs["sum"], (kept, pairs)
assert doc["histograms"], "no histograms recorded"
assert doc["rss_checkpoints"], "no RSS checkpoints recorded"
print(f"telemetry smoke ok: {len(names)} span names, "
      f"{len(doc['counters'])} counters, {len(doc['histograms'])} histograms")
EOF

echo "== serve smoke: prediction daemon vs batch oracle =="
# The serve daemon on a temp Unix socket, driven by a scripted client:
# responses must byte-match the batch command on the same spec (modulo
# the id framing), a repeated request must be served from the shared
# LRU cache, and a SIGTERM with work in flight must drain it (non-zero
# drained count, exit 0, socket file removed).
printf 'corpus count=4 scale=64 seed=9\nmethods A,B\nsettings paper\nthreads 1\nscale 64\nworkers 1\n' \
    > "$OBS_TMP/serve.spec"
# Seconds of uncached work (full-size machine; about 2 s on a 2-vCPU
# host, where scale 4 now takes 0.4 s) so the SIGTERM below is
# guaranteed to land while the request is in flight.
printf 'corpus count=1 scale=1 seed=3\nsettings paper\nmethods B\nthreads 4\nscale 1\nworkers 2\n' \
    > "$OBS_TMP/serve_heavy.spec"
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/serve.spec" > "$OBS_TMP/serve_oracle.jsonl"
cargo run --release --offline --bin spmv-locality -- \
    serve --unix "$OBS_TMP/serve.sock" --executors 2 \
    2> "$OBS_TMP/serve_stderr.txt" &
SERVE_PID=$!
SERVE_SMOKE=0
python3 - "$OBS_TMP" "$SERVE_PID" <<'EOF' || SERVE_SMOKE=$?
import json, os, signal, socket, sys, time

tmp, serve_pid = sys.argv[1], int(sys.argv[2])
sock_path = os.path.join(tmp, "serve.sock")
for _ in range(400):
    if os.path.exists(sock_path):
        break
    time.sleep(0.025)
else:
    sys.exit("serve daemon never bound its socket")

spec = open(os.path.join(tmp, "serve.spec")).read()
heavy = open(os.path.join(tmp, "serve_heavy.spec")).read()
oracle = [l for l in open(os.path.join(tmp, "serve_oracle.jsonl"))
          if '"job":' in l]

s = socket.socket(socket.AF_UNIX)
s.connect(sock_path)
f = s.makefile("rw")

def predict(rid, text):
    f.write(json.dumps({"id": rid, "spec": text}) + "\n")
    f.flush()
    reports, done = [], None
    while done is None:
        line = f.readline()
        msg = json.loads(line)
        assert msg["id"] == rid, line
        if "done" in msg:
            done = msg["done"]
        else:
            prefix = '{"id":"%s","report":' % rid
            assert line.startswith(prefix) and line.rstrip().endswith("}"), line
            reports.append(line.rstrip()[len(prefix):-1] + "\n")
    return reports, done

# Responses byte-match the batch oracle under the framing.
reports, done = predict("c1", spec)
assert reports == oracle, "serve payloads differ from batch output"
assert done["profile_computations"] == 8, done  # 4 matrices x 2 methods

# The repeat is served entirely from the shared cache.
_, done = predict("c2", spec)
assert done == {"matrices": 4, "jobs": 56, "profile_hits": 56,
                "profile_computations": 0}, done

# Typed error for a malformed line; the session survives.
f.write("definitely not json\n"); f.flush()
err = json.loads(f.readline())
assert err["error"]["code"] == "bad_request", err

# STATUS exposes the cache SLO and source counters.
f.write('{"id":"s1","status":true}\n'); f.flush()
body = json.loads(f.readline())["status"]
assert body["counters"]["engine.cache.computations"] == 8, body["counters"]
assert body["counters"]["engine.cache.hits"] == 104, body["counters"]
# Only c1 built its 4 matrices: the repeat's names, fingerprints and
# shapes came from the source memo.
assert body["counters"]["engine.sources.built"] == 4, body["counters"]

# A line of 20,000 nested arrays (well under the 1 MiB line cap) is a
# typed error from the parser's nesting bound, not a stack overflow that
# takes the daemon down: STATUS still answers afterwards.
f.write("[" * 20000 + "\n"); f.flush()
err = json.loads(f.readline())
assert err["error"]["code"] == "bad_request", err
f.write('{"id":"s2","status":true}\n'); f.flush()
msg = json.loads(f.readline())
assert msg["id"] == "s2" and "status" in msg, msg

# A right-hand-side count whose layout exceeds the stacks' u32 line ids
# is a typed error before anything is sized by it (it used to abort the
# daemon on a 200 GB allocation); STATUS still answers afterwards.
f.write(json.dumps({"id": "k", "spec": spec + "rhs 100000000000\n"}) + "\n")
f.flush()
err = json.loads(f.readline())
assert err["id"] == "k" and err["error"]["code"] == "bad_request", err
assert "cache lines" in err["error"]["message"], err
f.write('{"id":"s3","status":true}\n'); f.flush()
msg = json.loads(f.readline())
assert msg["id"] == "s3" and "status" in msg, msg

# SIGTERM with a request in flight: the daemon drains it — the full
# response still arrives — then exits cleanly.
f.write(json.dumps({"id": "c3", "spec": heavy}) + "\n")
f.flush()
time.sleep(0.4)  # let the daemon pick the request up first
os.kill(serve_pid, signal.SIGTERM)
done = None
while done is None:
    msg = json.loads(f.readline())
    assert msg["id"] == "c3", msg
    if "done" in msg:
        done = msg["done"]
assert done["jobs"] == 7, done
print("serve smoke ok: oracle match, cache reuse, typed errors, nesting bound, "
      "line-id bound, drain")
EOF
if [ "$SERVE_SMOKE" -ne 0 ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    echo "ci: serve smoke client failed" >&2
    exit 1
fi
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
[ "$SERVE_EXIT" -eq 0 ] || { echo "ci: serve daemon exited $SERVE_EXIT" >&2; exit 1; }
grep -q ' drained' "$OBS_TMP/serve_stderr.txt" || {
    echo "ci: serve summary line missing" >&2; exit 1
}
if grep -q ' 0 drained' "$OBS_TMP/serve_stderr.txt"; then
    echo "ci: SIGTERM landed with no work in flight (drained 0)" >&2
    exit 1
fi
[ ! -e "$OBS_TMP/serve.sock" ] || { echo "ci: socket file not cleaned up" >&2; exit 1; }

echo "== observability smoke: METRICS scrapes, HTTP exposition, SIGQUIT dump =="
# A second daemon with the full observability plane armed: the METRICS
# verb scraped twice (exposition must stay parseable and the request
# counter must increase between scrapes), the side-car Prometheus HTTP
# listener, the rolling STATUS series off the 100ms sampler, and the
# flight recorder — a queue-full rejection must surface as an
# `overloaded` event in the SIGQUIT dump, and SIGQUIT itself must leave
# the daemon running (clean protocol shutdown afterwards, exit 0).
cargo run --release --offline --bin spmv-locality -- \
    serve --unix "$OBS_TMP/obs_serve.sock" --executors 1 --queue 1 \
    --sample-ms 100 --prometheus 127.0.0.1:0 \
    --flight-file "$OBS_TMP/flight.txt" \
    2> "$OBS_TMP/obs_serve_stderr.txt" &
OBS_SERVE_PID=$!
OBS_SMOKE=0
python3 - "$OBS_TMP" "$OBS_SERVE_PID" <<'EOF' || OBS_SMOKE=$?
import json, os, re, signal, socket, sys, time, urllib.request

tmp, serve_pid = sys.argv[1], int(sys.argv[2])
sock_path = os.path.join(tmp, "obs_serve.sock")
for _ in range(400):
    if os.path.exists(sock_path):
        break
    time.sleep(0.025)
else:
    sys.exit("obs serve daemon never bound its socket")

spec = open(os.path.join(tmp, "serve.spec")).read()
heavy = open(os.path.join(tmp, "serve_heavy.spec")).read()

s = socket.socket(socket.AF_UNIX)
s.connect(sock_path)
f = s.makefile("rw")

def send(obj):
    f.write(json.dumps(obj) + "\n"); f.flush()

def predict(rid, text):
    send({"id": rid, "spec": text})
    done = None
    while done is None:
        msg = json.loads(f.readline())
        assert msg["id"] == rid, msg
        if "done" in msg:
            done = msg["done"]
    return done

SAMPLE = re.compile(r'^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9.eE+]+$')
def scrape(rid):
    send({"id": rid, "metrics": True})
    msg = json.loads(f.readline())
    assert msg["id"] == rid, msg
    values = {}
    for line in msg["metrics"].splitlines():
        if line.startswith("#"):
            assert line.startswith("# TYPE "), line
            continue
        assert SAMPLE.match(line), f"bad exposition line: {line!r}"
        name, value = line.rsplit(" ", 1)
        values[name] = float(value)
    assert values, "empty exposition"
    return values

predict("o1", spec)
m1 = scrape("m1")
assert m1["spmv_serve_completed"] == 1, m1
predict("o2", spec)
m2 = scrape("m2")
assert m2["spmv_serve_completed"] == 2, m2
assert m2["spmv_serve_requests"] > m1["spmv_serve_requests"], (m1, m2)

# The TRACE tree for the first (uncached) request has the full ladder.
send({"id": "t1", "trace": "o1"})
trace = json.loads(f.readline())["trace"]
phases = {p["name"]: p for p in trace["phases"]}
for name in ("queue-wait", "cache-lookup", "compute", "stream-out"):
    assert phases[name]["wall_ns"] > 0, (name, trace)

# The side-car Prometheus listener serves the same exposition over HTTP.
stderr_text = open(os.path.join(tmp, "obs_serve_stderr.txt")).read()
m = re.search(r"prometheus exposition on (http://\S+/metrics)", stderr_text)
assert m, stderr_text
body = urllib.request.urlopen(m.group(1), timeout=10).read().decode()
assert "# TYPE spmv_serve_completed counter" in body, body[:400]

# STATUS carries the rolling series (sampler is on a 100ms tick).
send({"id": "s1", "status": True})
status = json.loads(f.readline())["status"]
series = status["series"]
assert series["samples"] >= 2, series
assert set(series["windows"]) == {"10s", "1m", "5m"}, series

# Fill the one-slot queue: the heavy request occupies the executor, one
# more queues, and the next is rejected `overloaded` — that rejection
# must show up in the flight-recorder dump below.
send({"id": "h1", "spec": heavy})
time.sleep(0.4)  # let the executor pick the heavy request up
send({"id": "q1", "spec": spec})
send({"id": "r1", "spec": spec})
msg = None
while msg is None or msg["id"] != "r1":
    msg = json.loads(f.readline())
assert msg["error"]["code"] == "overloaded", msg

# SIGQUIT dumps the flight recorder without killing the daemon.
os.kill(serve_pid, signal.SIGQUIT)
flight = os.path.join(tmp, "flight.txt")
for _ in range(200):
    if os.path.exists(flight) and "flight-recorder end" in open(flight).read():
        break
    time.sleep(0.025)
else:
    sys.exit("SIGQUIT produced no flight-recorder dump")

# Clean shutdown via the protocol: in-flight work drains first.
send({"id": "bye", "shutdown": True})
for rid in ("h1", "q1"):
    done = None
    while done is None:
        msg = json.loads(f.readline())
        if msg["id"] == rid and "done" in msg:
            done = msg["done"]
print("observability smoke ok: metrics x2, trace, http scrape, series, dump")
EOF
if [ "$OBS_SMOKE" -ne 0 ]; then
    kill "$OBS_SERVE_PID" 2>/dev/null || true
    echo "ci: observability smoke client failed" >&2
    exit 1
fi
OBS_SERVE_EXIT=0
wait "$OBS_SERVE_PID" || OBS_SERVE_EXIT=$?
[ "$OBS_SERVE_EXIT" -eq 0 ] || {
    echo "ci: obs serve daemon exited $OBS_SERVE_EXIT" >&2; exit 1
}
grep -q '# flight-recorder dump' "$OBS_TMP/flight.txt" || {
    echo "ci: flight file is missing the dump header" >&2; exit 1
}
grep -q '"kind": "overloaded"' "$OBS_TMP/flight.txt" || {
    echo "ci: flight dump is missing the overloaded rejection" >&2; exit 1
}
grep -q '# flight-recorder dump' "$OBS_TMP/obs_serve_stderr.txt" || {
    echo "ci: SIGQUIT dump did not reach stderr" >&2; exit 1
}

echo "== format smoke: CSR vs SELL-C-sigma (exp_sell), byte for byte =="
# Small corpus through both storage formats: exercises the SELL trace
# derivation, the partitioned accounting on padded streams, and the
# CSR-vs-SELL comparison table end to end, and must reproduce the
# committed output exactly.
cargo run --release --offline -p spmv-bench --bin exp_sell -- \
    --count 4 --scale 64 > "$OBS_TMP/sell.txt"
cmp results/ci/sell.txt "$OBS_TMP/sell.txt" || {
    echo "ci: exp_sell drifted from results/ci/sell.txt" >&2; exit 1
}

echo "== simulator drivers: exp_swpf and exp_table1, byte for byte =="
# The two experiment drivers that replay through the partitioned
# simulator (software x-prefetch, and the nonzero-balanced RCM
# comparator of Table 1) must reproduce their committed outputs exactly.
cargo run --release --offline -p spmv-bench --bin exp_swpf -- \
    --count 2 --scale 64 --threads 8 > "$OBS_TMP/swpf.txt"
cmp results/ci/swpf.txt "$OBS_TMP/swpf.txt" || {
    echo "ci: exp_swpf drifted from results/ci/swpf.txt" >&2; exit 1
}
cargo run --release --offline -p spmv-bench --bin exp_table1 -- \
    --scale 64 --threads 8 > "$OBS_TMP/table1.txt"
cmp results/ci/table1.txt "$OBS_TMP/table1.txt" || {
    echo "ci: exp_table1 drifted from results/ci/table1.txt" >&2; exit 1
}

echo "== SpMM pin: k > 1 streaming profiles, byte for byte =="
# Nothing in the differential harness checks multi-RHS trace generation
# against an independent generator, so the streaming profiles of SpMM
# (k = 3 and 16, both RHS layouts, CSR and SELL-8-32, one narrow-row and
# one wide-row matrix) are pinned byte for byte in
# tests/golden/rhs_profiles.txt. On a drift the test writes its actual
# rendering to rhs_profiles.actual under target/ for a diff.
cargo test --release --offline -q --test rhs_golden

echo "== side-model pin: L1 model, way optimiser, L1-filtered model =="
# The side analyses share the main model's traces and, for the
# L1-filtered two-level model, its Eq. (2) marker pass; their outputs
# over four corpus members, threads 1/8/48 and the paper's whole sector
# sweep are pinned in tests/golden/side_models.txt, so a drift in one of
# them is named here. On a drift the test writes side_models.actual
# under target/ for a diff.
cargo test --release --offline -q --test side_golden

echo "== live-bytes pin: method (B) profile storage and peak =="
# A counting global allocator over one 48-thread method-(B) profile of
# the scale-64 delaunay_n24 analogue (its own test binary): the profile
# must retain exactly 12 B per run entry, and the live peak must stay
# within the runs plus one domain's stream buffer and its scan and stack
# tables.
cargo test --release --offline -q --test method_b_live_bytes

echo "== generator pin: every corpus generator's matrices, byte for byte =="
# The oracle files above cover only a few generated matrices, so one
# line per matrix (rows, cols, nnz and the structural fingerprint) is
# pinned in tests/golden/generator_fingerprints.txt for the Table-1 suite
# at scales 32 and 64, two evaluation-corpus seeds, the stratified
# validation corpus, small arrow matrices and three RCM reorderings. Any
# change to a generator's draws, row assembly or deduplication fails
# here; on a drift the test writes generator_fingerprints.actual under
# target/ for a diff.
cargo test --release --offline -q --test generator_golden

echo "== scenario smoke: SpMM k-sweep and CG batches =="
# The kernel-scenario axis end to end: --rhs 1 must be byte-identical to
# the plain run (shared cache keys, shared bytes), --rhs 4 must tag its
# jobs (@rhs4) and amplify the predicted misses, and `workload cg` must
# tag (@cg) and run the square corpus clean.
printf 'corpus count=2 scale=64 seed=11\nmethods A,B\nsettings off,5\nthreads 2\nscale 64\n' \
    > "$OBS_TMP/scenario.spec"
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/scenario.spec" > "$OBS_TMP/scn_plain.jsonl"
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/scenario.spec" --rhs 1 > "$OBS_TMP/scn_rhs1.jsonl"
cmp "$OBS_TMP/scn_plain.jsonl" "$OBS_TMP/scn_rhs1.jsonl" || {
    echo "ci: --rhs 1 batch is not byte-identical to plain SpMV" >&2
    exit 1
}
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/scenario.spec" --rhs 4 > "$OBS_TMP/scn_rhs4.jsonl"
grep -q '@rhs4' "$OBS_TMP/scn_rhs4.jsonl" || {
    echo "ci: --rhs 4 jobs are not @rhs4-tagged" >&2; exit 1
}
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/scenario.spec" --workload cg > "$OBS_TMP/scn_cg.jsonl"
grep -q '@cg' "$OBS_TMP/scn_cg.jsonl" || {
    echo "ci: CG jobs are not @cg-tagged" >&2; exit 1
}
python3 - "$OBS_TMP" <<'EOF'
import json, os, sys

tmp = sys.argv[1]
def misses(name):
    total = 0
    for line in open(os.path.join(tmp, name)):
        doc = json.loads(line)
        if "job" in doc:
            total += doc["l2_misses"]
    return total

plain, rhs4, cg = misses("scn_plain.jsonl"), misses("scn_rhs4.jsonl"), misses("scn_cg.jsonl")
assert rhs4 > plain, f"4-RHS misses did not amplify: {rhs4} vs {plain}"
assert cg >= plain, f"CG-iteration misses below its inner SpMV: {cg} vs {plain}"
print(f"scenario smoke ok: misses {plain} (spmv) -> {rhs4} (rhs 4), {cg} (cg)")
EOF

echo "== machine smoke: presets, ECM, and the frozen a64fx oracle =="
# The a64fx preset — implicit default and explicit --machine a64fx —
# must stay byte-identical to the frozen pre-refactor batch output
# (results/batch_pr2_oracle.jsonl, same spec as the telemetry smoke);
# generic-x86 must run the same spec end to end with machine-tagged
# jobs and ECM throughput estimates attached, and must clear the
# model-only validation pass (the default a64fx harness already ran
# above with the simulator armed).
cmp results/batch_pr2_oracle.jsonl "$OBS_TMP/report_plain.jsonl" || {
    echo "ci: default-machine batch drifted from the frozen oracle" >&2
    exit 1
}
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/jobs.spec" --machine a64fx > "$OBS_TMP/machine_a64fx.jsonl"
cmp results/batch_pr2_oracle.jsonl "$OBS_TMP/machine_a64fx.jsonl" || {
    echo "ci: --machine a64fx drifted from the frozen pre-refactor oracle" >&2
    exit 1
}
cargo run --release --offline --bin spmv-locality -- \
    batch "$OBS_TMP/jobs.spec" --machine generic-x86 --ecm \
    > "$OBS_TMP/machine_x86.jsonl"
grep -q '"machine":"generic-x86"' "$OBS_TMP/machine_x86.jsonl" || {
    echo "ci: generic-x86 jobs are not machine-tagged" >&2; exit 1
}
grep -q '"ecm":{"gflops":' "$OBS_TMP/machine_x86.jsonl" || {
    echo "ci: --ecm attached no throughput estimates" >&2; exit 1
}
cargo run --release --offline --bin spmv-locality -- \
    validate --matrices 4 --smoke --machine generic-x86

echo "== table1 oracle: the 18 Table-1 generators, byte for byte =="
# The batch oracle above covers two corpus matrices; this one covers every
# Table-1 analogue (banded, stencil, arrow and random generators).
# Same spec as the batch-table1 benchmark workload; perfbench/ is only
# read here. The default width, one worker (every profile inline) and
# three workers (a pool width that does not divide the 18 matrices) must
# all give the same bytes.
printf 'table1 scale=32\nmethods A,B\nsettings paper\nthreads 48\nscale 32\n' \
    > "$OBS_TMP/table1.spec"
for TABLE1_WORKERS in "" "--workers 1" "--workers 3"; do
    # Unquoted on purpose: the flag and its value are two words.
    cargo run --release --offline --bin spmv-locality -- \
        batch "$OBS_TMP/table1.spec" $TABLE1_WORKERS > "$OBS_TMP/table1.jsonl"
    cmp perfbench/expected/batch-table1.jsonl "$OBS_TMP/table1.jsonl" || {
        echo "ci: table1 batch (${TABLE1_WORKERS:-default workers}) drifted" \
            "from perfbench/expected/batch-table1.jsonl" >&2
        exit 1
    }
done

echo "ci: all gates passed"
