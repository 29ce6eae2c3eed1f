#!/usr/bin/env bash
# Full local gate: formatting, lints, release build, and the test suite.
# This is what CI runs; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --all-targets -- -D warnings

# Deleted-code gate: gtw-mpi has one typed path (`PointToPoint::send`/
# `recv`/`try_send`/`try_recv` over `Payload`), so the per-type spellings,
# the codec free functions and the `*_hierarchical_*` collectives must not
# come back — outside the frozen benchmark crate and the four
# `#[doc(hidden)]` shims its adapter pins — and neither may the no-op
# serde derives or the criterion benches.
old_names='\b(try_)?(send|recv)_(f64s|f32s|u64s|i64s|u8s)\b|_hierarchical_|(en|de)code_(f64|f32|u64|i64)s'
shims='^crates/mpi/src/comm/p2p\.rs:[0-9]+: *pub fn (send|recv)_(f64s|f32s)\('
if git grep -nE "$old_names" -- '*.rs' ':!crates/gtw-benchmark/' | grep -vE "$shims"; then
    echo "check.sh: a deleted gtw-mpi name is back (see above)" >&2
    exit 1
fi
# Nor may the byte codec: an envelope holds the sender's typed buffer,
# so nothing names the `bytes` crate and gtw-mpi has no `encode`/`decode`
# function (the patterns are spellings of code, not the words, which
# prose and other crates' snapshot codecs use freely).
if git grep -nE '\bbytes::|^bytes *=' -- '*.rs' '*.toml' ||
    git grep -nE 'fn (en|de)code\b|\b[A-Za-z0-9_]+::(en|de)code\(' -- crates/mpi; then
    echo "check.sh: the gtw-mpi payload codec and the bytes crate are deleted (see above)" >&2
    exit 1
fi
# gtw-mpi keeps what its callers use: the revoke/shrink recovery layer,
# the heartbeat detector, the derived communicators (`dup`, `split`), the
# uncalled collectives and the probes stay deleted, and `comm.rs` stays
# split into `comm/{mod,p2p,collectives,spawn}.rs`. Two namesakes stay:
# `Placement::split` (a placement, pinned by the benchmark adapter) and
# `Universe::failed_ranks` (global ids, read by the fault tests).
mpi_gone='pub fn (revoke|is_revoked|shrink|heartbeat|detect_failures|failed_ranks|failed_remote_ranks|dup|split|alltoall|gather|scatter|reduce_f64s|probe|modeled_transfer_time)\b'
namesakes='^crates/mpi/src/(machine\.rs:[0-9]+: *pub fn split\(|universe\.rs:[0-9]+: *pub fn failed_ranks\()'
if git grep -nE "$mpi_gone" -- crates/mpi/src | grep -vE "$namesakes" || [ -e crates/mpi/src/comm.rs ]; then
    echo "check.sh: a deleted gtw-mpi function or crates/mpi/src/comm.rs is back (see above)" >&2
    exit 1
fi
# A message takes one lock per side: a communicator handle fetches its
# peers' mailboxes once (`Comm::new`, `Comm::intercomm`) and books its own
# `CommCost` in a `Cell`, and an envelope's buffer is an enum over the
# element types. So outside its tests gtw-mpi has no `dyn Any`, no
# `downcast`, no shared `costs:` table, and asks the universe for a
# mailbox nowhere else.
if git ls-files 'crates/mpi/src/*.rs' | xargs awk '
    FNR == 1 {fn = ""; imp = ""; live = 1}
    /^#\[cfg\(test\)\]/ {live = 0}
    live && /^impl/ {imp = $0}
    live && /^}/ {imp = ""}
    live && /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {fn = $0; sub(/.*fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn)}
    live && (/dyn Any|downcast|(^|[^a-z_])costs:/ || (/\.mailbox\(/ && FILENAME !~ /universe\.rs$/ &&
        !(imp ~ /^impl Comm \{/ && (fn == "new" || fn == "intercomm")))) {print FILENAME ":" FNR ": " $0}' | grep .; then
    echo "check.sh: gtw-mpi looks a mailbox up per message, shares a cost table or boxes a payload (see above)" >&2
    exit 1
fi
# And the typed path stays smaller than the codec it replaced: non-test
# lines (up to the first `#[cfg(test)]`) of the files it lives in,
# 1350 + 153 + 206 = 1709 before envelopes carried typed buffers, 1669
# before `irecv` and `Mailbox::try_claim` were deleted, 1622 before a
# handle cached its peers' mailboxes and an envelope's buffer was an
# enum, and 1620 before the functions named above were deleted.
mpi_budget=1424
mpi_lines=0
for f in crates/mpi/src/comm/*.rs crates/mpi/src/envelope.rs crates/mpi/src/mailbox.rs; do
    mpi_lines=$((mpi_lines + $(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "$f")))
done
if [ "$mpi_lines" -gt "$mpi_budget" ]; then
    echo "check.sh: crates/mpi/src/{comm/*,envelope,mailbox}.rs have $mpi_lines non-test lines, budget $mpi_budget" >&2
    exit 1
fi
# The same for the run entries: a transfer runs through `run_with` and
# one `RunOptions`, a chain through `run_chain_with` and one
# `ChainOptions`, and the sharded kernel has one executor. The per-axis
# spellings, `add_faulted` and the executor switch must not come back;
# `TransferSet::{run, run_metrics}` and `run_chain_traced` survive only
# as the `#[doc(hidden)]` shims the frozen benchmark adapter pins.
old_runs='\b(run_with_report|run_traced|run_faulted|run_sharded(_faulted|_metrics)?|add_faulted|run_chain_(faulted|process_faulted|congested)|ExecMode|set_mode|run_threaded)\b'
if git grep -nE "$old_runs" -- '*.rs' ':!crates/gtw-benchmark/'; then
    echo "check.sh: a deleted run entry or the executor switch is back (see above)" >&2
    exit 1
fi
run_shims='^crates/(net/src/transfer\.rs:[0-9]+: *pub fn run_metrics\(|fire/src/realtime\.rs:[0-9]+: *pub fn run_chain_traced\()'
if git grep -nE '\b(run_metrics|run_chain_traced)\b' -- '*.rs' ':!crates/gtw-benchmark/' | grep -vE "$run_shims"; then
    echo "check.sh: only crates/gtw-benchmark may call the run shims (see above)" >&2
    exit 1
fi
# `TransferSet::run` shares its name with `BulkTransfer::run`, so it is
# matched by its argument: a shard count.
if git grep -nE '\.run\(([0-9]+|shards)\)' -- '*.rs' ':!crates/gtw-benchmark/'; then
    echo "check.sh: TransferSet::run(shards) is a benchmark-only shim; use run_with" >&2
    exit 1
fi
# One observer: the kernel's `Tracer`/`EventCounter`, `SpanSink` and
# `MetricsSink` are one `gtw_desim::Observer` attached with `observe` and
# fed through `Ctx`. The old names survive only as the two
# `#[doc(hidden)]` aliases the frozen benchmark adapter pins.
old_observers='\b(Tracer|EventCounter|set_tracer|take_tracer|has_tracer|with_spans)\b|\b(Span|Metrics)Sink\b'
observer_shims='^crates/desim/src/lib\.rs:[0-9]+:pub type (Span|Metrics)Sink = Observer;$'
if git grep -nE "$old_observers" -- '*.rs' ':!crates/gtw-benchmark/' | grep -vE "$observer_shims"; then
    echo "check.sh: a deleted observer name is back (see above)" >&2
    exit 1
fi
# And it replaced more than it added: non-test lines of the kernel files
# it lives in (`observer.rs` where `trace.rs` was), 1852 before.
desim_budget=1739
desim_lines=0
for f in observer span metrics shard sim component; do
    desim_lines=$((desim_lines + $(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "crates/desim/src/$f.rs")))
done
if [ "$desim_lines" -gt "$desim_budget" ]; then
    echo "check.sh: crates/desim/src/{observer,span,metrics,shard,sim,component}.rs have $desim_lines non-test lines, budget $desim_budget" >&2
    exit 1
fi
# One signalling hop, one CAC: the replicated hop's copy of the SETUP
# walk, the three group constructors and the second realtime-session
# entry stay deleted.
if git grep -nE '\bSetupCtx\b|fn try_build_with_spares|fn run_rt_session_resilient' -- '*.rs'; then
    echo "check.sh: a deleted control-plane or rt-session name is back (see above)" >&2
    exit 1
fi
# And the split removed more than it added: non-test lines of the plain
# hop plus the replicated one, 608 + 2703 = 3311 when `replica.rs` was
# one file. No file of the directory may pass 1000 lines, tests included.
control_budget=3050
control_lines=0
for f in crates/net/src/signaling.rs crates/net/src/replica/*.rs; do
    control_lines=$((control_lines + $(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "$f")))
done
if [ "$control_lines" -gt "$control_budget" ]; then
    echo "check.sh: crates/net/src/signaling.rs + replica/*.rs have $control_lines non-test lines, budget $control_budget" >&2
    exit 1
fi
for f in crates/net/src/replica/*.rs; do
    if [ "$(wc -l < "$f")" -gt 1000 ]; then
        echo "check.sh: $f is over 1000 lines" >&2
        exit 1
    fi
done
# A heartbeat does only what changed: outside its tests `raft.rs`
# encodes the applied state only to fill the snapshot cache (once per
# applied state) and in `digest()`, never once per snapshot shipped.
raft_rs=crates/net/src/replica/raft.rs
if awk '/^#\[cfg\(test\)\]/{exit}
    /state\.encode\(\)/ && !/snapshot\.get_or_insert_with\(/ && prev !~ /pub fn digest\(/ {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    {prev = $0}
    END {exit !bad}' "$raft_rs"; then
    echo "check.sh: $raft_rs encodes its state outside the snapshot cache and digest() (see above)" >&2
    exit 1
fi
# One checked table of the paper: the `trajectory` and `kernel_bench`
# harnesses, their flags and `BENCH_trajectory.json` are deleted, and so
# is the `DegradeConfig` knob set (three constants now). What they held
# is held by `paper_fidelity` and the pinned suites below.
if git grep -nE '\b(kernel_bench|BENCH_trajectory|DegradeConfig)\b|--bin trajectory|--(deterministic|tolerance)\b' \
    -- '*.rs' '*.toml' ':!crates/gtw-benchmark/'; then
    echo "check.sh: a deleted harness, flag or knob is back (see above)" >&2
    exit 1
fi
# And the bench crate stays smaller than the two harnesses left it:
# non-test lines of crates/bench/src, 2025 before.
bench_budget=1675
bench_lines=0
for f in crates/bench/src/*.rs crates/bench/src/bin/*.rs; do
    bench_lines=$((bench_lines + $(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "$f")))
done
if [ "$bench_lines" -gt "$bench_budget" ]; then
    echo "check.sh: crates/bench/src has $bench_lines non-test lines, budget $bench_budget" >&2
    exit 1
fi
# One mechanism per job: each superseded second path stays deleted — the
# virtual-time heartbeat monitor beside the wall-clock detector, the
# replica-group report block no run registered, the gateway's epoch
# listeners that replicated epochs replaced, the kernel's event budget,
# `shard_cut` beside `wan_split`, `irecv`/`try_claim`, and the unreached
# signalling and striping helpers.
gone='HeartbeatMonitor|HeartbeatConfig|add_replica_group|ReplicationReport|ReplicaReport|GatewayEpochUpdate|notify_control|set_event_budget|BudgetExhausted|fn run_for|shard_cut|fn irecv|RecvRequest|try_claim|schedule_link_failures|with_adaptive_streams'
if git grep -nE "$gone" -- '*.rs' ':!crates/gtw-benchmark/'; then
    echo "check.sh: a deleted second path is back (see above)" >&2
    exit 1
fi
# And the net files they sat in stay at most their size without them:
# non-test lines of stats, gateway, topology, signaling and stripe, 2643
# before.
net_budget=2359
net_lines=0
for f in stats gateway topology signaling stripe; do
    net_lines=$((net_lines + $(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "crates/net/src/$f.rs")))
done
if [ "$net_lines" -gt "$net_budget" ]; then
    echo "check.sh: crates/net/src/{stats,gateway,topology,signaling,stripe}.rs have $net_lines non-test lines, budget $net_budget" >&2
    exit 1
fi
# A packet crosses a run of hops in one event: the stage and its wiring
# stay within 920 non-test lines (864 when every hop was a component of
# its own), and outside its tests crates/net/src builds a `PipeStage`
# only in `transfer::build_chain`, which makes at most two runs a
# direction, split at the WAN hop on either kernel.
path_budget=920
path_lines=0
for f in link transfer; do
    path_lines=$((path_lines + $(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "crates/net/src/$f.rs")))
done
if [ "$path_lines" -gt "$path_budget" ]; then
    echo "check.sh: crates/net/src/{link,transfer}.rs have $path_lines non-test lines, budget $path_budget" >&2
    exit 1
fi
if git ls-files 'crates/net/src/*.rs' | xargs awk '
    FNR == 1 {fn = ""; live = 1}
    /^#\[cfg\(test\)\]/ {live = 0}
    live && /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {fn = $0; sub(/.*fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn)}
    live && /PipeStage::(new|run)\(/ && fn != "build_chain" {print FILENAME ":" FNR ": " $0}' | grep .; then
    echo "check.sh: crates/net/src builds a PipeStage outside transfer::build_chain (see above)" >&2
    exit 1
fi
# (The crates, not the words: "criterion" is also plain English in three
# physics comments, so sources are matched on the paths and derives.)
if git grep -nE 'serde|criterion' -- '*.toml' ||
    git grep -nE '\b(serde|criterion)(::|_)|derive\(.*\b(Serialize|Deserialize)\b' -- '*.rs'; then
    echo "check.sh: serde/criterion are deleted; nothing may name them" >&2
    exit 1
fi
cargo build --release
cargo test -q

# Trace-export smoke test: the figure bins must emit Chrome trace JSON
# that parses, keeps per-tid timestamps nondecreasing, and pairs every
# "B" with a matching "E" (trace_check validates all three).
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
# Determinism gate, said once: run a command twice and compare its
# stdout byte for byte. The first run stays in "$trace_tmp/<stem>_a.json"
# for the gates that read it again.
same_twice() {
    local stem=$1
    shift
    "$@" > "$trace_tmp/${stem}_a.json"
    "$@" > "$trace_tmp/${stem}_b.json"
    cmp "$trace_tmp/${stem}_a.json" "$trace_tmp/${stem}_b.json"
}
fig1() { cargo run --release -q -p gtw-bench --bin fig1_network -- --json "$@"; }
run_report() { cargo run --release -q -p gtw-core --example run_report -- "$@"; }
cargo run --release -q -p gtw-bench --bin fig2_latency -- --trace-out "$trace_tmp/fig2.json"
cargo run --release -q -p gtw-bench --bin trace_check -- "$trace_tmp/fig2.json"
cargo run --release -q -p gtw-bench --bin fig1_network -- --trace-out "$trace_tmp/fig1.json"
cargo run --release -q -p gtw-bench --bin trace_check -- "$trace_tmp/fig1.json"
# The sharded variant carries the same spans plus per-shard
# kernel-metric counter tracks ("C" events): both must be there.
cargo run --release -q -p gtw-bench --bin fig1_network -- --trace-out "$trace_tmp/fig1_sharded.json" --shards 2
cargo run --release -q -p gtw-bench --bin trace_check -- "$trace_tmp/fig1_sharded.json" | tee "$trace_tmp/fig1_sharded.txt"
grep -qE ' [1-9][0-9]* spans, [1-9][0-9]* counters,' "$trace_tmp/fig1_sharded.txt"

# Fault-injection gate: the scenario-fuzz suite under the pinned master
# seed (reproduce any failure locally with the same GTW_FAULT_SEED), then
# a determinism check — two degraded fig1 runs with one seed must emit
# byte-identical JSON.
GTW_FAULT_SEED=1999 cargo test -q -p gtw-core --test fault_recovery
same_twice faulted fig1 --faults 1999

# Rank-failure gate: the process-fault suites (typed failures in
# gtw-mpi; checkpoint-restart and respawn in gtw-fire, a scripted hang
# included, which ends only when the hung rank declares itself dead
# after 2 s) run under a hard timeout — a regression that deadlocks a
# dead-peer path must FAIL the gate, not hang it. Then the resilient-
# chain determinism check: two process-faulted run_report runs with one
# seed must emit byte-identical JSON.
timeout 300 cargo test -q -p gtw-mpi --test failures
timeout 300 cargo test -q -p gtw-fire checkpoint
timeout 300 cargo test -q -p gtw-fire realtime
timeout 300 cargo test -q -p gtw-fire rt::
same_twice pfaulted run_report --process-faults 1999

# Overload gate: the congestion scenario-fuzz suite (CAC, EPD vs tail
# drop, gateway failover, FIRE degradation) under the pinned master seed
# (reproduce any failure locally with the same GTW_OVERLOAD_SEED) and a
# hard timeout, then the congested-chain determinism check: two
# congestion-seeded run_report runs with one seed must emit
# byte-identical JSON.
GTW_OVERLOAD_SEED=1999 timeout 300 cargo test -q -p gtw-core --test overload
same_twice congested run_report --congestion 1999

# Sharded-kernel gate: the cross-kernel equivalence suite (random
# topologies, fault plans, and transfer sets must produce byte-identical
# reports on the sequential kernel and on 1/2/4 shards), then an
# independent byte-identity check: a sharded fig1 MTU sweep must match
# the sequential sweep exactly.
timeout 600 cargo test -q -p gtw-core --test kernel_equivalence
# The packet path computes departures instead of arming timers: the
# stage's reference-model suite and the pinned transfer digests run
# under a hard timeout, so a stage that stops departing (a transfer
# that never finishes) fails the gate instead of hanging it.
timeout 300 cargo test -q -p gtw-net link::
timeout 300 cargo test -q -p gtw-core --test transfer_pinned
# The same for the cell path: `AtmSwitch` computes a cell's departure on
# arrival, held to its two-event reference model and to digests pinned
# on the commit before. The timer and the function that armed it live
# on only in that reference (`mod two_event`, up to `mod tests`).
timeout 300 cargo test -q -p gtw-net switch::
timeout 300 cargo test -q -p gtw-core --test cell_path_pinned
switch_rs=crates/net/src/switch.rs
ref_from=$(grep -n '^mod two_event {' "$switch_rs" | cut -d: -f1)
ref_to=$(grep -n '^mod tests {' "$switch_rs" | cut -d: -f1)
if git grep -nE 'PortTxDone|fn start_tx' -- "$switch_rs" |
    awk -F: -v from="$ref_from" -v to="$ref_to" '$2 < from || $2 >= to' | grep .; then
    echo "check.sh: the per-cell transmit-done timer is back in $switch_rs (see above)" >&2
    exit 1
fi
fig1 > "$trace_tmp/kernel_seq.json"
fig1 --shards 2 > "$trace_tmp/kernel_2shard.json"
cmp "$trace_tmp/kernel_seq.json" "$trace_tmp/kernel_2shard.json"

# Paper gate: every number the paper prints, ours beside it, inside its
# stated tolerance, and `RESULTS.md` byte for byte what the `results` bin
# prints (it already runs in `cargo test` above; here it is named).
timeout 300 cargo test -q -p gtw-bench --test paper_fidelity

# Thread-width gate: `table1 --real` times the FIRE modules on gtw-par
# threads at every width up to the host's cores (plus one oversubscribed)
# and digests their outputs. The digest is the deterministic part: it
# must be one value at every width within a run (the bin also asserts
# this) and across two runs. Under a hard timeout, so a deadlocked
# executor fails the gate instead of hanging it.
real_digests() { timeout 300 cargo run --release -q -p gtw-bench --bin table1 -- --real --json | grep '"digest"'; }
same_twice real real_digests
# One value, and the one pinned before the RVO raster became a blocked
# product: a kernel change that moved bits alike at every width and in
# every run would pass the two checks above.
test "$(sort -u "$trace_tmp/real_a.json" | tr -d ' ,')" = '"digest":"04cb5b6e2fce2017"'
# RVO itself: digests pinned on the per-voxel raster (1/2/3/8 threads),
# and the blocked product held to that loop over random shapes, masks and
# non-finite voxels. The per-voxel raster — a list of reference vectors
# each voxel walks — lives on only in tests, not in `rvo.rs` above its
# `#[cfg(test)]`.
timeout 300 cargo test -q -p gtw-fire --test rvo_pinned
timeout 300 cargo test -q -p gtw-fire --test proptests blocked_raster
# One chunk fit, compiled twice: the baseline instance and an AVX2 one
# chosen at run time must agree bit for bit over random chunks.
timeout 300 cargo test -q -p gtw-fire --lib both_instances_fit_every_chunk_alike
rvo_rs=crates/fire/src/rvo.rs
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$rvo_rs" |
    grep -E 'Vec<\(f64, f64, ReferenceVector\)>|for \(d, w, rv\) in'; then
    echo "check.sh: the per-voxel raster is back in $rvo_rs (see above)" >&2
    exit 1
fi
# Motion correction: the per-scan fit (24 scans, two seeds) and
# `resample`, pinned on the commit before the trilinear sampler read a
# lane of points at a time (1/2/3/8 threads), and every lane of
# `Volume::sample_lanes` held to the scalar body it replaced over random
# dims, coordinates and voxels, non-finite ones included.
timeout 300 cargo test -q -p gtw-fire --test motion_pinned
timeout 300 cargo test -q -p gtw-scan --lib lanes_sample_as_the_reference_bit_for_bit
# One trilinear body: its last lerp appears in the non-test sources only
# in `volume.rs`, where `sample` is the one-lane case of `sample_lanes`.
if git ls-files 'crates/*/src/*.rs' | xargs awk '
    FNR == 1 {live = 1}
    /^#\[cfg\(test\)\]/ {live = 0}
    live && /fz \* \(c1 - c0\)/ && FILENAME != "crates/scan/src/volume.rs" {print FILENAME ":" FNR ": " $0}' |
    grep .; then
    echo "check.sh: a second trilinear body is back outside crates/scan/src/volume.rs (see above)" >&2
    exit 1
fi
# The AVX2 instance is the only `unsafe` in the non-test sources (the
# frozen benchmark crate aside): its `unsafe fn` declaration, which the
# 1.85 MSRV still requires of a `#[target_feature]` function, and the one
# dispatch that calls it, with a `// SAFETY:` line directly above.
unsafe_uses=$(git ls-files 'crates/*/src/*.rs' ':!crates/gtw-benchmark/' | xargs awk '
    FNR == 1 {live = 1; prev = ""}
    /^#\[cfg\(test\)\]/ {live = 0}
    live && /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ {
        kind = "other"
        if (FILENAME == "crates/fire/src/rvo.rs" && $0 ~ /^unsafe fn fit_chunk_avx2\(/) kind = "decl"
        if (FILENAME == "crates/fire/src/rvo.rs" && $0 ~ /unsafe \{ fit_chunk_avx2\(/ && prev ~ /^ *\/\/ SAFETY: /) kind = "dispatch"
        print kind " " FILENAME ":" FNR ": " $0
    }
    {prev = $0}')
if [ "$(printf '%s\n' "$unsafe_uses" | cut -d' ' -f1 | sort | tr '\n' ' ')" != "decl dispatch " ]; then
    printf '%s\n' "$unsafe_uses" >&2
    echo "check.sh: non-test sources must hold exactly one unsafe block, the RVO dispatch under a // SAFETY: line, beside its unsafe fn fit_chunk_avx2 (see above)" >&2
    exit 1
fi
# Both instances are one body, vectorised by the compiler: no FMA (it
# would round differently from the baseline instance) and no hand-written
# intrinsics in the non-test `rvo.rs`.
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$rvo_rs" |
    grep -E 'mul_add|(^|[^A-Za-z0-9])_mm[0-9]*_|arch::x86(_64)?::'; then
    echo "check.sh: $rvo_rs names an FMA or a vector intrinsic (see above)" >&2
    exit 1
fi
# And no build-wide CPU knob: the wide instance is chosen at run time, so
# neither a manifest nor a cargo config sets `target-cpu` or `rustflags`.
if git ls-files | grep -E '(^|/)(Cargo\.toml|\.cargo/[^/]+)$' | xargs grep -nE 'target-cpu|rustflags'; then
    echo "check.sh: a manifest or cargo config sets target-cpu or rustflags (see above)" >&2
    exit 1
fi

# Render gate: the ray-caster skips steps by an occupancy summary, and a
# skip that fails to advance would spin for ever, so its suites (per-step
# reference at 1/2/3/8 threads, frames pinned on the commit before the
# summary and on the commit before lane groups) run under a hard timeout.
# Then two fig4 runs must emit byte-identical JSON, frame digest
# included, once the one measured line (`render_ms`) is stripped.
timeout 300 cargo test -q -p gtw-viz
# One fetch path for the anatomy: from a step in an occupied brick a ray
# fetches eight steps per `Volume::sample_lanes` call, so the non-test
# `raycast.rs` never calls the scalar `sample` on it.
raycast_rs=crates/viz/src/raycast.rs
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$raycast_rs" |
    grep -F 'self.anatomy.sample('; then
    echo "check.sh: $raycast_rs fetches the anatomy one step at a time (see above)" >&2
    exit 1
fi
fig4_unmeasured() { cargo run --release -q -p gtw-bench --bin fig4_workbench -- --json | grep -v '"render_ms"'; }
same_twice fig4 fig4_unmeasured
grep -q '"frame_digest"' "$trace_tmp/fig4_a.json"

# Collectives gate: the gtw-mpi suites (each collective's books and trace
# pinned by `accounting_pinned`) and the flat-vs-topology
# equivalence suite (bit-identical reductions incl. NaN/-0.0 payloads,
# try_* trajectory matching under seeded crash plans, WAN crossings
# O(sites) not O(ranks), blocking and try_ forms of each topo collective
# equal in bits, cost and trace) under a hard timeout — each collective
# has one body for both forms, and one that stops advancing must fail
# the gate, not hang it.
timeout 300 cargo test -q -p gtw-mpi
timeout 300 cargo test -q -p gtw-core --test collectives

# Striping gate: two striped fig1 MTU sweeps (4 parallel TCP streams per
# transfer) must emit byte-identical JSON — the stripe split, per-flow
# demux attribution, and merge order are all deterministic — and the
# striped sweep must also be shard-invariant.
same_twice striped fig1 --stripes 4
fig1 --stripes 4 --shards 2 > "$trace_tmp/striped_2shard.json"
cmp "$trace_tmp/striped_a.json" "$trace_tmp/striped_2shard.json"
# The flags are fields of one `RunOptions`, so they combine: a striped
# sweep under the degraded-WAN plan is shard-invariant too, and
# instrumenting a faulted sharded sweep adds the `meta` and
# `kernel_metrics` blocks and changes nothing else (trailing commas are
# dropped from both sides: a block removed from the end of an object
# leaves one behind).
fig1 --faults 1999 --stripes 4 > "$trace_tmp/striped_faulted.json"
fig1 --faults 1999 --stripes 4 --shards 2 > "$trace_tmp/striped_faulted_2shard.json"
cmp "$trace_tmp/striped_faulted.json" "$trace_tmp/striped_faulted_2shard.json"
fig1 --faults 1999 --shards 2 > "$trace_tmp/faulted_2shard.json"
fig1 --faults 1999 --shards 2 --kernel-metrics > "$trace_tmp/faulted_2shard_metrics.json"
grep -q '"kernel_metrics"' "$trace_tmp/faulted_2shard_metrics.json"
uninstrumented() {
    sed -e '/^  "meta": {$/,/^  },\{0,1\}$/d' -e '/^ *"kernel_metrics": \[$/,/^ *\],\{0,1\}$/d' -e 's/,$//' "$1"
}
cmp <(uninstrumented "$trace_tmp/faulted_2shard.json") <(uninstrumented "$trace_tmp/faulted_2shard_metrics.json")

# Control-plane gate: the replicated-signalling availability suite
# (leader crash, minority partitions, blip storms, replica-divergence
# proptest) under the pinned master seed and a hard timeout, then the
# partitioned-control-plane determinism check: two control-faulted
# run_report runs with one seed must emit byte-identical JSON, and a
# clean run must not grow the signaling_replication key.
GTW_CONTROL_SEED=1999 timeout 300 cargo test -q -p gtw-core --test control_plane
# Run against run is not enough: the two canned reports at eight seeds
# and a plain-agent call fuzz are pinned to digests captured before
# `replica.rs` was split and the plain hop began admitting through
# `CacState`; the replica core over 32 fault schedules, and the idle
# group's timer and event bounds, to the commit before a replica kept
# one election timer in flight.
timeout 300 cargo test -q -p gtw-core --test control_pinned
same_twice cfaulted run_report --control-faults 1999
run_report > "$trace_tmp/clean.json"
! grep -q signaling_replication "$trace_tmp/clean.json"

# Multi-domain gate: the cross-domain hand-off suite (two-phase
# reserve/confirm under leader crash and quorum loss, live membership
# change, log-committed gateway epochs, snapshot-codec corruption
# proptest) under the pinned master seed and a hard timeout. The
# determinism cmp above already covers the multi_domain report block
# (it rides --control-faults); the clean run must not grow it either.
GTW_CONTROL_SEED=1999 timeout 300 cargo test -q -p gtw-core --test multi_domain
! grep -q multi_domain "$trace_tmp/clean.json"
