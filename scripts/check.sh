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
shims='^crates/mpi/src/comm\.rs:[0-9]+: *pub fn (send|recv)_(f64s|f32s)\('
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
# And the typed path stays smaller than the codec it replaced: non-test
# lines (up to the first `#[cfg(test)]`) of the three files it lives in,
# 1350 + 153 + 206 = 1709 before envelopes carried typed buffers.
mpi_budget=1669
mpi_lines=0
for f in comm envelope mailbox; do
    mpi_lines=$((mpi_lines + $(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "crates/mpi/src/$f.rs")))
done
if [ "$mpi_lines" -gt "$mpi_budget" ]; then
    echo "check.sh: crates/mpi/src/{comm,envelope,mailbox}.rs have $mpi_lines non-test lines, budget $mpi_budget" >&2
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

# Rank-failure gate: the process-fault suites (failure semantics in
# gtw-mpi, checkpoint-restart in gtw-fire) run under a hard timeout —
# a regression that deadlocks a dead-peer path must FAIL the gate, not
# hang it. Then the resilient-chain determinism check: two process-
# faulted run_report runs with one seed must emit byte-identical JSON.
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
# reports on the sequential kernel and on 1/2/4 shards), then two
# independent byte-identity checks: a sharded fig1 MTU sweep must match
# the sequential sweep exactly, and two kernel_bench digest runs must
# agree with each other.
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
same_twice kbench cargo run --release -q -p gtw-bench --bin kernel_bench -- --check

# Trajectory gate: the benchmark-trajectory harness's deterministic
# fields (virtual-time latency percentiles, event counts, model outputs)
# must be stable across two runs, and must match the committed
# BENCH_trajectory.json baseline within tolerance.
same_twice traj cargo run --release -q -p gtw-bench --bin trajectory -- --deterministic
cargo run --release -q -p gtw-bench --bin trajectory -- --check

# Thread-width gate: `table1 --real` times the FIRE modules on gtw-par
# threads at every width up to the host's cores (plus one oversubscribed)
# and digests their outputs. The digest is the deterministic part: it
# must be one value at every width within a run (the bin also asserts
# this) and across two runs. Under a hard timeout, so a deadlocked
# executor fails the gate instead of hanging it.
real_digests() { timeout 300 cargo run --release -q -p gtw-bench --bin table1 -- --real --json | grep '"digest"'; }
same_twice real real_digests
test "$(sort -u "$trace_tmp/real_a.json" | wc -l)" -eq 1

# Render gate: the ray-caster skips steps by an occupancy summary, and a
# skip that fails to advance would spin for ever, so its suites (per-step
# reference at 1/2/3/8 threads, frames pinned on the commit before the
# summary) run under a hard timeout. Then two fig4 runs must emit
# byte-identical JSON, frame digest included, once the one measured line
# (`render_ms`) is stripped.
timeout 300 cargo test -q -p gtw-viz
fig4_unmeasured() { cargo run --release -q -p gtw-bench --bin fig4_workbench -- --json | grep -v '"render_ms"'; }
same_twice fig4 fig4_unmeasured
grep -q '"frame_digest"' "$trace_tmp/fig4_a.json"

# Collectives gate: the gtw-mpi suites and the flat-vs-topology
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
# `CacState`.
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
