#!/usr/bin/env bash
# Full local gate: formatting, lints, release build, and the test suite.
# This is what CI runs; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --all-targets -- -D warnings

# Two gates said once. `gone <why> <ERE> <pathspec…> [exempt-ERE]`: a
# deleted name must not come back — `git grep -nE` finds nothing in the
# pathspecs, outside the lines the exemption matches (an exemption is
# anchored at the start of git grep's `path:line:` prefix, so a last
# argument that starts with `^` is one). `budget <limit> <files…>`: the
# files' non-test lines stay within the limit. A non-test line is any
# line outside a `#[cfg(test)]` item, brace-matched
# (`scripts/nontest_lines.awk`), so a test-only function above `mod
# tests` no longer ends the count early.
gone() {
    local why=$1 ere=$2 exempt='^$' last
    shift 2
    last=${!#}
    if [ "${last:0:1}" = '^' ]; then
        exempt=$last
        set -- "${@:1:$(($# - 1))}"
    fi
    if git grep -nE "$ere" -- "$@" | grep -vE "$exempt"; then
        echo "check.sh: $why (see above)" >&2
        exit 1
    fi
}
budget() {
    local limit=$1 lines
    shift
    lines=$(awk -f scripts/nontest_lines.awk "$@")
    if [ "$lines" -gt "$limit" ]; then
        echo "check.sh: $* have $lines non-test lines, budget $limit" >&2
        exit 1
    fi
}
# `nontest <awk program> <files…>`: the per-file scans below run their
# program on the files' non-test lines only, by the same brace-matched
# rule, so code below a test-only item is still scanned.
nontest() {
    local program=$1
    shift
    awk -v filter=1 -f scripts/nontest_lines.awk -f <(printf '%s\n' "$program") "$@"
}

# Deleted-code gate: gtw-mpi has one typed path (`PointToPoint::send`/
# `recv`/`try_send`/`try_recv` over `Payload`), so the per-type spellings,
# the codec free functions and the `*_hierarchical_*` collectives must not
# come back — outside the frozen benchmark crate and the four
# `#[doc(hidden)]` shims its adapter pins — and neither may the no-op
# serde derives or the criterion benches.
old_names='\b(try_)?(send|recv)_(f64s|f32s|u64s|i64s|u8s)\b|_hierarchical_|(en|de)code_(f64|f32|u64|i64)s'
shims='^crates/mpi/src/comm/p2p\.rs:[0-9]+: *pub fn (send|recv)_(f64s|f32s)\('
gone "a deleted gtw-mpi name is back" "$old_names" '*.rs' ':!crates/gtw-benchmark/' "$shims"
# Nor may the byte codec: an envelope holds the sender's typed buffer,
# so nothing names the `bytes` crate and gtw-mpi has no `encode`/`decode`
# function (the patterns are spellings of code, not the words, which
# prose and other crates' snapshot codecs use freely).
codec_why="the gtw-mpi payload codec and the bytes crate are deleted"
gone "$codec_why" '\bbytes::|^bytes *=' '*.rs' '*.toml'
gone "$codec_why" 'fn (en|de)code\b|\b[A-Za-z0-9_]+::(en|de)code\(' crates/mpi
# gtw-mpi keeps what its callers use: the revoke/shrink recovery layer,
# the heartbeat detector, the derived communicators (`dup`, `split`), the
# uncalled collectives and the probes stay deleted, and `comm.rs` stays
# split into `comm/{mod,p2p,collectives,spawn}.rs`. Two namesakes stay:
# `Placement::split` (a placement, pinned by the benchmark adapter) and
# `Universe::failed_ranks` (global ids, read by the fault tests).
mpi_gone='pub fn (revoke|is_revoked|shrink|heartbeat|detect_failures|failed_ranks|failed_remote_ranks|dup|split|alltoall|gather|scatter|reduce_f64s|probe|modeled_transfer_time)\b'
namesakes='^crates/mpi/src/(machine\.rs:[0-9]+: *pub fn split\(|universe\.rs:[0-9]+: *pub fn failed_ranks\()'
gone "a deleted gtw-mpi function is back" "$mpi_gone" crates/mpi/src "$namesakes"
if [ -e crates/mpi/src/comm.rs ]; then
    echo "check.sh: crates/mpi/src/comm.rs is back" >&2
    exit 1
fi
# The repository keeps what a paper number reaches: the four §5
# miniatures (traffic simulation, molecular dynamics, lithospheric
# fluids, TV production), multi-echo acquisition, the k-space
# reconstruction, the bio-feedback loop, the scanner's raw-data delay
# and the testbed's §5 extension sites stay deleted. `extend` is also a
# `Vec` method, so it is matched only as the testbed's `pub fn`.
ext_why="a deleted §4/§5 extension module or the testbed's extend() is back"
gone "$ext_why" '\b(traffic_sim|moldyn|lithosphere|tv_production|multiecho|biofeedback|kspace|raw_available_at_s|raw_delay_s)\b|struct Extensions\b' \
    '*.rs' '*.toml' ':!crates/gtw-benchmark/'
gone "$ext_why" 'fn extend\(' crates/core/src/testbed.rs
# And the two crates they sat in stay at most their size without them:
# non-test lines of crates/apps/src
# plus crates/scan/src, 2087 + 1345 = 3432 before.
budget 2225 crates/apps/src/*.rs crates/scan/src/*.rs
# Every library item earns a non-test caller, second pass: the slab/block
# decomposition and its distributed filter and RVO, the stereo-pair
# renderer, the co-allocation scheduler, the SDH section-test model,
# conjugate gradients, the adaptive RTO, the B-WiN fail-over and link
# state, the gateway pair's route notification and seven uncalled
# helpers stay deleted. `decomp` is matched only as the module
# ("eigendecomposition" is legal prose), the generic names only as the
# items they were.
gone "an item no paper number reached is back" \
    'gtw_fire::decomp|mod decomp\b|\b(distributed_median_filter|distributed_rvo|extract_slab|halo_voxels|block_grid|balanced_range|render_stereo|anaglyph|estimate_disparity|render_workbench_frame|CoAllocator|testbed_resources|fmri_session|SignalQuality|SectionTestReport|section_test|conjugate_gradient|adaptive_rto|rto_min|take_rtt_sample|rtt_probe|rtt_samples|add_bwin_fallback|set_wan_state|set_link_state|notify_route|sp2_node_atm155|normal_with|wan_bwin)\b|struct (Resource|Requirement|Job|Reservation)\b|fn (port_count|mib|machine_count|is_enabled)\b' \
    '*.rs' ':!crates/gtw-benchmark/'
# And the three crates they sat in stay within their size without them:
# non-test lines of crates/{fire,viz,core}/src, 5290 before, 4662 before
# Figure 2's quoted stage budgets were deleted, 4652 before X3's
# refinement and the sliding correlation were.
budget 4450 crates/fire/src/*.rs crates/viz/src/*.rs crates/core/src/*.rs
# Third pass, the items only tests called: the clip threshold of the
# cumulative map, the per-voxel-list detrend, the pipeline's RVO stage
# and the catalogue's peak and PE totals. And the RVO raster's scalar
# per-voxel centring and its fixed 4 × 4 tile, which the per-instance
# tile shape and the block gather replaced.
gone "an item only tests called is back" \
    '\b(thresholded|detrend_all|run_rvo|peak_gflops|total_pes|CentredVoxel|TILE_VOXELS|TILE_REFS)\b' \
    '*.rs' ':!crates/gtw-benchmark/'
# Figure 2's stage budget is stated once, by `gtw_core::scenario::
# FmriScenario`: the quoted copies, the RT session's stamped delays and
# the X2 `pipeline` bin built on them stay deleted (`'^'` matches any
# line of a file that is back), and no library, bin or example line
# outside crates/core/src (and the frozen benchmark) sets a transfer
# stage to the paper's 1.1 s. Tests keep theirs as test-local literals.
fig2_why="a second statement of Figure 2's stage budget is back"
gone "$fig2_why" '\b(ChainTiming::paper|RealtimeConfig::paper|paper_headline_delay|ScanDelay)\b' '*.rs'
gone "$fig2_why" '^' crates/bench/src/bin/pipeline.rs
if nontest '/transfers?_s *[:=] *1\.10*([^0-9]|$)/ {print FILENAME ":" FNR ": " $0}' \
    $(git ls-files 'crates/*.rs' 'examples/*.rs' ':!crates/core/src/' ':!crates/gtw-benchmark/' \
        ':(exclude,glob)crates/*/tests/**') | grep .; then
    echo "check.sh: $fig2_why (see above)" >&2
    exit 1
fi
# A message takes one lock per side: a communicator handle fetches its
# peers' mailboxes once (`Comm::new`, `Comm::intercomm`) and books its own
# `CommCost` in a `Cell`, and an envelope's buffer is an enum over the
# element types. So outside its tests gtw-mpi has no `dyn Any`, no
# `downcast`, no shared `costs:` table, and asks the universe for a
# mailbox nowhere else.
if nontest '
    FILENAME != file {file = FILENAME; fn = ""; imp = ""}
    /^impl/ {imp = $0}
    /^}/ {imp = ""}
    /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {fn = $0; sub(/.*fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn)}
    /dyn Any|downcast|(^|[^a-z_])costs:/ || (/\.mailbox\(/ && FILENAME !~ /universe\.rs$/ &&
        !(imp ~ /^impl Comm \{/ && (fn == "new" || fn == "intercomm"))) {print FILENAME ":" FNR ": " $0}' \
    $(git ls-files 'crates/mpi/src/*.rs') | grep .; then
    echo "check.sh: gtw-mpi looks a mailbox up per message, shares a cost table or boxes a payload (see above)" >&2
    exit 1
fi
# And the typed path stays smaller than the codec it replaced: non-test
# lines of the files it lives in,
# 1350 + 153 + 206 = 1709 before envelopes carried typed buffers, 1669
# before `irecv` and `Mailbox::try_claim` were deleted, 1622 before a
# handle cached its peers' mailboxes and an envelope's buffer was an
# enum, 1620 before the functions named above were deleted, and 1420
# before the topology broadcast and barrier were.
budget 1318 crates/mpi/src/comm/*.rs crates/mpi/src/envelope.rs crates/mpi/src/mailbox.rs
# The same for the run entries: a transfer runs through `run_with` and
# one `RunOptions`, a chain through `run_chain_with` and one
# `ChainOptions`, and the sharded kernel has one executor. The per-axis
# spellings, `add_faulted` and the executor switch must not come back;
# `TransferSet::{run, run_metrics}` and `run_chain_traced` survive only
# as the `#[doc(hidden)]` shims the frozen benchmark adapter pins.
old_runs='\b(run_with_report|run_traced|run_faulted|run_sharded(_faulted|_metrics)?|add_faulted|run_chain_(faulted|process_faulted|congested)|ExecMode|set_mode|run_threaded)\b'
gone "a deleted run entry or the executor switch is back" "$old_runs" '*.rs' ':!crates/gtw-benchmark/'
run_shims='^crates/(net/src/transfer\.rs:[0-9]+: *pub fn run_metrics\(|fire/src/realtime\.rs:[0-9]+: *pub fn run_chain_traced\()'
gone "only crates/gtw-benchmark may call the run shims" '\b(run_metrics|run_chain_traced)\b' '*.rs' ':!crates/gtw-benchmark/' "$run_shims"
# `TransferSet::run` shares its name with `BulkTransfer::run`, so it is
# matched by its argument: a shard count.
gone "TransferSet::run(shards) is a benchmark-only shim; use run_with" '\.run\(([0-9]+|shards)\)' '*.rs' ':!crates/gtw-benchmark/'
# One observer: the kernel's `Tracer`/`EventCounter`, `SpanSink` and
# `MetricsSink` are one `gtw_desim::Observer` attached with `observe` and
# fed through `Ctx`. The old names survive only as the two
# `#[doc(hidden)]` aliases the frozen benchmark adapter pins.
old_observers='\b(Tracer|EventCounter|set_tracer|take_tracer|has_tracer|with_spans)\b|\b(Span|Metrics)Sink\b'
observer_shims='^crates/desim/src/lib\.rs:[0-9]+:pub type (Span|Metrics)Sink = Observer;$'
gone "a deleted observer name is back" "$old_observers" '*.rs' ':!crates/gtw-benchmark/' "$observer_shims"
# And it replaced more than it added: non-test lines of the kernel files
# it lives in (`observer.rs` where `trace.rs` was), 1852 before.
budget 1739 crates/desim/src/{observer,span,metrics,shard,sim,component}.rs
# One signalling hop, one CAC: the replicated hop's copy of the SETUP
# walk, the three group constructors and the second realtime-session
# entry stay deleted.
gone "a deleted control-plane or rt-session name is back" '\bSetupCtx\b|fn try_build_with_spares|fn run_rt_session_resilient' '*.rs'
# And the split removed more than it added: non-test lines of the plain
# hop plus the replicated one, 608 + 2703 = 3311 when `replica.rs` was
# one file, 3050 before `ResilientRoute` and the CAC-gated stripe count
# were deleted. No file of the directory may pass 1000 lines, tests
# included.
budget 2842 crates/net/src/signaling.rs crates/net/src/replica/*.rs
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
if nontest '
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
gone "a deleted harness, flag or knob is back" '\b(kernel_bench|BENCH_trajectory|DegradeConfig)\b|--bin trajectory|--(deterministic|tolerance)\b' \
    '*.rs' '*.toml' ':!crates/gtw-benchmark/'
# And the bench crate stays smaller than the two harnesses left it:
# non-test lines of crates/bench/src, 2025 before, 1493 before
# `--stripes`, the gateway ablation table and `rvo_ablation` were
# deleted.
budget 1355 crates/bench/src/*.rs crates/bench/src/bin/*.rs
# One mechanism per job: each superseded second path stays deleted — the
# virtual-time heartbeat monitor beside the wall-clock detector, the
# replica-group report block no run registered, the gateway's epoch
# listeners that replicated epochs replaced, the kernel's event budget,
# `shard_cut` beside `wan_split`, `irecv`/`try_claim`, and the unreached
# signalling and striping helpers.
second_paths='HeartbeatMonitor|HeartbeatConfig|add_replica_group|ReplicationReport|ReplicaReport|GatewayEpochUpdate|notify_control|set_event_budget|BudgetExhausted|fn run_for|shard_cut|fn irecv|RecvRequest|try_claim|schedule_link_failures|with_adaptive_streams'
gone "a deleted second path is back" "$second_paths" '*.rs' ':!crates/gtw-benchmark/'
# And the net files they sat in stay at most their size without them:
# non-test lines of stats, gateway, topology and signaling (with stripe,
# since deleted), 2643 before, 2358 before the B-WiN fail-over and the
# gateway's route notification were deleted, 2317 before `ResilientRoute`
# and the CAC-gated stripe count were, 2122 before striping, the
# policer probe and the cut-through gateway mode were.
budget 1661 crates/net/src/{stats,gateway,topology,signaling}.rs
# Every library item earns a non-test caller, third pass over gtw-net and
# gtw-desim: the resilient route and its messages, the CAC-gated stripe
# count with its trial admission, the switch's wire-octet ingress, the
# seeded background-traffic module (its one user, `tests/overload.rs`,
# keeps what it draws as a private helper), the helpers only tests called
# and the unit operators nothing used stay deleted. Generic names are
# matched only as the definitions they were.
third_why="a gtw-net/gtw-desim item that only tests reached is back"
gone "$third_why" \
    '\b(ResilientRoute|LinkFailure|StartCall|RetryCall|adaptive_streams_with_cac|admissible_streams|fits_above|WireCellArrive|TrafficPlan|BgFlowSpec|ETHERNET_MTU|CELL_PAYLOAD_FRACTION|ATM_HEADER_BYTES)\b|gtw_desim::traffic|Bandwidth::HIPPI\b' \
    '*.rs' ':!crates/gtw-benchmark/'
gone "$third_why" \
    'mod traffic\b|fn (current_rto|chunks_of|mbytes_per_sec|raw_rate|header_overhead|segments_for|cells_for_payload|aal5_efficiency|pending_bytes|scheduled_total|link_up|outage_end|clip_default|call_in|line_rate)\b|impl (Div<f64> for Bandwidth|(Add|Sub|Mul<u64>) for DataSize|SubAssign for SimDuration|fmt::Display for SimTime)\b' \
    crates/net/src crates/desim/src
# And the two crates stay within their size without them: non-test lines
# of crates/{net,desim}/src, 12 165 before (7878 + 4287), 11 632 before
# `StreamRng` traded `next_u32` for `seek` and `normal` lent its
# Box–Muller transform to the scanner, 11 626 before the fourth caller
# audit (below).
budget 10816 crates/{net,desim}/src/*.rs crates/net/src/replica/*.rs
# Every library item earns a non-test caller, fourth pass: the
# extension and ablation rows no paper number reaches — WAN striping,
# UNI policing with selective and frame-level discard, the cut-through
# gateway knob, X3's coarse-plus-refine RVO and its bin, the sliding
# correlation, the topology broadcast and barrier — and the helpers that
# only they called stay deleted. (`sp2_microchannel_striped`, the SP2
# host model, is not matched: it stays.)
fourth_why="an extension or ablation row no paper number reaches is back"
gone "$fourth_why" \
    '\b(StripedTransfer|StripedReport|FlowDemux|adaptive_streams|stripe_sizes|stripe_offsets|MAX_STRIPES|add_demux|DemuxReport|UniPolicer|LeakyBucket|PolicingAction|add_policer|PolicerReport|clp_threshold|epd_threshold|with_epd|FrameState|mark_ppd|clp_discard|epd_discard|ppd_discard|frame_discards|ForwardingMode|CutThrough|CoarseRefine|paper_refined|refine_iters|SlidingCorrelation|(try_)?bcast_topo_f64s|(try_)?barrier_topo|required_window)\b|gtw_net::(stripe|policing)|pub fn (recovery_error|exponential)\b|fn refine\(' \
    '*.rs' ':!crates/gtw-benchmark/'
gone "$fourth_why" '^' crates/net/src/stripe.rs crates/net/src/policing.rs crates/bench/src/bin/rvo_ablation.rs
# A packet crosses a run of hops in one event: the stage and its wiring
# stay within 919 non-test lines (864 when every hop was a component of
# its own), and outside its tests crates/net/src builds a `PipeStage`
# only in `transfer::build_chain`, which makes at most two runs a
# direction, split at the WAN hop on either kernel.
budget 919 crates/net/src/{link,transfer}.rs
if nontest '
    FILENAME != file {file = FILENAME; fn = ""}
    /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {fn = $0; sub(/.*fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn)}
    /PipeStage::(new|run)\(/ && fn != "build_chain" {print FILENAME ":" FNR ": " $0}' \
    $(git ls-files 'crates/net/src/*.rs') | grep .; then
    echo "check.sh: crates/net/src builds a PipeStage outside transfer::build_chain (see above)" >&2
    exit 1
fi
# (The crates, not the words: "criterion" is also plain English in three
# physics comments, so sources are matched on the paths and derives.)
serde_why="serde/criterion are deleted; nothing may name them"
gone "$serde_why" 'serde|criterion' '*.toml'
gone "$serde_why" '\b(serde|criterion)(::|_)|derive\(.*\b(Serialize|Deserialize)\b' '*.rs'
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

# Overload gate: the congestion scenario-fuzz suite (CAC, gateway
# failover, FIRE degradation) under the pinned master seed
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
# The event queue sifts packed keys and leaves payloads in their runs:
# `std`'s `BinaryHeap` lives on only in its test-only reference model
# (`mod payload_heap`, up to `mod tests`), which the equivalence proptest
# in `cargo test -p gtw-desim queue::` holds the queue to.
timeout 300 cargo test -q -p gtw-desim queue::
queue_rs=crates/desim/src/queue.rs
if [ "$(awk '/^mod payload_heap \{/ { print attr; exit } !/^\/\/\// { attr = $0 }' "$queue_rs")" != '#[cfg(test)]' ]; then
    echo "check.sh: the queue's reference model is gone or not #[cfg(test)] in $queue_rs" >&2
    exit 1
fi
ref_from=$(grep -n '^mod payload_heap {' "$queue_rs" | cut -d: -f1)
ref_to=$(grep -n '^mod tests {' "$queue_rs" | cut -d: -f1)
if git grep -n 'BinaryHeap' -- crates/desim/src |
    awk -F: -v f="$queue_rs" -v from="$ref_from" -v to="$ref_to" '$1 != f || $2 < from || $2 >= to' |
    grep .; then
    echo "check.sh: BinaryHeap is back in crates/desim/src outside the queue's reference model (see above)" >&2
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
# each voxel walks — lives on only in tests, not in the non-test lines of
# `rvo.rs`.
timeout 300 cargo test -q -p gtw-fire --test rvo_pinned
timeout 300 cargo test -q -p gtw-fire --test proptests blocked_raster
# One chunk fit, compiled three times: the AVX2 and AVX-512F instances
# chosen at run time must agree with the baseline one bit for bit over
# random chunks, and the lane-parallel scorer with the point-by-point
# walk it replaced over random dot products.
timeout 300 cargo test -q -p gtw-fire --lib every_instance_fits_every_chunk_alike
timeout 300 cargo test -q -p gtw-fire --lib lane_parallel_scorer_matches_the_point_walk
rvo_rs=crates/fire/src/rvo.rs
if nontest '{print FILENAME ":" FNR ": " $0}' "$rvo_rs" |
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
# The probe positions are lanes of one `TransformLanes::apply`, held to
# the scalar matrix form; the tuple-per-point helpers it replaced stay
# deleted.
timeout 300 cargo test -q -p gtw-scan --lib lanes_map_as_the_scalar_expression_bit_for_bit
gone "a tuple-per-point probe helper is back" '\b(lanes_of|apply_rotated)\b' \
    '*.rs' ':!crates/gtw-benchmark/'
# The median network, compiled twice: the AVX-512F instance chosen at
# run time must filter random volumes (NaN payloads, ±0, ±∞, subnormals,
# any bits) exactly as the baseline one does.
timeout 300 cargo test -q -p gtw-fire --lib every_median_instance_filters_alike
# The setup-time generators: the phantom's three volumes at three shapes
# and all 64 scans of two seeds, pinned on the commit before the phantom
# skipped air and texture-free tissue and the scanner drew its noise
# slab-parallel (1/2/3 threads), and the skipping phantom held to the
# full evaluation over random shapes.
timeout 300 cargo test -q -p gtw-scan --test generators_pinned
timeout 300 cargo test -q -p gtw-scan --lib generators_match_the_full_evaluation
# One trilinear body: its last lerp appears in the non-test sources only
# in `volume.rs`, where `sample` is the one-lane case of `sample_lanes`.
if nontest '/fz \* \(c1 - c0\)/ && FILENAME != "crates/scan/src/volume.rs" {print FILENAME ":" FNR ": " $0}' \
    $(git ls-files 'crates/*/src/*.rs') | grep .; then
    echo "check.sh: a second trilinear body is back outside crates/scan/src/volume.rs (see above)" >&2
    exit 1
fi
# The wide instances and the sampler's truncation are the only `unsafe`
# in the non-test sources (the frozen benchmark crate aside): the three
# `unsafe fn` declarations of `#[target_feature]` functions (two RVO
# instances, one median instance); the two dispatches that call the
# instance `optimize` or `median_filter` picked; the median instance's
# 16-lane load and masked store; and the one unchecked float-to-int
# conversion in `Volume::sample_lanes`. Each block has a `// SAFETY:`
# comment directly above it.
unsafe_uses=$(nontest '
    FILENAME != file {file = FILENAME; safety = 0}
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ {
        kind = "other"
        if (FILENAME == "crates/fire/src/rvo.rs" && $0 ~ /^unsafe fn fit_chunk_avx2\(/) kind = "decl_avx2"
        if (FILENAME == "crates/fire/src/rvo.rs" && $0 ~ /^unsafe fn fit_chunk_avx512\(/) kind = "decl_avx512"
        if (FILENAME == "crates/fire/src/filters.rs" && $0 ~ /^unsafe fn median_row_avx512\(/) kind = "decl_median"
        if (safety && FILENAME == "crates/fire/src/rvo.rs" && $0 ~ /unsafe \{ fit\(/) kind = "dispatch"
        if (safety && FILENAME == "crates/fire/src/filters.rs") {
            if ($0 ~ /unsafe \{ median_row_avx512\(/) kind = "dispatch_median"
            if ($0 ~ /unsafe \{ _mm512_loadu_ps\(/) kind = "load_median"
            if ($0 ~ /unsafe \{ _mm512_mask_storeu_ps\(/) kind = "store_median"
        }
        if (safety && FILENAME == "crates/scan/src/volume.rs" && $0 ~ /unsafe \{ t\.to_int_unchecked::<i32>\(\) \}/) kind = "truncate"
        print kind " " FILENAME ":" FNR ": " $0
    }
    # Inside a comment block that holds a `// SAFETY:` line.
    {safety = ($0 ~ /^ *\/\/ SAFETY: /) || (safety && $0 ~ /^ *\/\/ /)}' \
    $(git ls-files 'crates/*/src/*.rs' ':!crates/gtw-benchmark/'))
if [ "$(printf '%s\n' "$unsafe_uses" | cut -d' ' -f1 | sort | tr '\n' ' ')" != \
    "decl_avx2 decl_avx512 decl_median dispatch dispatch_median load_median store_median truncate " ]; then
    printf '%s\n' "$unsafe_uses" >&2
    echo "check.sh: non-test sources must hold exactly the unsafe items named above, each block under a // SAFETY: comment (see above)" >&2
    exit 1
fi
# No FMA where the bits are argued from separate multiplies and adds
# (it would round differently from the baseline or the scalar body): the
# RVO instances, the median filter, the motion fit, the lane transforms
# and the trilinear sampler.
if nontest '/mul_add/ {print FILENAME ":" FNR ": " $0}' "$rvo_rs" crates/fire/src/{filters,motion}.rs \
    crates/scan/src/{motion,volume}.rs | grep .; then
    echo "check.sh: an FMA is named where the bits rest on separate multiplies and adds (see above)" >&2
    exit 1
fi
# Vector intrinsics appear only inside the median's AVX-512F instance:
# the RVO instances are one body the compiler vectorises.
if nontest '
    FILENAME == "crates/fire/src/filters.rs" && /^unsafe fn median_row_avx512\(/ {inside = 1}
    !inside && /(^|[^A-Za-z0-9])_mm[0-9]*_|arch::x86(_64)?::/ {print FILENAME ":" FNR ": " $0}
    inside && /^}/ {inside = 0}' $(git ls-files 'crates/*/src/*.rs' ':!crates/gtw-benchmark/') | grep .; then
    echo "check.sh: a vector intrinsic outside median_row_avx512 (see above)" >&2
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
if nontest '{print FILENAME ":" FNR ": " $0}' "$raycast_rs" |
    grep -F 'self.anatomy.sample('; then
    echo "check.sh: $raycast_rs fetches the anatomy one step at a time (see above)" >&2
    exit 1
fi
fig4_unmeasured() { cargo run --release -q -p gtw-bench --bin fig4_workbench -- --json | grep -v '"render_ms"'; }
same_twice fig4 fig4_unmeasured
grep -q '"frame_digest"' "$trace_tmp/fig4_a.json"
# Figure 3's document carries no measured line at all: two runs are
# byte-identical as they stand.
same_twice fig3 cargo run --release -q -p gtw-bench --bin fig3_overlay -- --json

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

# The flags are fields of one `RunOptions`, so they combine: a sweep
# under the degraded-WAN plan is shard-invariant too, and instrumenting
# a faulted sharded sweep adds the `meta` and `kernel_metrics` blocks
# and changes nothing else (trailing commas are dropped from both sides:
# a block removed from the end of an object leaves one behind).
fig1 --faults 1999 --shards 2 > "$trace_tmp/faulted_2shard.json"
cmp "$trace_tmp/faulted_a.json" "$trace_tmp/faulted_2shard.json"
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
