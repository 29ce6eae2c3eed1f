//! Scenario-fuzz suite for the fault-injection subsystem: random seeded
//! [`FaultPlan`]s are thrown at full TCP transfers and every run must
//! uphold the recovery invariants:
//!
//! 1. **Exactly-once delivery** — every application byte reaches the
//!    receiver's in-order stream exactly once, loss or no loss.
//! 2. **Conservation** — each hop's per-cause drop counters equal the
//!    injector's own verdict counts; nothing is dropped without a cause
//!    and no cause is recorded without a drop.
//! 3. **Goodput floor** — 1% i.i.d. loss degrades, but never collapses,
//!    throughput: the paper-model floor below must hold.
//! 4. **Reproducibility** — the same master seed yields byte-identical
//!    JSON run reports; different seeds yield different runs.
//!
//! The master seed is fixed for CI and overridable for local
//! exploration:
//!
//! ```text
//! GTW_FAULT_SEED=12345 cargo test --test fault_recovery
//! ```

use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::fault::{FaultPlan, FaultSpec, LossModel, Schedule, Window};
use gtw_desim::rng::StreamRng;
use gtw_desim::{SimDuration, SimTime};
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::stats::RunReport;
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{degraded_plan, BulkTransfer, Protocol, RunOptions, TransferSet};
use gtw_net::units::Bandwidth;

/// Fuzz cases per scenario (each case is a full event-driven transfer).
const CASES: u64 = 6;

fn master_seed() -> u64 {
    std::env::var("GTW_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x6774_7731)
    // "gtw1"
}

fn under(plan: &FaultPlan) -> RunOptions<'_> {
    RunOptions { faults: Some(plan), ..RunOptions::default() }
}

fn two_hop_transfer() -> BulkTransfer {
    let hop = |prop_us: u64| HopModel {
        medium: Medium::Raw { rate: Bandwidth::from_mbps(155.0) },
        per_packet: SimDuration::ZERO,
        propagation: SimDuration::from_micros(prop_us),
    };
    BulkTransfer {
        hops: vec![hop(250), hop(250)],
        ip: IpConfig { mtu: 9180 },
        bytes: 4 * 1024 * 1024,
        protocol: Protocol::Tcp { window_bytes: 1024 * 1024 },
    }
}

/// Draw a random fault plan for fuzz case `case`: one or two targets out
/// of the four stage labels, each with 0–2 outage windows inside the
/// first 400 ms and an i.i.d. or bursty loss model. All randomness comes
/// from a [`StreamRng`] keyed by the master seed, so the whole suite is
/// reproducible from one number.
fn random_plan(master: u64, case: u64) -> FaultPlan {
    let mut rng = StreamRng::new(master, &format!("fuzz-plan/{case}"));
    let mut plan = FaultPlan::new(master.wrapping_mul(0x9e37_79b9).wrapping_add(case));
    let targets = ["hop0", "hop1", "rev0", "rev1"];
    let n_specs = 1 + rng.below(2);
    for _ in 0..n_specs {
        let target = targets[rng.below(targets.len() as u64) as usize];
        let mut windows = Vec::new();
        for _ in 0..rng.below(3) {
            let start = rng.below(400_000_000);
            let len = 10_000_000 + rng.below(50_000_000);
            windows.push(Window::new(SimTime::from_nanos(start), SimTime::from_nanos(start + len)));
        }
        let loss = match rng.below(3) {
            0 => LossModel::None,
            1 => LossModel::Iid { p: rng.uniform_in(0.002, 0.012) },
            _ => LossModel::GilbertElliott {
                p_good_to_bad: rng.uniform_in(0.01, 0.05),
                p_bad_to_good: rng.uniform_in(0.2, 0.5),
                loss_good: 0.0,
                loss_bad: rng.uniform_in(0.5, 1.0),
            },
        };
        plan.add(target, FaultSpec { outages: Schedule::new(windows), loss, ..Default::default() });
    }
    plan
}

/// Invariants 1 and 2 on one completed run.
fn assert_recovery_invariants(xfer: &BulkTransfer, run: &RunReport, plan: &FaultPlan) {
    assert_eq!(
        run.receivers[0].bytes_delivered, xfer.bytes,
        "exactly-once delivery violated under {plan:?}"
    );
    assert_eq!(run.senders[0].bytes_acked, xfer.bytes);
    let mut attributed = 0u64;
    for h in &run.hops {
        match h.faults {
            Some(f) => {
                assert_eq!(h.stats.dropped_outage, f.outage, "{} outage conservation", h.label);
                assert_eq!(
                    h.stats.dropped_loss,
                    f.loss + f.header_error,
                    "{} loss conservation",
                    h.label
                );
                assert_eq!(h.stats.dropped_burst, f.burst, "{} burst conservation", h.label);
                attributed += f.total();
            }
            None => {
                assert_eq!(
                    h.stats.dropped_outage + h.stats.dropped_loss + h.stats.dropped_burst,
                    0,
                    "{} recorded fault drops without an injector",
                    h.label
                );
            }
        }
    }
    assert_eq!(run.faults_injected(), attributed, "report-level total equals per-hop sum");
}

#[test]
fn fuzzed_plans_uphold_recovery_invariants() {
    let master = master_seed();
    let xfer = two_hop_transfer();
    for case in 0..CASES {
        let plan = random_plan(master, case);
        let (_, run) = xfer.run_with(&under(&plan));
        assert_recovery_invariants(&xfer, &run, &plan);
    }
}

#[test]
fn identical_seeds_reproduce_byte_identical_reports() {
    let master = master_seed();
    let xfer = two_hop_transfer();
    for case in 0..CASES.min(3) {
        let plan = random_plan(master, case);
        let (_, a) = xfer.run_with(&under(&plan));
        let (_, b) = xfer.run_with(&under(&plan));
        assert_eq!(
            a.to_json().dump(),
            b.to_json().dump(),
            "case {case}: same plan, different report"
        );
    }
    // And a perturbed master seed actually changes the run (the plans
    // draw from different streams).
    let (_, a) = xfer.run_with(&under(&random_plan(master, 0)));
    let (_, b) = xfer.run_with(&under(&random_plan(master ^ 1, 0)));
    assert_ne!(a.to_json().dump(), b.to_json().dump());
}

#[test]
fn one_percent_loss_keeps_goodput_above_model_floor() {
    // Invariant 3: with 1% i.i.d. loss on the forward WAN hop, recovery
    // must keep goodput above the paper-model floor: the clean analytic
    // bound degraded by the worst-case timeout stall per expected loss.
    // Go-back-N charges up to one 200 ms RTO per loss; a factor of five
    // covers exponential backoff stacking on clustered losses and the
    // slow-start climb after each collapse (a 200-seed sweep bottoms out
    // ~40% above this floor). Any regression that stalls recovery
    // outright (a lost retransmission never re-sent, a dead watchdog)
    // lands orders of magnitude below it.
    let master = master_seed();
    let xfer = two_hop_transfer();
    let segments = (xfer.bytes as f64 / xfer.ip.mss() as f64).ceil();
    let expected_losses = 0.01 * segments;
    let ideal_s = xfer.bytes as f64 * 8.0 / (xfer.predict().mbps() * 1e6);
    let stall_budget_s = expected_losses * 5.0 * 0.2;
    let floor = xfer.bytes as f64 * 8.0 / (ideal_s + stall_budget_s) / 1e6;
    for case in 0..CASES.min(3) {
        let mut plan = FaultPlan::new(master.wrapping_add(case));
        plan.add("hop0", FaultSpec { loss: LossModel::Iid { p: 0.01 }, ..Default::default() });
        let (report, run) = xfer.run_with(&under(&plan));
        let hop0 = run.hops.iter().find(|h| h.label == "hop0").unwrap();
        assert!(hop0.faults.map_or(0, |f| f.total()) > 0, "case {case}: loss never fired");
        assert!(
            report.goodput.mbps() >= floor,
            "case {case}: goodput {:.1} Mbit/s below floor {floor:.1}",
            report.goodput.mbps()
        );
        assert_recovery_invariants(&xfer, &run, &plan);
    }
}

#[test]
fn acceptance_degraded_fzj_gmd_path() {
    // The PR's acceptance scenario: the testbed's T3E -> SP2 transfer
    // (FZJ–GMD path) under the canonical degraded-WAN plan — at least 1%
    // cell loss plus one 50 ms outage on the WAN hop. The transfer must
    // complete with every byte delivered exactly once, every drop
    // attributed to an injected cause, and the whole JSON report
    // reproducible from the master seed.
    let master = master_seed();
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let (path, mtu, _) = tb.topology.path(tb.t3e_600, tb.sp2).expect("path T3E -> SP2");
    let xfer = BulkTransfer {
        hops: tb.topology.path_hops(&path, mtu),
        ip: IpConfig { mtu },
        bytes: 32 * 1024 * 1024,
        protocol: Protocol::Tcp { window_bytes: 4 * 1024 * 1024 },
    };
    let wan = format!("hop{}", xfer.hops.len() / 2);
    let plan = degraded_plan(master, &wan);
    let (report, run) = xfer.run_with(&under(&plan));
    assert_recovery_invariants(&xfer, &run, &plan);
    let h = run.hops.iter().find(|h| h.label == wan).expect("WAN hop reported");
    let f = h.faults.expect("degraded hop carries fault stats");
    assert!(f.outage > 0, "the 50 ms outage must drop in-flight segments: {f:?}");
    // (No `f.loss > 0` assertion: on this large-MTU path the transfer is
    // only ~500 segments, so a seed where 1% i.i.d. loss never fires is
    // rare but legitimate; the outage makes the scenario deterministic.)
    assert!(report.retransmits > 0);
    // Reproducibility of the acceptance run itself.
    let (_, again) = xfer.run_with(&under(&plan));
    assert_eq!(run.to_json().dump(), again.to_json().dump());
}

#[test]
fn clean_plan_leaves_reports_untouched() {
    // A plan with no specs must be indistinguishable — byte for byte —
    // from never installing fault injection at all.
    let xfer = two_hop_transfer();
    let (_, clean) = xfer.run_with(&RunOptions::default());
    let (_, empty) = xfer.run_with(&under(&FaultPlan::new(master_seed())));
    assert_eq!(clean.to_json().dump(), empty.to_json().dump());
    let dump = clean.to_json().dump();
    assert!(!dump.contains("faults"), "clean reports must not mention faults: {dump}");
}

/// An outage on `label` that opens at 10 ms and never closes.
fn endless_outage(label: &str) -> FaultPlan {
    let mut plan = FaultPlan::new(master_seed());
    plan.add(
        label,
        FaultSpec {
            outages: Schedule::new(vec![Window::new(
                SimTime::ZERO + SimDuration::from_millis(10),
                SimTime::MAX,
            )]),
            ..FaultSpec::default()
        },
    );
    plan
}

#[test]
fn a_horizon_bounds_a_transfer_whose_outage_never_ends() {
    // The sender retransmits for ever at its capped RTO, so without the
    // horizon this run would not return; with it the transfer reports
    // that it did not complete instead of panicking.
    let xfer = two_hop_transfer();
    let plan = endless_outage("hop1");
    let horizon = SimTime::ZERO + SimDuration::from_secs(2);
    let opts = RunOptions { horizon: Some(horizon), ..under(&plan) };
    let (report, run) = xfer.run_with(&opts);
    assert!(!report.completed, "{report:?}");
    assert!(report.bytes < xfer.bytes, "{report:?}");
    assert_eq!(report.bytes, run.senders[0].bytes_acked);
    assert!(run.receivers[0].bytes_delivered < xfer.bytes);
    assert_eq!(report.elapsed, run.elapsed);
    assert!(run.elapsed <= horizon.saturating_since(SimTime::ZERO), "{:?}", run.elapsed);
    let (again, again_run) = xfer.run_with(&opts);
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
    assert_eq!(run.to_json().dump(), again_run.to_json().dump());
}

#[test]
fn a_horizon_cuts_only_the_stalled_flow_of_a_set() {
    let mut set = TransferSet::new();
    set.add(two_hop_transfer());
    set.add(two_hop_transfer());
    let plan = endless_outage("t1.hop1");
    let horizon = SimTime::ZERO + SimDuration::from_secs(2);
    let opts = RunOptions { horizon: Some(horizon), ..under(&plan) };
    let (reports, run) = set.run_with(&opts);
    let clean = two_hop_transfer().run();
    assert!(reports[0].completed, "{:?}", reports[0]);
    assert_eq!((reports[0].bytes, reports[0].elapsed), (clean.bytes, clean.elapsed));
    assert!(!reports[1].completed, "{:?}", reports[1]);
    assert!(reports[1].bytes < two_hop_transfer().bytes, "{:?}", reports[1]);
    assert_eq!(reports[1].elapsed, run.elapsed);
    let (again, again_run) = set.run_with(&opts);
    assert_eq!(format!("{reports:?}"), format!("{again:?}"));
    assert_eq!(run.to_json().dump(), again_run.to_json().dump());
}
