//! Scenario-fuzz suite for the overload-robustness layer: seeded
//! background-traffic plans, congestion windows and failure instants are
//! thrown at the admission, discard, failover and degradation paths, and
//! every run must uphold the overload invariants:
//!
//! 1. **Reservations hold** — a CAC-admitted, policed-conforming flow
//!    keeps its contracted goodput under arbitrary seeded background
//!    load; the excess (CLP-tagged) traffic absorbs the loss. The
//!    background's arrival instants and the run's report are pinned to
//!    digests captured while the generator was a `gtw-desim` module.
//! 2. **EPD beats tail drop** — under sustained frame overload, early
//!    packet discard keeps complete-frame goodput above a model-derived
//!    floor where plain tail drop mutilates frames and collapses.
//! 3. **Failover is exactly-once** — a silent gateway failure loses at
//!    most the one datagram mid-copy; everything else is delivered
//!    exactly once.
//! 4. **Deadlines are never traded** — the FIRE chain sheds resolution
//!    under congestion but every displayed image stays inside the
//!    paper's realtime budget.
//! 5. **Admission arithmetic is safe** — no agent ever commits more
//!    sustained bandwidth than its link, nor more peak than its
//!    overbooking factor allows, and every rejection rolls back cleanly.
//! 6. **Reproducibility** — one seed, one byte-identical report.
//!
//! The master seed is fixed for CI and overridable for local
//! exploration:
//!
//! ```text
//! GTW_OVERLOAD_SEED=12345 cargo test --test overload
//! ```

use gtw_desim::component::msg;
use gtw_desim::fault::{Schedule, Window};
use gtw_desim::rng::StreamRng;
use gtw_desim::{SimDuration, SimTime, Simulator};
use gtw_fire::realtime::{
    run_chain, run_chain_with, ChainMode, ChainOptions, Congestion, RealtimeConfig,
    DEGRADE_DEADLINE_S,
};
use gtw_net::aal5::segment;
use gtw_net::gateway::{Gateway, GatewayDown, GatewayPair, GatewaySink, GwPacket, StartProbes};
use gtw_net::policing::{LeakyBucket, PolicingAction, UniPolicer};
use gtw_net::signaling::{
    place_call_with, CallId, CallOriginator, CallOutcome, SignallingAgent, TrafficDescriptor,
};
use gtw_net::stats::StatsRegistry;
use gtw_net::switch::{AtmSwitch, CellArrive, CellEndpoint, OutputPort, VcKey, VcRoute};
use gtw_net::units::Bandwidth;

/// Master seed: pinned for CI, overridable for local fuzzing.
fn master_seed() -> u64 {
    std::env::var("GTW_OVERLOAD_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1999)
}

/// OC-3 payload line rate in cells/second.
fn oc3_cell_rate() -> f64 {
    Bandwidth::OC3.bps() / (gtw_net::cell::ATM_CELL_BYTES as f64 * 8.0)
}

// ---- 1. reservations hold under seeded background load ---------------

/// `(seed, background arrivals, FNV-1a of the arrival instants, FNV-1a
/// of the report JSON)` of [`congested_trunk`].
const PINNED_TRUNK: [(u64, usize, u64, u64); 3] = [
    (1999, 54_436, 0xe3bc_af9f_2119_4f9d, 0xb80d_7e42_014a_c2ee),
    (2000, 23_157, 0xd20a_4322_b376_0226, 0x920d_e017_e339_5655),
    (2001, 37_166, 0x42f6_0d2b_ea3d_65e2, 0xe1e0_bafc_f6a6_2387),
];

fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Four seeded on-off background flows whose mean load sums to 100–300 k
/// cells/s, around the knee where the trunk's queue starts growing. Peak
/// rates, mean burst lengths, duty cycles and jittered starts come from
/// the seed's `traffic/plan` stream; flow `k` draws its geometric bursts
/// at the peak rate and the exponential silences that hold its duty
/// cycle from its own `traffic/bg{k}` stream. Returns each flow's arrival
/// instants, strictly increasing and before `horizon`.
fn background(seed: u64, horizon: SimTime) -> Vec<Vec<SimTime>> {
    const FLOWS: usize = 4;
    let mut plan = StreamRng::new(seed, "traffic/plan");
    let aggregate = 200_000.0 * plan.uniform_in(0.5, 1.5);
    let specs: Vec<(f64, f64, f64, SimTime)> = (0..FLOWS)
        .map(|_| {
            let duty = plan.uniform_in(0.2, 0.9);
            let mean_burst = plan.uniform_in(8.0, 120.0);
            let start = SimTime::from_nanos((plan.uniform_in(0.0, 0.01) * 1e9) as u64);
            (aggregate / FLOWS as f64 / duty, mean_burst, duty, start)
        })
        .collect();
    let flow = |k: usize, (peak, mean_burst, duty, start): (f64, f64, f64, SimTime)| {
        let mut rng = StreamRng::new(seed, &format!("traffic/bg{k}"));
        let interval = SimDuration::from_secs_f64(1.0 / peak);
        let mut out = Vec::new();
        let mut t = start;
        while t < horizon {
            let burst = 1 + (rng.exponential(1.0) * (mean_burst - 1.0)).round() as u64;
            for _ in 0..burst {
                if t >= horizon {
                    break;
                }
                out.push(t);
                t += interval;
            }
            let mean_off = burst as f64 / peak * (1.0 - duty) / duty;
            t += SimDuration::from_secs_f64(rng.exponential(1.0 / mean_off.max(1e-12)));
        }
        out
    };
    specs.into_iter().enumerate().map(|(k, spec)| flow(k, spec)).collect()
}

/// The congested-trunk scenario: a policed, CAC-style reserved CBR flow
/// shares one OC-3 output port with a seeded plan of bursty background
/// flows. Returns `(reserved sent, reserved delivered, report JSON)`.
fn congested_trunk(seed: u64) -> (u64, u64, String) {
    let horizon = SimTime::from_millis(200);
    let reserved_rate = 100_000.0; // cells/s, ~27% of the line
    let mut sim = Simulator::new();
    let ep = sim.add_component(CellEndpoint::default());
    // One OC-3 output port; selective discard protects untagged traffic.
    let mut port = OutputPort::simple(ep, 0, Bandwidth::OC3, SimDuration::from_micros(5), 4096);
    port.clp_threshold = 512;
    let mut sw = AtmSwitch::new("trunk", vec![port]);
    sw.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 1, vci: 100 });
    for k in 0..4u16 {
        let vci = 200 + k;
        sw.add_route(VcKey { port: 0, vpi: 1, vci }, VcRoute { port: 0, vpi: 1, vci });
    }
    let sw = sim.add_component(sw);
    // The UNI: the reserved VC's contract covers its CBR rate; each
    // background flow is contracted well below its burst peak, so the
    // excess gets CLP-tagged and shed first at the switch.
    let mut pol = UniPolicer::new("uni", sw);
    pol.add_contract(
        1,
        100,
        LeakyBucket::new(reserved_rate * 1.05, SimDuration::from_micros(200), PolicingAction::Tag),
    );
    for k in 0..4u16 {
        pol.add_contract(
            1,
            200 + k,
            LeakyBucket::new(60_000.0, SimDuration::from_micros(100), PolicingAction::Tag),
        );
    }
    let pol = sim.add_component(pol);
    let mut reg = StatsRegistry::new();
    reg.add_policer(pol);
    reg.add_switch(sw);
    // Reserved CBR: one single-cell frame every 10 µs.
    let mut reserved_sent = 0u64;
    let interval = SimDuration::from_secs_f64(1.0 / reserved_rate);
    let mut t = SimTime::ZERO;
    while t < horizon {
        for cell in segment(b"r", 1, 100) {
            sim.send_at(t, pol, msg(CellArrive { port: 0, cell }));
        }
        reserved_sent += 1;
        t += interval;
    }
    // Seeded background: four on-off flows around the knee of the
    // remaining capacity, one single-cell frame per arrival instant.
    for (idx, arrivals) in background(seed, horizon).into_iter().enumerate() {
        let vci = 200 + idx as u16;
        for at in arrivals {
            for cell in segment(b"b", 1, vci) {
                sim.send_at(at, pol, msg(CellArrive { port: 0, cell }));
            }
        }
    }
    sim.run();
    let delivered = sim
        .component::<CellEndpoint>(ep)
        .delivered
        .iter()
        .filter(|((_, vci), _)| *vci == 100)
        .count() as u64;
    let json = reg.collect(&sim).to_json().dump();
    (reserved_sent, delivered, json)
}

#[test]
fn reserved_flow_holds_its_goodput_under_seeded_background_load() {
    let seed = master_seed();
    for s in [seed, seed.wrapping_add(1), seed.wrapping_add(2)] {
        let (sent, delivered, json) = congested_trunk(s);
        // The reservation is met: the admitted flow's goodput floor is
        // its contract, regardless of what the background does.
        assert!(
            delivered as f64 >= 0.999 * sent as f64,
            "seed {s}: reserved flow lost {} of {sent} cells",
            sent - delivered
        );
        // The background excess was tagged at the UNI and shed first:
        // per-VC attribution shows up for the background circuits only.
        assert!(json.contains("\"policers\":"), "seed {s}: {json}");
        assert!(json.contains("\"vci\":100"), "seed {s}: {json}");
    }
}

#[test]
fn congested_trunk_is_pinned() {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    for (seed, count, arrivals_digest, report_digest) in PINNED_TRUNK {
        let flows = background(seed, SimTime::from_millis(200));
        let mut h = FNV_OFFSET;
        for (idx, flow) in flows.iter().enumerate() {
            for at in flow {
                h = fnv(h, format!("{idx}:{};", at.as_nanos()).bytes());
            }
        }
        assert_eq!(flows.iter().map(Vec::len).sum::<usize>(), count, "seed {seed}");
        assert_eq!(h, arrivals_digest, "seed {seed}: background arrivals moved");
        let (_, _, json) = congested_trunk(seed);
        assert_eq!(fnv(FNV_OFFSET, json.bytes()), report_digest, "seed {seed}: report moved");
    }
}

// ---- 2. EPD goodput floor vs tail-drop collapse ----------------------

/// Blast `frames` AAL5 frames of `frame_bytes` back to back at
/// `overload`× the line rate into a switch with the given EPD setting;
/// return `(complete frames delivered, mutilated frames, overflow)`.
fn frame_overload(
    epd: Option<usize>,
    frames: usize,
    frame_bytes: usize,
    overload: f64,
) -> (u64, u64, u64) {
    let mut sim = Simulator::new();
    let ep = sim.add_component(CellEndpoint::default());
    let mut port = OutputPort::simple(ep, 0, Bandwidth::OC3, SimDuration::from_micros(5), 128);
    port.epd_threshold = epd;
    let mut sw = AtmSwitch::new("epd-ab", vec![port]);
    sw.add_route(VcKey { port: 0, vpi: 1, vci: 100 }, VcRoute { port: 0, vpi: 1, vci: 100 });
    let sw = sim.add_component(sw);
    let interval = SimDuration::from_secs_f64(1.0 / (oc3_cell_rate() * overload));
    let mut t = SimTime::ZERO;
    for k in 0..frames {
        let payload = vec![k as u8; frame_bytes];
        for cell in segment(&payload, 1, 100) {
            sim.send_at(t, sw, msg(CellArrive { port: 0, cell }));
            t += interval;
        }
    }
    sim.run();
    let e = sim.component::<CellEndpoint>(ep);
    let s = sim.component::<AtmSwitch>(sw);
    (e.delivered.len() as u64, e.errors, s.stats.overflow)
}

#[test]
fn epd_keeps_goodput_above_the_model_floor_where_tail_drop_collapses() {
    let mut rng = StreamRng::new(master_seed(), "overload/epd-ab");
    for round in 0..3 {
        let frame_bytes = 1000 + (rng.below(2000) as usize);
        let overload = rng.uniform_in(2.0, 4.0);
        let frames = 200usize;
        let cells_per_frame = gtw_net::aal5::cells_for_pdu(frame_bytes) as f64;
        let (tail_ok, tail_errors, tail_overflow) =
            frame_overload(None, frames, frame_bytes, overload);
        let (epd_ok, epd_errors, _) = frame_overload(Some(64), frames, frame_bytes, overload);
        // Tail drop under sustained overload overflows mid-frame and
        // mutilates; EPD refuses whole frames instead.
        assert!(tail_overflow > 0, "round {round}: no overload reached the queue");
        assert!(
            epd_ok > tail_ok,
            "round {round}: EPD delivered {epd_ok} complete frames vs tail-drop {tail_ok}"
        );
        assert!(epd_errors <= tail_errors, "round {round}: EPD must not add mutilation");
        // Model floor: the line can carry `1/overload` of the offered
        // frames; EPD must realize at least half of that capacity share
        // as *complete* frames (tail drop typically lands near zero).
        let capacity_frames = frames as f64 / overload;
        assert!(
            epd_ok as f64 >= 0.5 * capacity_frames,
            "round {round}: EPD goodput {epd_ok} below the floor {:.0} \
             ({cells_per_frame} cells/frame, {overload:.2}x overload)",
            0.5 * capacity_frames
        );
    }
}

// ---- 3. gateway failover is exactly-once -----------------------------

#[test]
fn gateway_failover_preserves_exactly_once_delivery_under_seeded_load() {
    let seed = master_seed();
    for s in [seed, seed.wrapping_add(1), seed.wrapping_add(2)] {
        let mut rng = StreamRng::new(s, "overload/failover");
        let mut sim = Simulator::new();
        let sink = sim.add_component(GatewaySink::default());
        let pair = sim.add_component(
            GatewayPair::new(Gateway::sgi_o200_to_atm(), Gateway::sun_ultra30_to_atm(), sink)
                .with_probes(SimDuration::from_millis(1), 3),
        );
        sim.send_at(SimTime::ZERO, pair, msg(StartProbes));
        // Seeded offered load: 60 datagrams, jittered arrivals, mixed
        // sizes.
        let n = 60u64;
        let mut t = SimTime::ZERO;
        for seq in 0..n {
            t += SimDuration::from_secs_f64(rng.exponential(2500.0));
            let bytes = 2048 + rng.below(14 * 1024);
            sim.send_at(t, pair, msg(GwPacket { seq, bytes }));
        }
        // The primary dies silently at a seeded instant mid-stream.
        let down_at = SimTime::from_secs_f64(rng.uniform_in(0.005, 0.015));
        sim.send_at(down_at, pair, msg(GatewayDown(0)));
        sim.run();
        let gp = sim.component::<GatewayPair>(pair);
        let delivered = &sim.component::<GatewaySink>(sink).delivered;
        // Exactly-once: no duplicates, bounded in-flight loss, every
        // datagram accounted for.
        let mut seen = delivered.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), delivered.len(), "seed {s}: duplicate delivery");
        assert!(gp.inflight_lost <= 1, "seed {s}: more than the mid-copy datagram lost");
        assert_eq!(gp.queue_drops, 0, "seed {s}: upstream buffer must absorb the outage");
        assert_eq!(
            delivered.len() as u64 + gp.inflight_lost,
            n,
            "seed {s}: delivery not exactly-once"
        );
        assert_eq!(gp.failovers, 1, "seed {s}");
        assert_eq!(gp.active_unit(), 1, "seed {s}");
    }
}

// ---- 4. FIRE sheds resolution, never the deadline --------------------

/// Seeded congestion for the FIRE chain: 1–3 windows, slowdowns 2–5×.
fn seeded_congestion(seed: u64) -> Congestion {
    let mut rng = StreamRng::new(seed, "overload/fire");
    let n = 1 + (rng.below(3) as usize);
    let mut windows = Vec::new();
    for _ in 0..n {
        let start = rng.uniform_in(5.0, 90.0);
        let len = rng.uniform_in(5.0, 30.0);
        windows
            .push(Window::new(SimTime::from_secs_f64(start), SimTime::from_secs_f64(start + len)));
    }
    Congestion::new(Schedule::new(windows), rng.uniform_in(2.0, 5.0))
}

fn with_congestion(congestion: Congestion) -> ChainOptions {
    ChainOptions { congestion: Some(congestion), ..ChainOptions::default() }
}

#[test]
fn fire_degrades_resolution_but_never_misses_the_deadline() {
    // The paper's quoted stage budget around a 0.9 s compute stage.
    let cfg = RealtimeConfig {
        tr_s: 3.0,
        acquire_s: 1.5,
        transfer_s: 1.1,
        compute_s: 0.9,
        display_s: 0.6,
        scans: 40,
    };
    let seed = master_seed();
    for s in [seed, seed.wrapping_add(1), seed.wrapping_add(2), seed.wrapping_add(3)] {
        let r = run_chain_with(cfg, ChainMode::Sequential, &with_congestion(seeded_congestion(s)));
        let stats = r.degrade.as_ref().expect("congestion installed");
        // The realtime contract: every displayed image inside the
        // paper's budget — congestion costs resolution, not latency.
        assert_eq!(stats.predicted_misses, 0, "seed {s}: {stats:?}");
        assert!(
            r.latency.max().as_secs_f64() <= DEGRADE_DEADLINE_S + 1e-9,
            "seed {s}: deadline missed: {r:?}"
        );
        assert!(stats.downshifts >= 1, "seed {s}: congestion must bite: {stats:?}");
        assert_eq!(r.displayed + r.skipped, r.scanned, "seed {s}: {r:?}");
        // Same seed, same run — bit for bit.
        let again =
            run_chain_with(cfg, ChainMode::Sequential, &with_congestion(seeded_congestion(s)));
        assert_eq!(format!("{r:?}"), format!("{again:?}"), "seed {s}");
    }
    // And with no congestion the entry point is invisible.
    let clean = run_chain(cfg, ChainMode::Sequential);
    let empty = run_chain_with(cfg, ChainMode::Sequential, &with_congestion(Congestion::default()));
    assert!(empty.degrade.is_none());
    assert_eq!(format!("{clean:?}"), format!("{empty:?}"));
}

// ---- 5. CAC never overcommits, rejections roll back ------------------

#[test]
fn cac_never_overcommits_under_seeded_call_fuzz() {
    let seed = master_seed();
    for s in [seed, seed.wrapping_add(1), seed.wrapping_add(2)] {
        let mut rng = StreamRng::new(s, "overload/cac");
        let capacity = Bandwidth::from_mbps(622.0);
        let peak_factor = 1.3;
        let mut sim = Simulator::new();
        let origin = sim.add_component(CallOriginator::default());
        let path: Vec<_> = (0..3)
            .map(|k| {
                sim.add_component(
                    SignallingAgent::new(format!("sw{k}"), capacity, SimDuration::from_micros(500))
                        .with_peak_factor(peak_factor),
                )
            })
            .collect();
        // 20 seeded VBR calls; far more peak than the trunk can hold.
        let mut tds = Vec::new();
        for k in 0..20u64 {
            let pcr = rng.uniform_in(50.0, 200.0);
            let scr = pcr * rng.uniform_in(0.3, 1.0);
            let td = TrafficDescriptor::vbr(Bandwidth::from_mbps(pcr), Bandwidth::from_mbps(scr));
            tds.push(td);
            place_call_with(&mut sim, origin, &path, CallId(k), td, SimTime::from_millis(10 * k));
        }
        sim.run();
        let o = sim.component::<CallOriginator>(origin);
        assert_eq!(o.results.len(), 20, "seed {s}: every call resolved");
        let connected_scr: f64 = o
            .results
            .iter()
            .filter(|(_, r)| matches!(r, CallOutcome::Connected { .. }))
            .map(|(id, _)| tds[id.0 as usize].scr.bps())
            .sum();
        let connected_pcr: f64 = o
            .results
            .iter()
            .filter(|(_, r)| matches!(r, CallOutcome::Connected { .. }))
            .map(|(id, _)| tds[id.0 as usize].pcr.bps())
            .sum();
        assert!(
            o.results.iter().any(|(_, r)| matches!(r, CallOutcome::Rejected { .. })),
            "seed {s}: the fuzz must oversubscribe the trunk"
        );
        for &hop in &path {
            let a = sim.component::<SignallingAgent>(hop);
            // Safety: the budgets were never overcommitted.
            assert!(
                a.committed_bps() <= capacity.bps() + 1.0,
                "seed {s}: SCR overcommitted: {}",
                a.committed_bps()
            );
            assert!(
                a.committed_pcr_bps() <= capacity.bps() * peak_factor + 1.0,
                "seed {s}: PCR overcommitted: {}",
                a.committed_pcr_bps()
            );
            // Rollback: exactly the connected calls remain admitted.
            assert!(
                (a.committed_bps() - connected_scr).abs() < 1.0,
                "seed {s}: rejected calls must roll back"
            );
            assert!((a.committed_pcr_bps() - connected_pcr).abs() < 1.0, "seed {s}");
            // Every refusal is attributed to a cause.
            assert_eq!(a.calls_refused, a.refused_scr + a.refused_pcr, "seed {s}");
        }
    }
}

// ---- 6. one seed, one report -----------------------------------------

#[test]
fn same_seed_reproduces_byte_identical_reports() {
    let seed = master_seed();
    let (_, _, a) = congested_trunk(seed);
    let (_, _, b) = congested_trunk(seed);
    assert_eq!(a, b, "one seed must yield one byte-identical report");
    let (_, _, c) = congested_trunk(seed.wrapping_add(17));
    assert_ne!(a, c, "different seeds must yield different runs");
}
