//! ATM traffic policing: the GCRA leaky bucket and CLP-based selective
//! discard.
//!
//! The testbed carried wildly different service classes on one fabric —
//! studio video next to metacomputing bulk transfers — which is exactly
//! what ATM's usage-parameter control was built for. A [`LeakyBucket`]
//! (the Generic Cell Rate Algorithm of ITU-T I.371) polices a virtual
//! circuit at its contracted rate: conforming cells pass untouched,
//! excess cells are either *tagged* (CLP ← 1, droppable first) or
//! *discarded* at the UNI. The switch's output ports then shed
//! CLP-tagged cells first under congestion, protecting the contracted
//! traffic.

use std::collections::BTreeMap;

use gtw_desim::component::{downcast, msg};
use gtw_desim::{Component, ComponentId, Ctx, Msg, SimDuration, SimTime};

use crate::cell::AtmCell;
use crate::switch::CellArrive;

/// What happens to a non-conforming cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicingAction {
    /// Mark CLP = 1; downstream drops it first under congestion.
    Tag,
    /// Discard at the policing point.
    Discard,
}

/// Verdict of the policer for one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within contract.
    Conforming,
    /// Out of contract, CLP-tagged and forwarded.
    Tagged,
    /// Out of contract, dropped.
    Discarded,
}

/// The GCRA / virtual-scheduling leaky bucket.
#[derive(Clone, Debug)]
pub struct LeakyBucket {
    /// Cell emission interval `T = 1/PCR`.
    increment: SimDuration,
    /// Tolerance τ (CDVT): how far ahead of schedule a cell may arrive.
    tolerance: SimDuration,
    /// Action for non-conforming cells.
    pub action: PolicingAction,
    /// Theoretical arrival time of the next conforming cell.
    tat: SimTime,
    /// Counters.
    pub conforming: u64,
    /// Cells tagged.
    pub tagged: u64,
    /// Cells discarded.
    pub discarded: u64,
}

impl LeakyBucket {
    /// Police at `peak_cell_rate` cells/second with `tolerance` CDVT.
    pub fn new(peak_cell_rate: f64, tolerance: SimDuration, action: PolicingAction) -> Self {
        assert!(peak_cell_rate > 0.0, "PCR must be positive");
        LeakyBucket {
            increment: SimDuration::from_secs_f64(1.0 / peak_cell_rate),
            tolerance,
            action,
            tat: SimTime::ZERO,
            conforming: 0,
            tagged: 0,
            discarded: 0,
        }
    }

    /// Police one cell arriving at `now`; may set its CLP bit. The
    /// verdict says what to do with it.
    pub fn police(&mut self, cell: &mut AtmCell, now: SimTime) -> Verdict {
        // GCRA virtual scheduling: conforming iff now >= TAT - τ.
        let earliest =
            SimTime::from_nanos(self.tat.as_nanos().saturating_sub(self.tolerance.as_nanos()));
        if now >= earliest {
            self.tat = self.tat.max(now) + self.increment;
            self.conforming += 1;
            Verdict::Conforming
        } else {
            match self.action {
                PolicingAction::Tag => {
                    cell.header.clp = true;
                    self.tagged += 1;
                    Verdict::Tagged
                }
                PolicingAction::Discard => {
                    self.discarded += 1;
                    Verdict::Discarded
                }
            }
        }
    }

    /// Contracted rate in cells per second.
    pub fn contracted_rate(&self) -> f64 {
        1.0 / self.increment.as_secs_f64()
    }

    /// Equivalent token-bucket depth in cells: how many cells beyond the
    /// long-run `PCR·t` allowance a maximally bursty source can get
    /// through the policer (`1 + τ/T`).
    pub fn bucket_depth_cells(&self) -> f64 {
        1.0 + self.tolerance.as_secs_f64() / self.increment.as_secs_f64()
    }
}

/// A UNI policing point: one [`LeakyBucket`] per contracted virtual
/// circuit, sitting in front of a switch input.
///
/// Cells arriving on a contracted VC are policed by that VC's own
/// bucket — so every tag/discard is attributed to the circuit that
/// caused it, not to an aggregate counter — and forwarded (or shed) at
/// the UNI. Cells on VCs with no contract pass through unpoliced but
/// counted, mirroring the testbed's permanent in-house circuits.
pub struct UniPolicer {
    /// Downstream component (normally the switch input).
    pub next: ComponentId,
    /// Per-VC policers, keyed by `(VPI, VCI)`; `BTreeMap` so reports
    /// iterate in deterministic VC order.
    pub contracts: BTreeMap<(u8, u16), LeakyBucket>,
    /// Cells forwarded for VCs without a contract.
    pub unpoliced: u64,
    /// Stray messages dropped instead of crashing the simulation.
    pub dropped_msgs: u64,
    label: String,
}

impl UniPolicer {
    /// A policing point labelled `label` forwarding to `next`.
    pub fn new(label: impl Into<String>, next: ComponentId) -> Self {
        UniPolicer {
            next,
            contracts: BTreeMap::new(),
            unpoliced: 0,
            dropped_msgs: 0,
            label: label.into(),
        }
    }

    /// Install (or replace) the traffic contract for VC `(vpi, vci)`.
    pub fn add_contract(&mut self, vpi: u8, vci: u16, bucket: LeakyBucket) -> &mut Self {
        self.contracts.insert((vpi, vci), bucket);
        self
    }

    /// Per-VC verdict counters, in VC order:
    /// `(vpi, vci, conforming, tagged, discarded)`.
    pub fn per_vc_counters(&self) -> Vec<(u8, u16, u64, u64, u64)> {
        self.contracts
            .iter()
            .map(|(&(vpi, vci), b)| (vpi, vci, b.conforming, b.tagged, b.discarded))
            .collect()
    }

    /// Cells discarded across all contracts.
    pub fn total_discarded(&self) -> u64 {
        self.contracts.values().map(|b| b.discarded).sum()
    }

    /// Cells tagged across all contracts.
    pub fn total_tagged(&self) -> u64 {
        self.contracts.values().map(|b| b.tagged).sum()
    }
}

impl Component for UniPolicer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, m: Msg) {
        if !m.is::<CellArrive>() {
            self.dropped_msgs += 1;
            return;
        }
        let CellArrive { port, mut cell } = *downcast::<CellArrive>(m);
        let vc = (cell.header.vpi, cell.header.vci);
        match self.contracts.get_mut(&vc) {
            Some(bucket) => {
                if bucket.police(&mut cell, ctx.now()) == Verdict::Discarded {
                    return;
                }
            }
            None => self.unpoliced += 1,
        }
        ctx.send_in(SimDuration::ZERO, self.next, msg(CellArrive { port, cell }));
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellHeader;

    fn cell() -> AtmCell {
        AtmCell::new(CellHeader::data(1, 100), b"x")
    }

    /// Feed `n` cells at a fixed interval; return verdict counts.
    fn run(bucket: &mut LeakyBucket, n: usize, interval: SimDuration) -> (u64, u64, u64) {
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            let mut c = cell();
            bucket.police(&mut c, t);
            t += interval;
        }
        (bucket.conforming, bucket.tagged, bucket.discarded)
    }

    #[test]
    fn conforming_stream_passes_untouched() {
        // Source exactly at the contracted rate.
        let mut b = LeakyBucket::new(1000.0, SimDuration::from_micros(100), PolicingAction::Tag);
        let (ok, tagged, dropped) = run(&mut b, 500, SimDuration::from_millis(1));
        assert_eq!(ok, 500);
        assert_eq!(tagged, 0);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn double_rate_stream_tagged_half() {
        // Source at 2x the contract: every other cell is out of contract.
        let mut b = LeakyBucket::new(1000.0, SimDuration::from_micros(10), PolicingAction::Tag);
        let (ok, tagged, _) = run(&mut b, 1000, SimDuration::from_micros(500));
        let ratio = tagged as f64 / (ok + tagged) as f64;
        assert!((ratio - 0.5).abs() < 0.05, "tagged ratio {ratio}");
    }

    #[test]
    fn discard_mode_drops_excess() {
        let mut b = LeakyBucket::new(1000.0, SimDuration::from_micros(10), PolicingAction::Discard);
        let (ok, tagged, dropped) = run(&mut b, 1000, SimDuration::from_micros(250));
        assert_eq!(tagged, 0);
        assert!(dropped > 700, "dropped {dropped}");
        // Throughput of surviving cells ~ the contract.
        assert!((ok as f64 - 250.0).abs() < 30.0, "ok {ok}");
    }

    #[test]
    fn tolerance_absorbs_jitter_bursts() {
        // A bursty but on-average conforming source: with generous CDVT
        // everything conforms; with zero CDVT the bursts get tagged.
        let burst = |b: &mut LeakyBucket| {
            let mut t = SimTime::ZERO;
            for k in 0..200 {
                let mut c = cell();
                b.police(&mut c, t);
                // 10 cells back to back, then a long gap (mean = 1 ms).
                t += if k % 10 == 9 {
                    SimDuration::from_micros(9100)
                } else {
                    SimDuration::from_micros(100)
                };
            }
        };
        let mut generous =
            LeakyBucket::new(1000.0, SimDuration::from_millis(10), PolicingAction::Tag);
        burst(&mut generous);
        assert_eq!(generous.tagged, 0, "CDVT should absorb the bursts");
        let mut strict = LeakyBucket::new(1000.0, SimDuration::ZERO, PolicingAction::Tag);
        burst(&mut strict);
        assert!(strict.tagged > 100, "zero CDVT should tag the bursts: {}", strict.tagged);
    }

    #[test]
    fn tagged_cells_carry_clp() {
        let mut b = LeakyBucket::new(1.0, SimDuration::ZERO, PolicingAction::Tag);
        let mut c1 = cell();
        let mut c2 = cell();
        assert_eq!(b.police(&mut c1, SimTime::ZERO), Verdict::Conforming);
        assert!(!c1.header.clp);
        assert_eq!(b.police(&mut c2, SimTime::ZERO), Verdict::Tagged);
        assert!(c2.header.clp);
    }

    #[test]
    fn contracted_rate_roundtrip() {
        let b = LeakyBucket::new(353_207.5, SimDuration::ZERO, PolicingAction::Tag);
        // The interval is stored at nanosecond granularity.
        assert!((b.contracted_rate() - 353_207.5).abs() / 353_207.5 < 1e-3);
    }

    #[test]
    fn uni_policer_attributes_verdicts_per_vc() {
        use gtw_desim::component::msg;
        use gtw_desim::{SimTime, Simulator};

        use crate::switch::{CellArrive, CellEndpoint};

        let mut sim = Simulator::new();
        let sink = sim.add_component(CellEndpoint::default());
        let mut pol = UniPolicer::new("uni", sink);
        // VC (1, 100): contract at 1000 cells/s, discard excess.
        // VC (1, 200): same contract, tag excess.
        // VC (1, 300): no contract.
        pol.add_contract(
            1,
            100,
            LeakyBucket::new(1000.0, SimDuration::ZERO, PolicingAction::Discard),
        )
        .add_contract(
            1,
            200,
            LeakyBucket::new(1000.0, SimDuration::ZERO, PolicingAction::Tag),
        );
        let pol = sim.add_component(pol);
        // Send 100 single-cell AAL5 frames on each VC at 2× the
        // contract (every 500 µs); each surviving cell reassembles into
        // one delivered PDU.
        for k in 0..100u64 {
            let at = SimTime::from_micros(500 * k);
            for vci in [100u16, 200, 300] {
                for cell in crate::aal5::segment(b"x", 1, vci) {
                    sim.send_at(at, pol, msg(CellArrive { port: 0, cell }));
                }
            }
        }
        sim.run();
        let p = sim.component::<UniPolicer>(pol);
        let per_vc = p.per_vc_counters();
        assert_eq!(per_vc.len(), 2);
        let (_, _, ok1, tag1, drop1) = per_vc[0]; // VC 100: Discard
        let (_, _, ok2, tag2, drop2) = per_vc[1]; // VC 200: Tag
        assert!((ok1 as f64 - 50.0).abs() < 5.0, "VC 100 conforming {ok1}");
        assert_eq!(tag1, 0);
        assert!(drop1 > 40, "VC 100 discards attributed: {drop1}");
        assert!((ok2 as f64 - 50.0).abs() < 5.0, "VC 200 conforming {ok2}");
        assert!(tag2 > 40, "VC 200 tags attributed: {tag2}");
        assert_eq!(drop2, 0);
        assert_eq!(p.unpoliced, 100, "uncontracted VC passes through counted");
        assert_eq!(p.total_discarded(), drop1);
        assert_eq!(p.total_tagged(), tag2);
        // Everything not discarded reached the sink and reassembled.
        let delivered = sim.component::<CellEndpoint>(sink).delivered.len() as u64;
        assert_eq!(delivered, 300 - drop1, "all surviving frames delivered");
    }

    #[test]
    fn uni_policer_drops_strays_not_the_sim() {
        use gtw_desim::component::msg;
        use gtw_desim::{SimDuration, Simulator};

        let mut sim = Simulator::new();
        let sink = sim.add_component(crate::switch::CellEndpoint::default());
        let pol = sim.add_component(UniPolicer::new("uni", sink));
        struct Stray;
        sim.send_in(SimDuration::ZERO, pol, msg(Stray));
        sim.run();
        assert_eq!(sim.component::<UniPolicer>(pol).dropped_msgs, 1);
    }
}

#[cfg(test)]
mod proptests {
    use gtw_desim::rng::StreamRng;
    use proptest::prelude::*;

    use super::*;
    use crate::cell::CellHeader;

    proptest! {
        /// The GCRA is exactly a token bucket of depth `1 + τ/T`: over
        /// ANY window of a seeded arrival process, the cells it admits
        /// as conforming never exceed `PCR·t + bucket_depth`.
        #[test]
        fn token_bucket_never_admits_more_than_pcr_t_plus_depth(
            seed in any::<u64>(),
            pcr in 100.0f64..100_000.0,
            tol_us in 0u64..10_000,
            n in 1usize..600,
        ) {
            let tolerance = SimDuration::from_micros(tol_us);
            let mut bucket = LeakyBucket::new(pcr, tolerance, PolicingAction::Discard);
            let mut rng = StreamRng::new(seed, "policing/proptest");
            // A bursty seeded arrival process around 3× the contract.
            let mut t = SimTime::ZERO;
            let mut arrivals = Vec::with_capacity(n);
            for _ in 0..n {
                arrivals.push(t);
                t += SimDuration::from_secs_f64(rng.exponential(3.0 * pcr));
            }
            let mut first_ok: Option<SimTime> = None;
            let mut last_ok = SimTime::ZERO;
            let mut conforming = 0u64;
            for &at in &arrivals {
                let mut cell = AtmCell::new(CellHeader::data(1, 100), b"x");
                if bucket.police(&mut cell, at) == Verdict::Conforming {
                    first_ok.get_or_insert(at);
                    last_ok = at;
                    conforming += 1;
                }
            }
            let span = last_ok.saturating_since(first_ok.unwrap_or(SimTime::ZERO));
            let bound = pcr * span.as_secs_f64() + bucket.bucket_depth_cells();
            prop_assert!(
                (conforming as f64) <= bound + 1e-6,
                "{conforming} conforming over {span:?} exceeds PCR·t + depth = {bound}"
            );
        }
    }
}
