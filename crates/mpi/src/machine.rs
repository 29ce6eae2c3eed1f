//! Machine placement and the metacomputing communication-cost model.
//!
//! "A serious limitation of distributed metacomputing environments is
//! that latency and bandwidth of the connecting network cannot compete
//! with the performance of the internal communication paths of massively
//! parallel supercomputers" — the library therefore knows, for every pair
//! of ranks, whether a message stays inside a machine (fast fabric) or
//! crosses the WAN, and accounts modeled transfer time accordingly. This
//! is what lets the application benches attribute time to intra vs inter
//! machine traffic, the way the VAMPIR tooling of the testbed did.

/// Latency/bandwidth pair describing one communication fabric.
#[derive(Clone, Copy, Debug)]
pub struct FabricSpec {
    /// One-way small-message latency in seconds.
    pub latency_s: f64,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth_bytes_per_s: f64,
}

impl FabricSpec {
    /// Cray T3E 3-D torus: ~1 µs latency, ~350 MB/s per link (sustained
    /// MPI figures of the era).
    pub fn t3e_torus() -> Self {
        FabricSpec { latency_s: 1.0e-6, bandwidth_bytes_per_s: 350.0e6 }
    }

    /// IBM SP2 high-performance switch: ~40 µs MPI latency, ~35 MB/s.
    pub fn sp2_switch() -> Self {
        FabricSpec { latency_s: 40.0e-6, bandwidth_bytes_per_s: 35.0e6 }
    }

    /// Shared-memory SMP (T90, Onyx 2): sub-µs, ~1 GB/s.
    pub fn smp_shared() -> Self {
        FabricSpec { latency_s: 0.5e-6, bandwidth_bytes_per_s: 1.0e9 }
    }

    /// The testbed WAN at OC-12 era: ~100 km propagation plus gateway
    /// stacks ≈ 1.5 ms one-way MPI latency; effective TCP bandwidth
    /// between supercomputers ≈ 30 MB/s (the 260 Mbit/s measurement).
    pub fn wan_testbed() -> Self {
        FabricSpec { latency_s: 1.5e-3, bandwidth_bytes_per_s: 30.0e6 }
    }

    /// The production B-WiN at 155 Mbit/s access, shared: ~15 ms latency,
    /// ~5 MB/s effective — what the applications were escaping from.
    pub fn wan_bwin() -> Self {
        FabricSpec { latency_s: 15.0e-3, bandwidth_bytes_per_s: 5.0e6 }
    }

    /// Modeled time to move `bytes` over this fabric.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

/// One machine of the metacomputer.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Display name ("Cray T3E-600 (FZJ)").
    pub name: String,
    /// Internal fabric.
    pub fabric: FabricSpec,
}

impl MachineSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, fabric: FabricSpec) -> Self {
        MachineSpec { name: name.into(), fabric }
    }
}

/// Assignment of communicator ranks to machines, plus the WAN between
/// machines.
#[derive(Clone, Debug)]
pub struct Placement {
    machines: Vec<MachineSpec>,
    machine_of: Vec<usize>,
    wan: FabricSpec,
}

impl Placement {
    /// All `n` ranks on one machine.
    pub fn single(n: usize, machine: MachineSpec) -> Self {
        Placement {
            machines: vec![machine],
            machine_of: vec![0; n],
            wan: FabricSpec::wan_testbed(),
        }
    }

    /// Ranks `0..split` on machine `a`, the rest on machine `b`, joined by
    /// `wan`.
    pub fn split(n: usize, split: usize, a: MachineSpec, b: MachineSpec, wan: FabricSpec) -> Self {
        assert!(split <= n, "split beyond communicator size");
        let machine_of = (0..n).map(|r| usize::from(r >= split)).collect();
        Placement { machines: vec![a, b], machine_of, wan }
    }

    /// Fully general placement.
    pub fn custom(machines: Vec<MachineSpec>, machine_of: Vec<usize>, wan: FabricSpec) -> Self {
        assert!(machine_of.iter().all(|&m| m < machines.len()), "machine index out of range");
        Placement { machines, machine_of, wan }
    }

    /// Number of ranks placed.
    pub fn len(&self) -> usize {
        self.machine_of.len()
    }

    /// Whether no ranks are placed.
    pub fn is_empty(&self) -> bool {
        self.machine_of.is_empty()
    }

    /// The machine hosting `rank`.
    pub fn machine_of(&self, rank: usize) -> &MachineSpec {
        &self.machines[self.machine_of[rank]]
    }

    /// Index (into the machine list) of the machine hosting `rank`.
    /// Distinguishes machines that happen to share a display name, which
    /// is what the topology layer groups sites by.
    pub fn machine_index(&self, rank: usize) -> usize {
        self.machine_of[rank]
    }

    /// Number of distinct machines in the placement.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Whether two ranks share a machine.
    pub fn same_machine(&self, a: usize, b: usize) -> bool {
        self.machine_of[a] == self.machine_of[b]
    }

    /// The fabric a message between two ranks travels on.
    pub fn fabric_between(&self, a: usize, b: usize) -> &FabricSpec {
        if self.same_machine(a, b) {
            &self.machines[self.machine_of[a]].fabric
        } else {
            &self.wan
        }
    }

    /// Modeled transfer time between two ranks.
    pub fn transfer_time(&self, a: usize, b: usize, bytes: u64) -> f64 {
        self.fabric_between(a, b).transfer_time(bytes)
    }
}

/// Accumulated modeled communication cost for one rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommCost {
    /// Total modeled seconds in communication.
    pub seconds: f64,
    /// Seconds attributable to intra-machine traffic.
    pub intra_seconds: f64,
    /// Seconds attributable to WAN traffic.
    pub wan_seconds: f64,
    /// Messages sent or received.
    pub messages: u64,
    /// Messages that crossed the WAN (the metric topology-aware
    /// collectives exist to shrink: O(ranks) crossings become O(sites)).
    pub wan_messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

impl CommCost {
    /// Record one message.
    pub fn charge(&mut self, seconds: f64, bytes: u64, wan: bool) {
        self.seconds += seconds;
        if wan {
            self.wan_seconds += seconds;
            self.wan_messages += 1;
        } else {
            self.intra_seconds += seconds;
        }
        self.messages += 1;
        self.bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_transfer_time() {
        let f = FabricSpec { latency_s: 1e-3, bandwidth_bytes_per_s: 1e6 };
        assert!((f.transfer_time(0) - 1e-3).abs() < 1e-12);
        assert!((f.transfer_time(1_000_000) - 1.001).abs() < 1e-9);
    }

    #[test]
    fn wan_is_orders_slower_than_torus() {
        let torus = FabricSpec::t3e_torus();
        let wan = FabricSpec::wan_testbed();
        assert!(wan.latency_s / torus.latency_s > 1000.0);
        assert!(torus.bandwidth_bytes_per_s / wan.bandwidth_bytes_per_s > 10.0);
    }

    #[test]
    fn split_placement_fabrics() {
        let p = Placement::split(
            8,
            4,
            MachineSpec::new("T3E", FabricSpec::t3e_torus()),
            MachineSpec::new("SP2", FabricSpec::sp2_switch()),
            FabricSpec::wan_testbed(),
        );
        assert!(p.same_machine(0, 3));
        assert!(p.same_machine(4, 7));
        assert!(!p.same_machine(3, 4));
        assert_eq!(p.machine_of(0).name, "T3E");
        assert_eq!(p.machine_of(7).name, "SP2");
        // Cross-machine uses the WAN fabric.
        let wan_t = p.transfer_time(0, 7, 1024);
        let intra_t = p.transfer_time(0, 1, 1024);
        assert!(wan_t > intra_t * 100.0);
    }

    #[test]
    fn cost_accumulation() {
        let mut c = CommCost::default();
        c.charge(0.5, 1000, false);
        c.charge(1.5, 2000, true);
        assert!((c.seconds - 2.0).abs() < 1e-12);
        assert!((c.intra_seconds - 0.5).abs() < 1e-12);
        assert!((c.wan_seconds - 1.5).abs() < 1e-12);
        assert_eq!(c.messages, 2);
        assert_eq!(c.wan_messages, 1);
        assert_eq!(c.bytes, 3000);
    }

    #[test]
    #[should_panic(expected = "split beyond")]
    fn bad_split_panics() {
        let m = MachineSpec::new("x", FabricSpec::smp_shared());
        let _ = Placement::split(4, 5, m.clone(), m, FabricSpec::wan_testbed());
    }
}
