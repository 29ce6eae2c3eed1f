//! HiPPI — the 800 Mbit/s High Performance Parallel Interface that
//! attaches the supercomputers to the testbed.
//!
//! HiPPI-800 moves data in *bursts* of 256 words × 32 bit = 1 KiB, at one
//! word per 25 MHz clock. Each burst costs a small fixed framing overhead,
//! and each *packet* (a sequence of bursts) plus each *connection* cost
//! additional setup time. The paper's observation — "HiPPI offers a peak
//! performance of 800 Mbit/s when a low-level protocol and large transfer
//! blocks (1 MByte or more) are used" — falls directly out of this model:
//! per-block costs amortize only for large blocks.

use gtw_desim::SimDuration;

use crate::units::{Bandwidth, DataSize};

/// Words per HiPPI burst.
pub const WORDS_PER_BURST: u64 = 256;
/// Bytes per HiPPI burst (256 × 32-bit words).
pub const BURST_BYTES: u64 = WORDS_PER_BURST * 4;
/// The 25 MHz word clock.
pub const WORD_CLOCK_HZ: f64 = 25.0e6;

/// Configuration of a HiPPI channel endpoint.
#[derive(Clone, Copy, Debug)]
pub struct HippiChannel {
    /// Overhead clocks per burst (burst header/LLRC and inter-burst gap).
    pub clocks_per_burst_overhead: u64,
    /// Per-packet overhead (I-field/connection arbitration amortized per
    /// packet when the connection is held open).
    pub packet_overhead: SimDuration,
    /// Per-connection setup (only paid once per connection).
    pub connection_setup: SimDuration,
}

impl Default for HippiChannel {
    fn default() -> Self {
        HippiChannel {
            clocks_per_burst_overhead: 8,
            packet_overhead: SimDuration::from_micros(20),
            connection_setup: SimDuration::from_micros(500),
        }
    }
}

impl HippiChannel {
    /// Raw signalling rate: 32 bits per 25 MHz clock = 800 Mbit/s.
    pub fn raw_rate(&self) -> Bandwidth {
        Bandwidth::from_bps(WORD_CLOCK_HZ * 32.0)
    }

    /// Time on the channel for one packet of `block` bytes (excluding
    /// connection setup).
    pub fn packet_time(&self, block: DataSize) -> SimDuration {
        let bursts = block.bytes().div_ceil(BURST_BYTES).max(1);
        let data_clocks = bursts * WORDS_PER_BURST;
        let oh_clocks = bursts * self.clocks_per_burst_overhead;
        let clock = SimDuration::from_secs_f64((data_clocks + oh_clocks) as f64 / WORD_CLOCK_HZ);
        clock + self.packet_overhead
    }

    /// Time for a whole transfer of `total` bytes moved in packets of
    /// `block` bytes over one connection.
    pub fn transfer_time(&self, total: DataSize, block: DataSize) -> SimDuration {
        assert!(block.bytes() > 0, "block size must be positive");
        let full = total.bytes() / block.bytes();
        let tail = total.bytes() % block.bytes();
        let mut t = self.connection_setup + self.packet_time(block).times(full);
        if tail > 0 {
            t += self.packet_time(DataSize::from_bytes(tail));
        }
        t
    }

    /// Effective low-level-protocol throughput for a transfer of `total`
    /// bytes in `block`-byte packets.
    pub fn throughput(&self, total: DataSize, block: DataSize) -> Bandwidth {
        crate::units::throughput(total, self.transfer_time(total, block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_rate_is_800() {
        assert!((HippiChannel::default().raw_rate().mbps() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn large_blocks_approach_peak() {
        // The paper: peak performance needs blocks of 1 MiB or more.
        let ch = HippiChannel::default();
        let tp = ch.throughput(DataSize::from_mib(64), DataSize::from_mib(1));
        assert!(tp.mbps() > 750.0, "1 MiB blocks reach only {tp}");
        let tp16 = ch.throughput(DataSize::from_mib(64), DataSize::from_mib(16));
        assert!(tp16.mbps() > tp.mbps() * 0.999, "bigger blocks should not hurt");
    }

    #[test]
    fn small_blocks_collapse() {
        let ch = HippiChannel::default();
        let tp = ch.throughput(DataSize::from_mib(64), DataSize::from_bytes(1024));
        assert!(tp.mbps() < 350.0, "1 KiB blocks should be badly amortized, got {tp}");
    }

    #[test]
    fn throughput_monotone_in_block_size() {
        let ch = HippiChannel::default();
        let total = DataSize::from_mib(16);
        let mut last = 0.0;
        for kib in [1u64, 4, 16, 64, 256, 1024] {
            let tp = ch.throughput(total, DataSize::from_kib(kib)).mbps();
            assert!(tp >= last, "block {kib} KiB: {tp} < {last}");
            last = tp;
        }
    }

    #[test]
    fn burst_granularity() {
        let ch = HippiChannel::default();
        // 1 byte still costs one whole burst.
        let t1 = ch.packet_time(DataSize::from_bytes(1));
        let t1024 = ch.packet_time(DataSize::from_bytes(1024));
        assert_eq!(t1, t1024);
        let t1025 = ch.packet_time(DataSize::from_bytes(1025));
        assert!(t1025 > t1024);
    }

    #[test]
    fn connection_setup_amortizes() {
        let ch = HippiChannel::default();
        let small = ch.throughput(DataSize::from_kib(64), DataSize::from_kib(64));
        let large = ch.throughput(DataSize::from_mib(64), DataSize::from_kib(64));
        assert!(large.bps() > small.bps());
    }
}
