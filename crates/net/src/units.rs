//! Bandwidth and data-size quantities with the line rates of the testbed.

use std::fmt;
use std::ops::Mul;

use gtw_desim::SimDuration;

/// A bandwidth, stored as bits per second.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// OC-3 / STM-1 line rate: 155.52 Mbit/s.
    pub const OC3: Bandwidth = Bandwidth(155.52e6);
    /// OC-12 / STM-4 line rate: 622.08 Mbit/s (the testbed's first year).
    pub const OC12: Bandwidth = Bandwidth(622.08e6);
    /// OC-48 / STM-16 line rate: 2488.32 Mbit/s (the 2.4 Gbit/s upgrade of
    /// August 1998).
    pub const OC48: Bandwidth = Bandwidth(2488.32e6);
    /// B-WiN maximum access capacity: 155 Mbit/s (the paper's motivation —
    /// every application needs more than this).
    pub const BWIN_ACCESS: Bandwidth = Bandwidth(155e6);

    /// From bits per second.
    pub const fn from_bps(bps: f64) -> Self {
        Bandwidth(bps)
    }

    /// From megabits per second.
    pub const fn from_mbps(mbps: f64) -> Self {
        Bandwidth(mbps * 1e6)
    }

    /// From gigabits per second.
    pub const fn from_gbps(gbps: f64) -> Self {
        Bandwidth(gbps * 1e9)
    }

    /// From megabytes per second (the unit the paper's application list
    /// uses, e.g. "up to 30 MByte/s").
    pub const fn from_mbytes_per_sec(mb: f64) -> Self {
        Bandwidth(mb * 8e6)
    }

    /// Bits per second.
    pub const fn bps(self) -> f64 {
        self.0
    }

    /// Megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to serialize `size` at this rate.
    pub fn time_for(self, size: DataSize) -> SimDuration {
        SimDuration::transmission(size.bits(), self.0)
    }

    /// The smaller of two rates (bottleneck composition).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scale by a dimensionless efficiency factor.
    pub fn scaled(self, factor: f64) -> Bandwidth {
        Bandwidth(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} Gbit/s", self.gbps())
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} Mbit/s", self.mbps())
        } else {
            write!(f, "{:.0} bit/s", self.0)
        }
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

/// A size of data, stored as bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct DataSize(u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// From bytes.
    pub const fn from_bytes(b: u64) -> Self {
        DataSize(b)
    }

    /// From binary kilobytes (KiB; the paper's "64 KByte MTU").
    pub const fn from_kib(k: u64) -> Self {
        DataSize(k * 1024)
    }

    /// From binary megabytes (MiB; the paper's "1 MByte or more" HiPPI
    /// blocks).
    pub const fn from_mib(m: u64) -> Self {
        DataSize(m * 1024 * 1024)
    }

    /// Bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Bits.
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Binary kilobytes as `f64`.
    pub fn kib(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(other.0))
    }

    /// The smaller of two sizes.
    pub fn min(self, other: DataSize) -> DataSize {
        DataSize(self.0.min(other.0))
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{} MiB", self.0 / (1024 * 1024))
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{} KiB", self.0 / 1024)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Throughput achieved when `size` is moved in `elapsed`.
pub fn throughput(size: DataSize, elapsed: SimDuration) -> Bandwidth {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return Bandwidth::from_bps(f64::INFINITY);
    }
    Bandwidth::from_bps(size.bits() as f64 / secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rates() {
        assert!((Bandwidth::OC3.mbps() - 155.52).abs() < 1e-9);
        assert!((Bandwidth::OC12.mbps() - 622.08).abs() < 1e-9);
        assert!((Bandwidth::OC48.gbps() - 2.48832).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::from_mbytes_per_sec(30.0); // TRACE->PARTRACE
        assert!((b.mbps() - 240.0).abs() < 1e-9);
        assert_eq!(Bandwidth::from_gbps(2.4).bps(), 2.4e9);
    }

    #[test]
    fn size_conversions() {
        assert_eq!(DataSize::from_kib(64).bytes(), 65536);
        assert_eq!(DataSize::from_mib(1).bytes(), 1 << 20);
        assert_eq!(DataSize::from_bytes(53).bits(), 424);
    }

    #[test]
    fn time_for_and_throughput_are_inverse() {
        let size = DataSize::from_mib(8);
        let t = Bandwidth::OC12.time_for(size);
        let tp = throughput(size, t);
        assert!((tp.bps() - Bandwidth::OC12.bps()).abs() / Bandwidth::OC12.bps() < 1e-6);
    }

    #[test]
    fn min_and_scale() {
        assert_eq!(Bandwidth::OC3.min(Bandwidth::OC12), Bandwidth::OC3);
        assert!((Bandwidth::OC12.scaled(0.5).mbps() - 311.04).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Bandwidth::OC48), "2.488 Gbit/s");
        assert_eq!(format!("{}", Bandwidth::from_mbps(155.0)), "155.0 Mbit/s");
        assert_eq!(format!("{}", DataSize::from_kib(64)), "64 KiB");
        assert_eq!(format!("{}", DataSize::from_bytes(53)), "53 B");
    }
}
