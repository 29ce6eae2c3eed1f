//! SDH/SONET framing: line rate vs usable payload rate.
//!
//! The testbed's WAN was carried on SDH: STM-4 (OC-12, 622 Mbit/s) in the
//! first year, upgraded to STM-16 (OC-48, 2.4 Gbit/s) in August 1998. SDH
//! spends a fixed fraction of the line rate on section/path overhead; the
//! ATM cell stream rides in the C-4 container.

use crate::units::Bandwidth;

/// An SDH line level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StmLevel {
    /// STM-1 / OC-3: 155.52 Mbit/s line.
    Stm1,
    /// STM-4 / OC-12: 622.08 Mbit/s line (testbed year one).
    Stm4,
    /// STM-16 / OC-48: 2488.32 Mbit/s line (the 2.4 Gbit/s upgrade).
    Stm16,
}

impl StmLevel {
    /// Multiplex factor N of STM-N.
    pub fn factor(self) -> u32 {
        match self {
            StmLevel::Stm1 => 1,
            StmLevel::Stm4 => 4,
            StmLevel::Stm16 => 16,
        }
    }

    /// Payload (C-4 / C-4-Nc container) rate available to the ATM cell
    /// stream: 260·N of the 270·N columns of an STM-N frame (9 rows of
    /// bytes at 8000 frames/s; the gross line rate is `Bandwidth::OC3`,
    /// `OC12`, `OC48`).
    pub fn payload_rate(self) -> Bandwidth {
        let n = self.factor() as f64;
        Bandwidth::from_bps(9.0 * 260.0 * n * 8000.0 * 8.0)
    }

    /// ATM cells per second the container can carry.
    pub fn cell_rate(self) -> f64 {
        self.payload_rate().bps() / (53.0 * 8.0)
    }

    /// Peak user-payload rate after both SDH and ATM cell tax (48 of every
    /// 53 payload-container bytes).
    pub fn atm_payload_rate(self) -> Bandwidth {
        Bandwidth::from_bps(self.cell_rate() * 48.0 * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rates_match_standards() {
        // An STM-N line carries 270·N columns of which the container gets
        // 260·N: each level's payload is 26/27 of its OC-N line constant.
        let levels = [
            (StmLevel::Stm1, 1, Bandwidth::OC3),
            (StmLevel::Stm4, 4, Bandwidth::OC12),
            (StmLevel::Stm16, 16, Bandwidth::OC48),
        ];
        for (lvl, n, line) in levels {
            assert_eq!(lvl.factor(), n);
            assert!((lvl.payload_rate().bps() - line.bps() * 260.0 / 270.0).abs() < 1e-3);
        }
    }

    #[test]
    fn payload_rates_match_standards() {
        assert!((StmLevel::Stm1.payload_rate().mbps() - 149.76).abs() < 1e-6);
        assert!((StmLevel::Stm4.payload_rate().mbps() - 599.04).abs() < 1e-6);
        assert!((StmLevel::Stm16.payload_rate().mbps() - 2396.16).abs() < 1e-6);
    }

    #[test]
    fn cell_rate_stm1() {
        // Classic number: ~353 207 cells/s on STM-1.
        assert!((StmLevel::Stm1.cell_rate() - 353_207.5).abs() < 1.0);
    }

    #[test]
    fn atm_payload_rate_under_line_rate() {
        let levels = [
            (StmLevel::Stm1, Bandwidth::OC3),
            (StmLevel::Stm4, Bandwidth::OC12),
            (StmLevel::Stm16, Bandwidth::OC48),
        ];
        for (lvl, line) in levels {
            let p = lvl.atm_payload_rate().bps();
            let l = line.bps();
            assert!(p < l);
            // Combined SDH+ATM tax is ~12.8 %.
            assert!((p / l - 0.872).abs() < 0.01, "{}", p / l);
        }
    }
}
