//! The Cray T3E machine model that regenerates Table 1.
//!
//! Each FIRE module's runtime on `p` PEs is modelled as
//!
//! ```text
//! t(p) = serial·s^(2/3) + parallel·s / p + comm·log2(p)·s^(2/3)
//! ```
//!
//! where `s` is the image size relative to the paper's 64×64×16 matrix:
//! the per-voxel work parallelizes perfectly, while the serial part
//! (parameter broadcast, result assembly) and the per-tree-step
//! communication scale with the surface/boundary (`s^(2/3)`). The three
//! coefficients per module are calibrated once against the 1-PE column of
//! Table 1 plus the large-p plateau; every other entry of the table —
//! and its characteristic shape (near-linear speedup through 64 PEs,
//! efficiency decay beyond 128, the motion-correction floor at ~0.35 s)
//! — is then a *prediction* of the model. The "larger images take more
//! time, but achieve better speedups" remark also falls out of the
//! `s` vs `s^(2/3)` split.

use gtw_scan::volume::Dims;

/// Cost coefficients of one module at the reference image size.
#[derive(Clone, Copy, Debug)]
pub struct ModuleCost {
    /// Perfectly parallel seconds on one PE.
    pub parallel_s: f64,
    /// Non-parallelizable seconds.
    pub serial_s: f64,
    /// Communication seconds per log2(p) tree step.
    pub comm_log_s: f64,
}

impl ModuleCost {
    /// Time on `p` PEs for an image `scale` times the reference size.
    pub fn time(&self, pes: usize, scale: f64) -> f64 {
        assert!(pes >= 1, "need at least one PE");
        let surface = scale.powf(2.0 / 3.0);
        let comm = if pes > 1 { self.comm_log_s * (pes as f64).log2() * surface } else { 0.0 };
        self.serial_s * surface + self.parallel_s * scale / pes as f64 + comm
    }
}

/// One row of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// Number of processing elements.
    pub pes: usize,
    /// Spatial-filter time, seconds.
    pub filter_s: f64,
    /// Motion-correction time, seconds.
    pub motion_s: f64,
    /// RVO time, seconds.
    pub rvo_s: f64,
    /// Total time, seconds.
    pub total_s: f64,
    /// Speedup relative to 1 PE.
    pub speedup: f64,
}

/// The calibrated machine model.
#[derive(Clone, Copy, Debug)]
pub struct T3eModel {
    /// Spatial filter (median + averaging) coefficients.
    pub filter: ModuleCost,
    /// Motion-correction coefficients.
    pub motion: ModuleCost,
    /// RVO coefficients.
    pub rvo: ModuleCost,
}

impl T3eModel {
    /// The T3E-600 of the paper (300 MHz Alpha 21164 PEs), calibrated to
    /// Table 1's 1-PE column: filter 0.18 s, motion correction 1.55 s,
    /// RVO 109.27 s for a 64×64×16 image.
    pub fn t3e_600() -> Self {
        T3eModel {
            filter: ModuleCost { parallel_s: 0.175, serial_s: 0.005, comm_log_s: 0.004 },
            motion: ModuleCost { parallel_s: 1.27, serial_s: 0.28, comm_log_s: 0.008 },
            rvo: ModuleCost { parallel_s: 109.22, serial_s: 0.05, comm_log_s: 0.02 },
        }
    }

    /// The T3E-1200 (600 MHz): compute runs ~1.9× faster, the torus is
    /// unchanged.
    pub fn t3e_1200() -> Self {
        let base = Self::t3e_600();
        let speed = |m: ModuleCost| ModuleCost {
            parallel_s: m.parallel_s / 1.9,
            serial_s: m.serial_s / 1.9,
            comm_log_s: m.comm_log_s,
        };
        T3eModel { filter: speed(base.filter), motion: speed(base.motion), rvo: speed(base.rvo) }
    }

    /// Image size relative to the paper's 64×64×16 reference.
    pub fn scale_for(dims: Dims) -> f64 {
        dims.len() as f64 / Dims::EPI.len() as f64
    }

    /// Per-module and total time on `p` PEs for a given image size.
    pub fn row(&self, pes: usize, dims: Dims) -> Table1Row {
        let s = Self::scale_for(dims);
        let filter_s = self.filter.time(pes, s);
        let motion_s = self.motion.time(pes, s);
        let rvo_s = self.rvo.time(pes, s);
        let total_s = filter_s + motion_s + rvo_s;
        let total_1 = self.filter.time(1, s) + self.motion.time(1, s) + self.rvo.time(1, s);
        Table1Row { pes, filter_s, motion_s, rvo_s, total_s, speedup: total_1 / total_s }
    }

    /// The full Table 1 (PEs 1..256 in powers of two) at the reference
    /// image size.
    pub fn table1(&self) -> Vec<Table1Row> {
        [1usize, 2, 4, 8, 16, 32, 64, 128, 256].iter().map(|&p| self.row(p, Dims::EPI)).collect()
    }
}

/// The values printed in the paper's Table 1, for comparison in tests,
/// benches and EXPERIMENTS.md: `(pes, filter, motion, rvo, total,
/// speedup)`.
pub const PAPER_TABLE1: [(usize, f64, f64, f64, f64, f64); 9] = [
    (1, 0.18, 1.55, 109.27, 111.00, 1.0),
    (2, 0.09, 0.91, 54.65, 55.65, 2.0),
    (4, 0.05, 0.56, 27.36, 27.97, 4.0),
    (8, 0.03, 0.46, 13.74, 14.23, 7.8),
    (16, 0.02, 0.35, 6.93, 7.30, 15.2),
    (32, 0.02, 0.33, 3.51, 3.86, 28.7),
    (64, 0.03, 0.35, 1.85, 2.22, 50.0),
    (128, 0.03, 0.34, 1.00, 1.37, 81.1),
    (256, 0.04, 0.40, 0.59, 1.01, 110.5),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pe_column_matches_calibration() {
        let m = T3eModel::t3e_600();
        let r = m.row(1, Dims::EPI);
        assert!((r.filter_s - 0.18).abs() < 0.005, "filter {}", r.filter_s);
        assert!((r.motion_s - 1.55).abs() < 0.005, "motion {}", r.motion_s);
        assert!((r.rvo_s - 109.27).abs() < 0.01, "rvo {}", r.rvo_s);
        assert!((r.total_s - 111.0).abs() < 0.02, "total {}", r.total_s);
        assert!((r.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn model_tracks_paper_table_shape() {
        // Every total within 10 % of the paper's measurement, every
        // speedup within 10 %.
        let m = T3eModel::t3e_600();
        for &(pes, _, _, _, total, speedup) in &PAPER_TABLE1 {
            let r = m.row(pes, Dims::EPI);
            let terr = (r.total_s - total).abs() / total;
            let serr = (r.speedup - speedup).abs() / speedup;
            assert!(terr < 0.10, "p={pes}: total {} vs paper {total}", r.total_s);
            assert!(serr < 0.10, "p={pes}: speedup {} vs paper {speedup}", r.speedup);
        }
    }

    #[test]
    fn rvo_dominates_at_all_pe_counts() {
        let m = T3eModel::t3e_600();
        for r in m.table1() {
            assert!(r.rvo_s > r.filter_s, "p={}", r.pes);
            assert!(r.rvo_s > r.motion_s * 0.9, "p={}", r.pes);
        }
    }

    #[test]
    fn motion_correction_floors() {
        // The paper's motion column flattens around 0.33-0.40 s from
        // 16 PEs on: the serial fraction binds.
        let m = T3eModel::t3e_600();
        for &p in &[32usize, 64, 128, 256] {
            let r = m.row(p, Dims::EPI);
            assert!(r.motion_s > 0.28 && r.motion_s < 0.45, "p={p}: {}", r.motion_s);
        }
    }

    #[test]
    fn larger_images_better_speedup() {
        // "Larger images take more time, but achieve better speedups."
        let m = T3eModel::t3e_600();
        let small = m.row(256, Dims::EPI);
        let big = m.row(256, Dims::new(128, 128, 32));
        assert!(big.total_s > small.total_s);
        assert!(big.speedup > small.speedup * 1.3, "{} vs {}", big.speedup, small.speedup);
    }

    #[test]
    fn t3e_1200_is_faster_but_communication_bound_sooner() {
        let slow = T3eModel::t3e_600();
        let fast = T3eModel::t3e_1200();
        let r600 = slow.row(64, Dims::EPI);
        let r1200 = fast.row(64, Dims::EPI);
        assert!(r1200.total_s < r600.total_s);
        // Relative comm share grows, so speedup at high p is lower.
        assert!(fast.row(256, Dims::EPI).speedup < slow.row(256, Dims::EPI).speedup);
    }

    #[test]
    fn speedup_monotone_through_256() {
        let m = T3eModel::t3e_600();
        let rows = m.table1();
        for w in rows.windows(2) {
            assert!(w[1].speedup > w[0].speedup, "p={} -> {}", w[0].pes, w[1].pes);
        }
    }

    #[test]
    fn efficiency_decays_at_high_pe_counts() {
        let m = T3eModel::t3e_600();
        let eff = |p: usize| m.row(p, Dims::EPI).speedup / p as f64;
        assert!(eff(8) > 0.9);
        assert!(eff(256) < 0.55);
        assert!(eff(64) > eff(256));
    }
}
