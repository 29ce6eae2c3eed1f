//! The whole per-scan path, pinned: acquisition → median filter →
//! movement correction → correlation, and the final detrended map, as
//! one FNV-1a digest over every output bit. The constant was captured
//! before the median network, the matrix-form transform and the fused
//! motion fit replaced the per-voxel kernels; any kernel change that
//! moves one bit of one voxel at any thread count fails here.

use gtw_fire::{FireConfig, FirePipeline};
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::{Dims, Volume};

const PINNED: u64 = 0x2962_14ab_899e_0868;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn volume(&mut self, v: &Volume) {
        v.data.iter().for_each(|x| self.word(x.to_bits()));
    }
}

fn digest() -> u64 {
    const SCANS: usize = 16;
    let mut cfg = ScannerConfig::paper_default(SCANS, 1999);
    cfg.dims = Dims::new(32, 32, 8);
    let scanner = Scanner::new(cfg, Phantom::standard());
    let reference = ReferenceVector::canonical(&scanner.config().stimulus);
    let mut pipeline = FirePipeline::new(FireConfig::default(), scanner.config().dims, reference);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for t in 0..SCANS {
        let image = pipeline.process(&scanner.acquire(t));
        fnv.volume(&image.corrected);
        fnv.volume(&image.correlation);
        for p in image.motion.map_or([0.0; 6], |m| m.params()) {
            fnv.word(p.to_bits());
        }
    }
    assert_eq!(pipeline.motion_log.len(), SCANS - 1);
    for est in &pipeline.motion_log {
        fnv.word(est.iterations as u32);
        fnv.word(est.residual_rms.to_bits());
    }
    fnv.volume(&pipeline.correlation_map());
    fnv.0
}

#[test]
fn scan_path_digest_is_pinned_at_every_width() {
    for width in [1usize, 2, 3, 8] {
        let got = gtw_par::with_threads(width, digest);
        assert_eq!(got, PINNED, "{width} threads: digest {got:#018x}");
    }
}
