//! RVO's outputs, pinned: delay, dispersion and correlation bits plus
//! `evaluations`, as one FNV-1a digest per case. The constants were
//! captured on the commit before the raster became a register-blocked
//! product (one serial dot product per voxel and raster point), so any
//! kernel change that moves one bit of one voxel, or one evaluation, at
//! any thread count fails here.

use gtw_fire::rvo::{intensity_mask, optimize, RvoBounds, RvoMethod, RvoResult};
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::Stimulus;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::{Dims, Volume};

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(fit: &RvoResult) -> u64 {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for map in [&fit.delay, &fit.dispersion, &fit.correlation] {
        map.data.iter().for_each(|v| fnv.bytes(&v.to_bits().to_le_bytes()));
    }
    fnv.bytes(&fit.evaluations.to_le_bytes());
    fnv.0
}

/// A paper-default scanner series of `scans` volumes at `dims`.
fn series(dims: Dims, scans: usize, seed: u64) -> (Vec<Volume>, Stimulus) {
    let mut cfg = ScannerConfig::paper_default(scans, seed);
    cfg.dims = dims;
    let scanner = Scanner::new(cfg, Phantom::standard());
    ((0..scans).map(|t| scanner.acquire(t)).collect(), scanner.config().stimulus.clone())
}

/// `optimize` at every width must give `pinned`.
fn assert_pinned(
    what: &str,
    (series, stimulus): &(Vec<Volume>, Stimulus),
    method: RvoMethod,
    mask: Option<&[bool]>,
    pinned: u64,
) {
    for width in WIDTHS {
        let fit = gtw_par::with_threads(width, || {
            optimize(series, stimulus, RvoBounds::default(), method, mask)
        });
        let got = digest(&fit);
        assert_eq!(got, pinned, "{what} at {width} threads: digest {got:#018x}");
    }
}

#[test]
fn small_series_is_pinned_with_and_without_a_mask() {
    let small = series(Dims::new(32, 32, 8), 24, 1999);
    let mask = intensity_mask(&small.0[0], 100.0);
    assert!(mask.iter().any(|&m| m) && mask.iter().any(|&m| !m), "the mask must cut");
    let grid = RvoMethod::paper_grid();
    assert_pinned("paper_grid", &small, grid, None, 0x7e85_2eca_194f_307d);
    assert_pinned("paper_grid, masked", &small, grid, Some(&mask), 0xaf49_cf1e_36c8_516e);
}

/// The `fire_rvo` benchmark's op: the 13×7 raster over 32 scans of
/// 64×64×16, no mask.
#[test]
fn paper_size_series_is_pinned_at_two_seeds() {
    for (seed, pinned) in [(1999, 0xd092_0f51_1e05_4091), (2026, 0x5934_4887_eee0_1c83)] {
        let big = series(Dims::EPI, 32, seed);
        assert_pinned(
            &format!("64x64x16 seed {seed}"),
            &big,
            RvoMethod::paper_grid(),
            None,
            pinned,
        );
    }
}
