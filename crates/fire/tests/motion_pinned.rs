//! Motion correction, pinned: every bit the movement-correction fit and
//! `RigidTransform::resample` produce, as FNV-1a digests. The pipeline
//! digests cover 24 paper-default scans (64×64×16, median filter, motion
//! correction, correlation) at two scanner seeds: each corrected volume,
//! each per-scan correlation map and each `motion_log` entry (parameter
//! bits, `iterations`, `residual_rms` bits). The resample digests cover
//! four transforms on a ragged volume, two of them pushing samples past
//! every face. The constants were captured on the commit before the
//! trilinear sampler read a lane of points at a time, so a change that
//! moves one bit of one voxel, or one iteration count, at any thread
//! count fails here.

use gtw_fire::{FireConfig, FirePipeline};
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::motion::RigidTransform;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::{Dims, Volume};

const WIDTHS: [usize; 4] = [1, 2, 3, 8];
const SCANS: usize = 24;

/// `(scanner seed, digest)` of the per-scan path.
const PIPELINE: [(u64, u64); 2] = [(1999, 0x2869_46d8_c78d_575d), (2026, 0x312b_5abc_d2c7_ca8a)];

/// Digests of `resample` through the four transforms of
/// [`resample_cases`], in order.
const RESAMPLE: [u64; 4] =
    [0xddaf_fafc_ccab_9cf3, 0x8864_50cb_0186_12b3, 0x7280_d279_8fce_9bf9, 0x50dc_3c5d_d130_3321];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn volume(&mut self, v: &Volume) {
        v.data.iter().for_each(|x| self.word(x.to_bits()));
    }
}

/// A paper-default scanner series and its reference vector.
fn series(seed: u64) -> (Vec<Volume>, ReferenceVector) {
    let scanner = Scanner::new(ScannerConfig::paper_default(SCANS, seed), Phantom::standard());
    let reference = ReferenceVector::canonical(&scanner.config().stimulus);
    ((0..SCANS).map(|t| scanner.acquire(t)).collect(), reference)
}

fn pipeline_digest((scans, reference): &(Vec<Volume>, ReferenceVector)) -> u64 {
    let mut pipeline = FirePipeline::new(FireConfig::default(), Dims::EPI, reference.clone());
    let mut fnv = Fnv::new();
    for raw in scans {
        let image = pipeline.process(raw);
        fnv.volume(&image.corrected);
        fnv.volume(&image.correlation);
    }
    assert_eq!(pipeline.motion_log.len(), SCANS - 1);
    for est in &pipeline.motion_log {
        est.transform.params().iter().for_each(|p| fnv.word(p.to_bits()));
        fnv.word(est.iterations as u32);
        fnv.word(est.residual_rms.to_bits());
    }
    fnv.0
}

#[test]
fn motion_correction_digest_is_pinned_at_every_width() {
    for (seed, pinned) in PIPELINE {
        let series = series(seed);
        for width in WIDTHS {
            let got = gtw_par::with_threads(width, || pipeline_digest(&series));
            assert_eq!(got, pinned, "seed {seed} at {width} threads: digest {got:#018x}");
        }
    }
}

/// A 17×13×9 volume (rows of 17: two lanes of 8 and a ragged one) of
/// hashed values with a smooth ramp under them.
fn ragged_volume() -> Volume {
    let dims = Dims::new(17, 13, 9);
    let data = (0..dims.len() as u32)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9).rotate_left(13) >> 16;
            i as f32 * 0.25 + h as f32 / 4096.0
        })
        .collect();
    Volume::from_vec(dims, data)
}

/// Identity, a small head motion, a large rotation that pulls samples
/// from past every face, and a shift larger than the volume that pulls
/// every sample from outside it.
fn resample_cases() -> [RigidTransform; 4] {
    [
        RigidTransform::IDENTITY,
        RigidTransform { rx: 0.02, ry: -0.015, rz: 0.01, tx: 0.4, ty: -0.3, tz: 0.2 },
        RigidTransform::rotation(0.9, -0.7, 1.1),
        RigidTransform { rx: -0.4, ry: 0.5, rz: -0.6, tx: -21.5, ty: 15.25, tz: -11.75 },
    ]
}

/// The sample points `t` pulls the voxels of `dims` from.
fn pulled_from(t: &RigidTransform, dims: Dims) -> impl Iterator<Item = [f32; 3]> + '_ {
    (0..dims.len()).map(move |idx| {
        let (x, y, z) = dims.coords(idx);
        let (sx, sy, sz) = t.apply_point((x as f32, y as f32, z as f32), dims.centre());
        [sx, sy, sz]
    })
}

#[test]
fn resample_digests_are_pinned_at_every_width() {
    let vol = ragged_volume();
    let last = [vol.dims.nx, vol.dims.ny, vol.dims.nz].map(|n| (n - 1) as f32);
    let outside = |s: [f32; 3], a: usize| s[a] < 0.0 || s[a] > last[a];
    let [.., rotation, shift] = resample_cases();
    for a in 0..3 {
        assert!(pulled_from(&rotation, vol.dims).any(|s| s[a] < 0.0), "axis {a}: low face");
        assert!(pulled_from(&rotation, vol.dims).any(|s| s[a] > last[a]), "axis {a}: high face");
    }
    assert!(pulled_from(&shift, vol.dims).all(|s| (0..3).any(|a| outside(s, a))));
    for (case, (t, pinned)) in resample_cases().iter().zip(RESAMPLE).enumerate() {
        for width in WIDTHS {
            let mut fnv = Fnv::new();
            fnv.volume(&gtw_par::with_threads(width, || t.resample(&vol)));
            let got = fnv.0;
            assert_eq!(got, pinned, "case {case} at {width} threads: digest {got:#018x}");
        }
    }
}
