//! The setup-time generators, pinned: every bit `Phantom::{anatomy,
//! activation_map, truth_mask}` produce at the EPI matrix, at 64×64×32
//! and at the workbench's 256×256×128, and every bit of all 64 volumes a
//! paper-default `Scanner` acquires at two seeds, as FNV-1a digests over
//! `to_bits`. The constants were captured on the commit before the
//! phantom skipped air and texture-free tissue and the scanner drew its
//! noise slab-parallel, so a change that moves one bit of one voxel at
//! any thread count fails here.

use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::{Dims, Volume};

const WIDTHS: [usize; 3] = [1, 2, 3];
const SCANS: usize = 64;
/// The truth-mask threshold the benchmark's detection check uses.
const THRESHOLD: f32 = 0.025;

/// `(dims, [anatomy, activation_map, truth_mask] digests)`.
const PHANTOM: [([usize; 3], [u64; 3]); 3] = [
    ([64, 64, 16], [0x549d_c498_3741_646f, 0xa47b_8512_3a4e_111e, 0xdc8a_0291_5f41_df85]),
    ([64, 64, 32], [0xd960_cf81_b959_37bc, 0x40f3_0ebc_cda8_d643, 0x671a_114b_4924_a68a]),
    ([256, 256, 128], [0xe652_369b_01e1_d6ea, 0xf0db_95c7_dabf_af5b, 0x081f_571c_c32c_539b]),
];

/// `(scanner seed, digest of all 64 volumes in order)`.
const ACQUIRE: [(u64, u64); 2] = [(1999, 0x0a6c_dcc3_f5f5_0921), (2026, 0x5d35_1aec_7e5f_fdb3)];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn volume(&mut self, v: &Volume) {
        v.data.iter().for_each(|x| self.bytes(&x.to_bits().to_le_bytes()));
    }
}

fn volume_digest(v: &Volume) -> u64 {
    let mut fnv = Fnv::new();
    fnv.volume(v);
    fnv.0
}

#[test]
fn phantom_volumes_are_pinned_at_every_width() {
    let phantom = Phantom::standard();
    for &([nx, ny, nz], [anatomy, activation, truth]) in &PHANTOM {
        let dims = Dims::new(nx, ny, nz);
        for width in WIDTHS {
            gtw_par::with_threads(width, || {
                let got = volume_digest(&phantom.anatomy(dims));
                assert_eq!(got, anatomy, "anatomy {dims:?} at {width} threads: {got:#x}");
                let got = volume_digest(&phantom.activation_map(dims));
                assert_eq!(got, activation, "activation {dims:?} at {width} threads: {got:#x}");
                let mut fnv = Fnv::new();
                phantom.truth_mask(dims, THRESHOLD).iter().for_each(|&b| fnv.bytes(&[b as u8]));
                assert_eq!(fnv.0, truth, "truth mask {dims:?} at {width} threads: {:#x}", fnv.0);
            });
        }
    }
}

#[test]
fn acquired_volumes_are_pinned_at_every_width() {
    for &(seed, pinned) in &ACQUIRE {
        let scanner = Scanner::new(ScannerConfig::paper_default(SCANS, seed), Phantom::standard());
        for width in WIDTHS {
            let got = gtw_par::with_threads(width, || {
                let mut fnv = Fnv::new();
                (0..SCANS).for_each(|t| fnv.volume(&scanner.acquire(t)));
                fnv.0
            });
            assert_eq!(got, pinned, "seed {seed} at {width} threads: {got:#x}");
        }
    }
}
