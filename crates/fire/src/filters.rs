//! Spatial filters: "a median filter is used to reduce noise in the
//! unprocessed picture. After the processing pipeline, the data can be
//! smoothened by an averaging filter."
//!
//! Both operate on a 3×3×3 neighbourhood with edge clamping, and both
//! run one z-slab per `gtw_par::for_each` item: every output voxel is
//! written by exactly one call, so the result is bit-identical at any
//! thread count.
//!
//! Both are vectorised across x. Per output row the nine edge-clamped
//! source rows are copied once into x-padded buffers, so neighbour `k`
//! of every voxel of the row is one contiguous, shifted slice. The
//! average adds the 27 slices into the output row; the median takes a
//! block of neighbouring voxels at a time and runs each selection step
//! on all its lanes at once: 16 in one AVX-512F register where the CPU
//! has it (`vminps`/`vmaxps`), else 8 (`[f32; 8]` loops, which LLVM turns
//! into SSE `minps`/`maxps`). The instance is chosen once per call.
//!
//! **Median.** [`median27`] is a selection network of compare-exchanges
//! (`if b < a { swap }`) run by *forgetful selection*: of any 15 of the
//! 27 values the smallest has at least 14 values above it and the
//! largest 14 below, so neither is the median (rank 13); drop both, admit
//! the next input, and repeat on 14, 13, … 3 values. A compare-exchange
//! only permutes its two inputs, so the network returns one of the 27
//! input values unchanged, and it is the value a sort would leave at
//! rank 13: the same bits the old per-voxel `select_nth_unstable` gave
//! (where +0.0 and -0.0 tie, either may come out; they compare equal).
//!
//! **NaN.** `b < a` is false when either side is NaN, so a NaN is never
//! moved and nothing panics. A voxel whose neighbourhood holds a NaN
//! gets *some* value of that neighbourhood (possibly the NaN); every
//! other voxel is exact. The averaging filter propagates NaN as any sum
//! does.

use gtw_scan::volume::Volume;

/// Output voxels per step of the median network, one per lane; rows are
/// padded to whole blocks of the AVX-512F instance's [`WIDE_LANES`].
const LANES: usize = 8;
const WIDE_LANES: usize = 16;
type Lanes = [f32; LANES];

/// 3×3×3 median filter (the FIRE noise-reduction module).
pub fn median_filter(vol: &Volume) -> Volume {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: this CPU reported AVX-512F, the instance's one feature.
        return filter_rows(vol, |rows, out_row| unsafe { median_row_avx512(rows, out_row) });
    }
    filter_rows(vol, median_row_baseline)
}

/// 3×3×3 averaging (boxcar) filter (the FIRE smoothing module).
pub fn average_filter(vol: &Volume) -> Volume {
    // Each voxel adds its 27 values in neighbourhood order, starting from
    // the first: what `iter().sum()` over the neighbourhood computes.
    filter_rows(vol, |rows, out_row| {
        out_row.copy_from_slice(&rows.shifted(0)[..out_row.len()]);
        for k in 1..27 {
            for (sum, v) in out_row.iter_mut().zip(rows.shifted(k)) {
                *sum += v;
            }
        }
        out_row.iter_mut().for_each(|sum| *sum /= 27.0);
    })
}

/// The baseline instance of the median: [`LANES`] voxels a step.
fn median_row_baseline(rows: &PaddedRows, out_row: &mut [f32]) {
    for (block, out) in out_row.chunks_mut(LANES).enumerate() {
        let m = median27(|k| *rows.block::<LANES>(k, block), &|a: Lanes, b: Lanes| {
            let (mut lo, mut hi) = (a, b);
            for l in 0..LANES {
                let swap = b[l] < a[l];
                lo[l] = if swap { b[l] } else { a[l] };
                hi[l] = if swap { a[l] } else { b[l] };
            }
            (lo, hi)
        });
        out.copy_from_slice(&m[..out.len()]);
    }
}

/// The AVX-512F instance: [`WIDE_LANES`] voxels a step. `vminps(b, a)`
/// is `b < a ? b : a` and `vmaxps(a, b)` is `a > b ? a : b`, lane by
/// lane: the baseline's exchange exactly, NaN payloads and ±0 included,
/// since both return their second operand unless the comparison holds.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn median_row_avx512(rows: &PaddedRows, out_row: &mut [f32]) {
    use std::arch::x86_64::*;
    for (block, out) in out_row.chunks_mut(WIDE_LANES).enumerate() {
        // SAFETY: a block is 16 readable `f32`s; `loadu` needs no alignment.
        let load = |k| unsafe { _mm512_loadu_ps(rows.block::<WIDE_LANES>(k, block).as_ptr()) };
        let m = median27(load, &|a, b| (_mm512_min_ps(b, a), _mm512_max_ps(a, b)));
        // SAFETY: the mask writes the first `out.len()` ≤ 16 lanes, all in `out`.
        unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr(), ((1u32 << out.len()) - 1) as u16, m) };
    }
}

/// Order lanes of `w[i]` and `w[j]` so that `w[i] <= w[j]` in each.
#[inline(always)]
fn compare_exchange<T: Copy>(w: &mut [T; 15], i: usize, j: usize, cx: &impl Fn(T, T) -> (T, T)) {
    (w[i], w[j]) = cx(w[i], w[j]);
}

/// One round of forgetful selection on `w[..N]`: move the minimum to
/// `w[0]` and the maximum to `w[N - 1]`, then forget both: `new` takes
/// the minimum's place and the next round is one shorter. `N` is a
/// constant so that every index is one and `w` can live in registers.
#[inline(always)]
fn forget_extremes<const N: usize, T: Copy>(w: &mut [T; 15], new: T, cx: &impl Fn(T, T) -> (T, T)) {
    // Pair the ends inwards: every pair's smaller value goes left, so
    // the minimum is in the left half and the maximum in the right.
    for i in 0..N / 2 {
        compare_exchange(w, i, N - 1 - i, cx);
    }
    // An odd N's middle value plays in both halves.
    for i in 1..N.div_ceil(2) {
        compare_exchange(w, 0, i, cx);
        compare_exchange(w, N - 1 - i, N - 1, cx);
    }
    w[0] = new;
}

/// Per lane, the median (rank 13) of `vals(0..27)`; see the module docs.
/// `cx` returns `(min, max)` lane by lane, as `if b < a { swap }` would.
#[inline(always)]
fn median27<T: Copy>(vals: impl Fn(usize) -> T, cx: &impl Fn(T, T) -> (T, T)) -> T {
    let mut w = [vals(0); 15];
    for (i, w) in w.iter_mut().enumerate().skip(1) {
        *w = vals(i);
    }
    forget_extremes::<15, T>(&mut w, vals(15), cx);
    forget_extremes::<14, T>(&mut w, vals(16), cx);
    forget_extremes::<13, T>(&mut w, vals(17), cx);
    forget_extremes::<12, T>(&mut w, vals(18), cx);
    forget_extremes::<11, T>(&mut w, vals(19), cx);
    forget_extremes::<10, T>(&mut w, vals(20), cx);
    forget_extremes::<9, T>(&mut w, vals(21), cx);
    forget_extremes::<8, T>(&mut w, vals(22), cx);
    forget_extremes::<7, T>(&mut w, vals(23), cx);
    forget_extremes::<6, T>(&mut w, vals(24), cx);
    forget_extremes::<5, T>(&mut w, vals(25), cx);
    forget_extremes::<4, T>(&mut w, vals(26), cx);
    compare_exchange(&mut w, 0, 1, cx);
    compare_exchange(&mut w, 1, 2, cx);
    compare_exchange(&mut w, 0, 1, cx);
    w[1]
}

/// The nine edge-clamped source rows around one output row, each padded
/// along x: the clamped voxel x = -1, the nx voxels, then the clamped
/// x = nx repeated to the end of a whole last block of [`WIDE_LANES`].
struct PaddedRows {
    buf: Vec<f32>,
    stride: usize,
}

impl PaddedRows {
    /// Neighbour `k` (z-major, then y, then x) of every voxel of the
    /// output row: element `x` is neighbour `k` of voxel `x`.
    #[inline(always)]
    fn shifted(&self, k: usize) -> &[f32] {
        &self.buf[(k / 3) * self.stride + k % 3..][..self.stride - 2]
    }

    /// Block `b` of `N` lanes of neighbour `k` (rows pad to whole blocks).
    #[inline(always)]
    fn block<const N: usize>(&self, k: usize, b: usize) -> &[f32; N] {
        self.shifted(k)[b * N..][..N].try_into().expect("a padded row ends on a whole block")
    }
}

/// Shared kernel driver: `kernel` fills one output row from its padded
/// source rows. Parallel over z-slabs on `gtw-par` scoped threads (each
/// slab is one "PE"'s work in the domain decomposition).
fn filter_rows(vol: &Volume, kernel: impl Fn(&PaddedRows, &mut [f32]) + Sync) -> Volume {
    let d = vol.dims;
    let mut out = Volume::zeros(d);
    if d.is_empty() {
        return out;
    }
    let stride = d.nx.next_multiple_of(WIDE_LANES) + 2;
    gtw_par::for_each(out.data.chunks_mut(d.nx * d.ny).enumerate(), |(z, out_slab)| {
        let mut rows = PaddedRows { buf: vec![0.0f32; 9 * stride], stride };
        for (y, out_row) in out_slab.chunks_mut(d.nx).enumerate() {
            for (r, padded) in rows.buf.chunks_mut(stride).enumerate() {
                let zz = (z + r / 3).saturating_sub(1).min(d.nz - 1);
                let yy = (y + r % 3).saturating_sub(1).min(d.ny - 1);
                let src = &vol.data[d.index(0, yy, zz)..][..d.nx];
                padded[0] = src[0];
                padded[1..=d.nx].copy_from_slice(src);
                padded[d.nx + 1..].fill(src[d.nx - 1]);
            }
            kernel(&rows, out_row);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::volume::Dims;

    #[test]
    fn median_preserves_constant_volume() {
        let v = Volume::filled(Dims::new(8, 8, 8), 5.0);
        assert_eq!(median_filter(&v), v);
    }

    #[test]
    fn average_preserves_constant_volume() {
        let v = Volume::filled(Dims::new(8, 8, 8), 5.0);
        let a = average_filter(&v);
        for &x in &a.data {
            assert!((x - 5.0).abs() < 1e-5);
        }
    }

    #[test]
    fn median_removes_salt_and_pepper() {
        let d = Dims::new(10, 10, 10);
        let mut v = Volume::filled(d, 100.0);
        // Isolated impulse noise.
        *v.at_mut(5, 5, 5) = 10_000.0;
        *v.at_mut(2, 3, 4) = -10_000.0;
        let m = median_filter(&v);
        assert_eq!(m.at(5, 5, 5), 100.0);
        assert_eq!(m.at(2, 3, 4), 100.0);
    }

    #[test]
    fn average_spreads_an_impulse() {
        let d = Dims::new(9, 9, 9);
        let mut v = Volume::zeros(d);
        *v.at_mut(4, 4, 4) = 27.0;
        let a = average_filter(&v);
        // Impulse energy spreads over the 27 neighbours: each gets 1.0.
        assert!((a.at(4, 4, 4) - 1.0).abs() < 1e-5);
        assert!((a.at(3, 4, 4) - 1.0).abs() < 1e-5);
        assert!((a.at(5, 5, 5) - 1.0).abs() < 1e-5);
        assert_eq!(a.at(0, 0, 0), 0.0);
    }

    #[test]
    fn median_is_idempotent_on_step_edges() {
        // A half-space step: the median filter must not move the edge.
        let d = Dims::new(8, 8, 8);
        let mut v = Volume::zeros(d);
        for z in 0..8 {
            for y in 0..8 {
                for x in 4..8 {
                    *v.at_mut(x, y, z) = 1.0;
                }
            }
        }
        let once = median_filter(&v);
        let twice = median_filter(&once);
        assert_eq!(once, twice);
        assert_eq!(once, v, "median should preserve a clean step edge");
    }

    #[test]
    fn filters_reduce_noise_variance() {
        // Deterministic pseudo-noise around a constant.
        let d = Dims::new(12, 12, 12);
        let mut v = Volume::filled(d, 50.0);
        let mut state = 999u64;
        for x in &mut v.data {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *x += ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
        let var = |vol: &Volume| {
            let m = vol.mean();
            vol.data.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / vol.data.len() as f32
        };
        let v0 = var(&v);
        assert!(var(&median_filter(&v)) < v0 * 0.5);
        assert!(var(&average_filter(&v)) < v0 * 0.2);
    }

    /// A voxel for the instance comparison: a tie-prone small integer,
    /// a NaN with a random sign and payload, ±0, ±∞, a subnormal, or
    /// any bit pattern at all.
    fn awkward_voxel(rng: &mut gtw_desim::StreamRng) -> f32 {
        let bits = rng.next_u64() as u32;
        match rng.below(8) {
            0 => f32::from_bits(bits | 0x7f80_0001),
            1 => [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY][rng.below(4) as usize],
            2 => f32::from_bits(bits & 0x807f_ffff),
            3 => f32::from_bits(bits),
            _ => rng.below(7) as f32 - 3.0,
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_median_instance_filters_alike() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            eprintln!("no AVX-512F on this host: its median instance is not compared");
            return;
        }
        let mut rng = gtw_desim::StreamRng::new(44, "median-instances");
        for nx in [1, 15, 16, 17, 33, 64] {
            for case in 0..35 {
                let d = Dims::new(nx, 1 + rng.below(6) as usize, 1 + rng.below(5) as usize);
                let v =
                    Volume::from_vec(d, (0..d.len()).map(|_| awkward_voxel(&mut rng)).collect());
                let bits = |m: Volume| m.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let baseline = bits(filter_rows(&v, median_row_baseline));
                let wide = bits(filter_rows(&v, |rows, out_row| {
                    // SAFETY: this CPU reported AVX-512F above.
                    unsafe { median_row_avx512(rows, out_row) }
                }));
                assert!(wide == baseline, "{d:?}, case {case}: the AVX-512F median differs");
                assert!(bits(median_filter(&v)) == baseline, "{d:?}, case {case}");
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn every_median_instance_filters_alike() {
        eprintln!("only the baseline median instance exists on this target: nothing compared");
    }

    #[test]
    fn edge_clamping_no_panic_on_thin_volumes() {
        let v = Volume::filled(Dims::new(1, 1, 1), 2.0);
        assert_eq!(median_filter(&v).at(0, 0, 0), 2.0);
        let v2 = Volume::filled(Dims::new(64, 64, 1), 3.0);
        assert_eq!(average_filter(&v2).at(10, 10, 0), 3.0);
    }
}
