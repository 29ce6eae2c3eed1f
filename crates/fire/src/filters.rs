//! Spatial filters: "a median filter is used to reduce noise in the
//! unprocessed picture. After the processing pipeline, the data can be
//! smoothened by an averaging filter."
//!
//! Both operate on a 3×3×3 neighbourhood with edge clamping, and both
//! run one z-slab per `gtw_par::for_each` item: every output voxel is
//! written by exactly one call, so the result is bit-identical at any
//! thread count.

use gtw_scan::volume::Volume;

/// Collect the 27 edge-clamped neighbourhood values of `(x, y, z)`.
#[inline]
fn neighbourhood(vol: &Volume, x: usize, y: usize, z: usize, out: &mut [f32; 27]) {
    let d = vol.dims;
    let mut k = 0;
    for dz in -1isize..=1 {
        let zz = (z as isize + dz).clamp(0, d.nz as isize - 1) as usize;
        for dy in -1isize..=1 {
            let yy = (y as isize + dy).clamp(0, d.ny as isize - 1) as usize;
            for dx in -1isize..=1 {
                let xx = (x as isize + dx).clamp(0, d.nx as isize - 1) as usize;
                out[k] = vol.at(xx, yy, zz);
                k += 1;
            }
        }
    }
}

/// 3×3×3 median filter (the FIRE noise-reduction module).
pub fn median_filter(vol: &Volume) -> Volume {
    filter_rows(vol, |vals| {
        // Median of 27 via select_nth.
        vals.select_nth_unstable_by(13, |a, b| a.partial_cmp(b).unwrap());
        vals[13]
    })
}

/// 3×3×3 averaging (boxcar) filter (the FIRE smoothing module).
pub fn average_filter(vol: &Volume) -> Volume {
    filter_rows(vol, |vals| vals.iter().sum::<f32>() / 27.0)
}

/// Shared kernel driver: applies `f` to every voxel's neighbourhood,
/// parallelizing over z-slabs on `gtw-par` scoped threads (each slab is
/// one "PE"'s work in the domain decomposition).
fn filter_rows(vol: &Volume, f: impl Fn(&mut [f32; 27]) -> f32 + Sync) -> Volume {
    let d = vol.dims;
    let mut out = Volume::zeros(d);
    let slab = d.nx * d.ny;
    gtw_par::for_each(out.data.chunks_mut(slab.max(1)).enumerate(), |(z, out_slab)| {
        let mut vals = [0.0f32; 27];
        for y in 0..d.ny {
            for x in 0..d.nx {
                neighbourhood(vol, x, y, z, &mut vals);
                out_slab[x + d.nx * y] = f(&mut vals);
            }
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

    #[test]
    fn edge_clamping_no_panic_on_thin_volumes() {
        let v = Volume::filled(Dims::new(1, 1, 1), 2.0);
        assert_eq!(median_filter(&v).at(0, 0, 0), 2.0);
        let v2 = Volume::filled(Dims::new(64, 64, 1), 3.0);
        assert_eq!(average_filter(&v2).at(10, 10, 0), 3.0);
    }
}
