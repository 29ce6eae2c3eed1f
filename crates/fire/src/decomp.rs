//! Domain decomposition of the brain volume across PEs.
//!
//! The T3E modules "have been implemented ... using a domain
//! decomposition of the brain". This module provides:
//!
//! * slab (z-axis) and block (3-D grid) decompositions with balanced
//!   ranges and halo accounting — the DESIGN.md ablation compares their
//!   communication surfaces,
//! * a real message-passing execution path: scatter slabs over a
//!   `gtw-mpi` communicator, filter locally, gather (validated against
//!   the serial result). A rank *is* a PE: each rank runs its local
//!   block under `gtw_par::with_threads(1, …)`, so `pes` ranks never
//!   become `pes × cores` threads. (Measured thread scaling of the
//!   kernels themselves is `table1 --real`, via `gtw_par::with_threads`.)

use gtw_mpi::{Comm, PointToPoint, Tag};
use gtw_scan::volume::{Dims, Volume};

/// Decomposition strategy (the DESIGN ablation knob).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decomposition {
    /// Contiguous z-slabs, one per PE.
    Slab,
    /// Near-cubic 3-D process grid.
    Block,
}

/// Balanced split of `n` items over `parts`: part `i` gets range
/// `start..end`.
pub fn balanced_range(n: usize, parts: usize, i: usize) -> (usize, usize) {
    assert!(parts > 0 && i < parts, "invalid partition index");
    let base = n / parts;
    let extra = n % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    (start, start + len)
}

/// The z-slab of PE `pe` out of `pes`.
pub fn slab_of(dims: Dims, pes: usize, pe: usize) -> (usize, usize) {
    balanced_range(dims.nz, pes, pe)
}

/// Near-cubic factorization of `pes` into a 3-D process grid
/// `(px, py, pz)` with `px·py·pz == pes`.
pub fn block_grid(pes: usize) -> (usize, usize, usize) {
    assert!(pes > 0);
    let mut best = (pes, 1, 1);
    let mut best_score = usize::MAX;
    for px in 1..=pes {
        if pes % px != 0 {
            continue;
        }
        let rest = pes / px;
        for py in 1..=rest {
            if rest % py != 0 {
                continue;
            }
            let pz = rest / py;
            // Minimize the spread between factors.
            let hi = px.max(py).max(pz);
            let lo = px.min(py).min(pz);
            let score = hi - lo;
            if score < best_score {
                best_score = score;
                best = (px, py, pz);
            }
        }
    }
    best
}

/// Number of halo voxels (one-deep ghost layers) a decomposition
/// exchanges per image — the communication-volume metric of the
/// slab-vs-block ablation.
pub fn halo_voxels(dims: Dims, decomp: Decomposition, pes: usize) -> usize {
    match decomp {
        Decomposition::Slab => {
            // Each internal slab boundary exchanges two faces of nx×ny.
            let boundaries = pes.min(dims.nz).saturating_sub(1);
            2 * boundaries * dims.nx * dims.ny
        }
        Decomposition::Block => {
            let (px, py, pz) = block_grid(pes);
            let fx = px.saturating_sub(1) * dims.ny * dims.nz;
            let fy = py.saturating_sub(1) * dims.nx * dims.nz;
            let fz = pz.saturating_sub(1) * dims.nx * dims.ny;
            2 * (fx + fy + fz)
        }
    }
}

/// Extract the z-slab `z0..z1` of a volume, extended by `halo` clamped
/// ghost slices on each side. Returns the slab volume and the index of
/// its first interior slice within the slab.
pub fn extract_slab(vol: &Volume, z0: usize, z1: usize, halo: usize) -> (Volume, usize) {
    let d = vol.dims;
    assert!(z0 < z1 && z1 <= d.nz, "bad slab range");
    let lo = z0.saturating_sub(halo);
    let hi = (z1 + halo).min(d.nz);
    let dims = Dims::new(d.nx, d.ny, hi - lo);
    let mut out = Volume::zeros(dims);
    for (zi, z) in (lo..hi).enumerate() {
        for y in 0..d.ny {
            for x in 0..d.nx {
                out.data[dims.index(x, y, zi)] = vol.at(x, y, z);
            }
        }
    }
    (out, z0 - lo)
}

/// MPI tags used by the scatter/gather protocol.
const TAG_SLAB: Tag = Tag(100);
const TAG_RESULT: Tag = Tag(101);

/// Distributed median filter over a communicator: rank 0 scatters
/// halo-extended slabs, every rank filters its slab, rank 0 gathers.
/// Returns the filtered volume on rank 0, `None` elsewhere.
///
/// This exercises the actual message-passing path of the T3E
/// implementation (in-process ranks stand in for PEs).
pub fn distributed_median_filter(comm: &Comm, vol: Option<&Volume>) -> Option<Volume> {
    let pes = comm.size();
    let me = comm.rank();
    const ROOT: usize = 0;
    // Root broadcasts dims and scatters slabs.
    let dims;
    if me == ROOT {
        let vol = vol.expect("root must provide the volume");
        dims = vol.dims;
        comm.bcast(ROOT, &[dims.nx as f64, dims.ny as f64, dims.nz as f64]);
        for pe in 0..pes {
            let (z0, z1) = slab_of(dims, pes, pe);
            let (slab, interior) = extract_slab(vol, z0, z1, 1);
            if pe == ROOT {
                // Filter our own slab below.
                continue;
            }
            let mut header = vec![slab.dims.nz as f32, interior as f32, (z1 - z0) as f32];
            header.extend_from_slice(&slab.data);
            comm.send(pe, TAG_SLAB, &header);
        }
    } else {
        let d = comm.bcast::<f64>(ROOT, &[]);
        dims = Dims::new(d[0] as usize, d[1] as usize, d[2] as usize);
    }

    // Everyone filters a slab.
    let (z0, z1) = slab_of(dims, pes, me);
    let (my_slab, my_interior, my_len) = if me == ROOT {
        let (slab, interior) = extract_slab(vol.unwrap(), z0, z1, 1);
        (slab, interior, z1 - z0)
    } else {
        let (data, _st) = comm.recv::<f32>(ROOT, TAG_SLAB);
        let nz = data[0] as usize;
        let interior = data[1] as usize;
        let len = data[2] as usize;
        let dims_slab = Dims::new(dims.nx, dims.ny, nz);
        (Volume::from_vec(dims_slab, data[3..].to_vec()), interior, len)
    };
    let filtered = gtw_par::with_threads(1, || crate::filters::median_filter(&my_slab));
    // Extract the interior slices (drop halos) and send to root.
    let mut interior_data = Vec::with_capacity(dims.nx * dims.ny * my_len);
    for z in my_interior..my_interior + my_len {
        interior_data.extend(filtered.slice_z(z));
    }
    if me == ROOT {
        let mut out = Volume::zeros(dims);
        // Own slab.
        let base = dims.index(0, 0, z0);
        out.data[base..base + interior_data.len()].copy_from_slice(&interior_data);
        // Collect the rest.
        for pe in 1..pes {
            let (pz0, _pz1) = slab_of(dims, pes, pe);
            let (data, _st) = comm.recv::<f32>(pe, TAG_RESULT);
            let base = dims.index(0, 0, pz0);
            out.data[base..base + data.len()].copy_from_slice(&data);
        }
        Some(out)
    } else {
        comm.send(ROOT, TAG_RESULT, &interior_data);
        None
    }
}

/// Tags of the distributed-RVO protocol.
const TAG_RVO_IN: Tag = Tag(110);
const TAG_RVO_OUT: Tag = Tag(111);

/// Distributed reference-vector optimization: rank 0 scatters contiguous
/// voxel blocks of the series (the T3E's "domain decomposition of the
/// brain"), every rank rasters its share, rank 0 gathers the per-voxel
/// best-fit parameters. Returns the full result on rank 0, `None`
/// elsewhere.
pub fn distributed_rvo(
    comm: &Comm,
    series: Option<&[Volume]>,
    stimulus: &gtw_scan::hrf::Stimulus,
    bounds: crate::rvo::RvoBounds,
    method: crate::rvo::RvoMethod,
) -> Option<crate::rvo::RvoResult> {
    let pes = comm.size();
    let me = comm.rank();
    const ROOT: usize = 0;
    // Root announces geometry and scatters per-voxel series blocks.
    let (dims, scans);
    if me == ROOT {
        let series = series.expect("root provides the series");
        dims = series[0].dims;
        scans = series.len();
        comm.bcast(ROOT, &[dims.nx as f64, dims.ny as f64, dims.nz as f64, scans as f64]);
        for pe in 1..pes {
            let (v0, v1) = balanced_range(dims.len(), pes, pe);
            // Block layout: scan-major within the block.
            let mut payload = Vec::with_capacity((v1 - v0) * scans);
            for vol in series {
                payload.extend_from_slice(&vol.data[v0..v1]);
            }
            comm.send(pe, TAG_RVO_IN, &payload);
        }
    } else {
        let hdr = comm.bcast::<f64>(ROOT, &[]);
        dims = Dims::new(hdr[0] as usize, hdr[1] as usize, hdr[2] as usize);
        scans = hdr[3] as usize;
    }
    // Everyone rasters its block as a thin 1-D "volume" series.
    let (v0, v1) = balanced_range(dims.len(), pes, me);
    let block_len = v1 - v0;
    let my_series: Vec<Volume> = if me == ROOT {
        let series = series.unwrap();
        (0..scans)
            .map(|t| Volume::from_vec(Dims::new(block_len, 1, 1), series[t].data[v0..v1].to_vec()))
            .collect()
    } else {
        let (payload, _) = comm.recv::<f32>(ROOT, TAG_RVO_IN);
        (0..scans)
            .map(|t| {
                Volume::from_vec(
                    Dims::new(block_len, 1, 1),
                    payload[t * block_len..(t + 1) * block_len].to_vec(),
                )
            })
            .collect()
    };
    let local = gtw_par::with_threads(1, || {
        crate::rvo::optimize(&my_series, stimulus, bounds, method, None)
    });
    // Gather (delay, dispersion, correlation) triples at root.
    if me == ROOT {
        let mut delay = vec![0.0f32; dims.len()];
        let mut disp = vec![0.0f32; dims.len()];
        let mut corr = vec![0.0f32; dims.len()];
        delay[v0..v1].copy_from_slice(&local.delay.data);
        disp[v0..v1].copy_from_slice(&local.dispersion.data);
        corr[v0..v1].copy_from_slice(&local.correlation.data);
        let mut evaluations = local.evaluations;
        for pe in 1..pes {
            let (p0, p1) = balanced_range(dims.len(), pes, pe);
            let (payload, _) = comm.recv::<f32>(pe, TAG_RVO_OUT);
            let n = p1 - p0;
            delay[p0..p1].copy_from_slice(&payload[..n]);
            disp[p0..p1].copy_from_slice(&payload[n..2 * n]);
            corr[p0..p1].copy_from_slice(&payload[2 * n..3 * n]);
            evaluations += payload[3 * n] as u64;
        }
        Some(crate::rvo::RvoResult {
            delay: Volume::from_vec(dims, delay),
            dispersion: Volume::from_vec(dims, disp),
            correlation: Volume::from_vec(dims, corr),
            evaluations,
        })
    } else {
        let mut payload = Vec::with_capacity(3 * block_len + 1);
        payload.extend_from_slice(&local.delay.data);
        payload.extend_from_slice(&local.dispersion.data);
        payload.extend_from_slice(&local.correlation.data);
        payload.push(local.evaluations as f32);
        comm.send(ROOT, TAG_RVO_OUT, &payload);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_mpi::Universe;
    use gtw_scan::phantom::Phantom;

    #[test]
    fn balanced_ranges_cover_everything() {
        for n in [1usize, 7, 16, 100] {
            for parts in [1usize, 2, 3, 5, 16] {
                let mut total = 0;
                let mut expected_start = 0;
                for i in 0..parts {
                    let (s, e) = balanced_range(n, parts, i);
                    assert_eq!(s, expected_start);
                    expected_start = e;
                    total += e - s;
                }
                assert_eq!(total, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn slab_sizes_differ_by_at_most_one() {
        let d = Dims::EPI;
        for pes in [2usize, 3, 5, 7, 16] {
            let sizes: Vec<usize> = (0..pes)
                .map(|p| {
                    let (a, b) = slab_of(d, pes, p);
                    b - a
                })
                .collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1, "pes={pes}: {sizes:?}");
        }
    }

    #[test]
    fn block_grid_factors() {
        for pes in [1usize, 2, 4, 8, 16, 64, 128, 256] {
            let (px, py, pz) = block_grid(pes);
            assert_eq!(px * py * pz, pes);
        }
        assert_eq!(block_grid(8), (2, 2, 2));
        assert_eq!(block_grid(64), (4, 4, 4));
    }

    #[test]
    fn block_halo_beats_slab_at_high_pe_counts() {
        // The ablation's punchline: slabs of a 16-slice volume saturate,
        // blocks keep scaling.
        let d = Dims::EPI;
        let slab = halo_voxels(d, Decomposition::Slab, 64);
        let block = halo_voxels(d, Decomposition::Block, 64);
        assert!(block < slab * 2, "block {block} vs slab {slab}");
        // At very low PE counts the slab is competitive.
        let slab2 = halo_voxels(d, Decomposition::Slab, 2);
        let block2 = halo_voxels(d, Decomposition::Block, 2);
        assert!(slab2 <= block2);
    }

    #[test]
    fn extract_slab_with_halo() {
        let p = Phantom::standard();
        let v = p.anatomy(Dims::new(8, 8, 8));
        let (slab, interior) = extract_slab(&v, 2, 5, 1);
        assert_eq!(slab.dims.nz, 5); // 3 interior + 2 halo
        assert_eq!(interior, 1);
        // Slab content matches the source.
        for z in 0..5 {
            for y in 0..8 {
                for x in 0..8 {
                    assert_eq!(slab.at(x, y, z), v.at(x, y, z + 1));
                }
            }
        }
        // Edge slab clamps.
        let (slab0, interior0) = extract_slab(&v, 0, 3, 1);
        assert_eq!(interior0, 0);
        assert_eq!(slab0.dims.nz, 4);
    }

    #[test]
    fn distributed_filter_matches_serial() {
        let vol = Phantom::standard().anatomy(Dims::new(16, 16, 12));
        let serial = crate::filters::median_filter(&vol);
        for pes in [1usize, 2, 3, 4] {
            let vol_clone = vol.clone();
            let serial_clone = serial.clone();
            let out = Universe::run(pes, move |comm| {
                let v = if comm.rank() == 0 { Some(vol_clone.clone()) } else { None };
                distributed_median_filter(&comm, v.as_ref())
            });
            let root_result = out[0].as_ref().expect("root gets the result");
            assert!(
                root_result.rms_diff(&serial_clone) < 1e-6,
                "pes={pes}: distributed filter diverges from serial"
            );
            for r in &out[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn distributed_rvo_matches_serial() {
        use crate::rvo::{optimize, RvoBounds, RvoMethod};
        use gtw_scan::acquire::{Scanner, ScannerConfig};
        let mut cfg = ScannerConfig::paper_default(24, 5);
        cfg.dims = Dims::new(10, 6, 2);
        cfg.noise_sd = 1.0;
        cfg.motion_step = 0.0;
        let scanner = Scanner::new(cfg, Phantom::standard());
        let series: Vec<Volume> = scanner.series();
        let stim = scanner.config().stimulus.clone();
        let method = RvoMethod::FullGrid { delay_steps: 5, dispersion_steps: 3 };
        let serial = optimize(&series, &stim, RvoBounds::default(), method, None);
        for pes in [1usize, 2, 3] {
            let series2 = series.clone();
            let stim2 = stim.clone();
            let out = Universe::run(pes, move |comm| {
                let s = if comm.rank() == 0 { Some(&series2[..]) } else { None };
                distributed_rvo(&comm, s, &stim2, RvoBounds::default(), method)
            });
            let got = out[0].as_ref().expect("root result");
            assert!(got.delay.rms_diff(&serial.delay) < 1e-6, "pes={pes}");
            assert!(got.correlation.rms_diff(&serial.correlation) < 1e-6, "pes={pes}");
            assert_eq!(got.evaluations, serial.evaluations, "pes={pes}");
            for r in &out[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn pe_pool_controls_parallelism() {
        use gtw_par::{threads, with_threads};
        assert_eq!(with_threads(3, threads), 3);
        assert_eq!(with_threads(1, threads), 1);
        // Nested widths: the inner one wins, the outer one comes back.
        with_threads(3, || {
            assert_eq!(with_threads(7, threads), 7);
            assert_eq!(threads(), 3);
        });
    }
}
