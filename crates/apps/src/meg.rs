//! MEG source localization with the MUSIC algorithm ("pmusic").
//!
//! "A parallel program (pmusic), that estimates the position and strength
//! of current dipoles in a human brain from magnetoencephalography
//! measurements using the MUSIC algorithm, is distributed over a
//! massively parallel and a vector supercomputer to achieve superlinear
//! speedup. Communication: low volume, but sensitive to latency."
//!
//! Implemented from scratch: a magnetic-dipole forward model on a sensor
//! helmet, synthetic multi-dipole measurements, the sample covariance and
//! its eigendecomposition (the "vector machine" part), and the MUSIC
//! grid scan over candidate source locations (the "massively parallel"
//! part — on `gtw-par` scoped threads here, one grid point per item and
//! per spectrum entry, so the scan is bit-identical at any thread count;
//! an `gtw-mpi` split variant reproduces the latency-sensitive traffic
//! pattern).

use gtw_desim::StreamRng;
use gtw_fire::linalg::{jacobi_eigen, Matrix};
use gtw_mpi::{Comm, ReduceOp};

/// A 3-vector.
pub type Vec3 = [f64; 3];

fn cross(a: Vec3, b: Vec3) -> Vec3 {
    [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
}

fn sub(a: Vec3, b: Vec3) -> Vec3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn norm(a: Vec3) -> f64 {
    (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt()
}

/// The sensor array: magnetometers on a hemispherical helmet, each
/// measuring the field component along its radial orientation.
#[derive(Clone, Debug)]
pub struct SensorArray {
    /// Sensor positions (head radius = 1).
    pub positions: Vec<Vec3>,
    /// Sensor orientations (unit radial vectors).
    pub orientations: Vec<Vec3>,
}

impl SensorArray {
    /// A helmet of `rings × per_ring` magnetometers at radius 1.2.
    pub fn helmet(rings: usize, per_ring: usize) -> Self {
        let mut positions = Vec::new();
        let mut orientations = Vec::new();
        let r = 1.2;
        for ring in 0..rings {
            // Elevation from 15° above equator to near the pole.
            let elev = 0.26 + 1.2 * ring as f64 / (rings - 1).max(1) as f64;
            for k in 0..per_ring {
                let az = 2.0 * std::f64::consts::PI * k as f64 / per_ring as f64;
                let dir = [elev.cos() * az.cos(), elev.cos() * az.sin(), elev.sin()];
                positions.push([r * dir[0], r * dir[1], r * dir[2]]);
                orientations.push(dir);
            }
        }
        SensorArray { positions, orientations }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Lead field of a unit current dipole at `r0` with moment direction
    /// `q`: the radial field component at each sensor (free-space
    /// magnetic dipole kernel `B ∝ q × (r − r0) / |r − r0|³`; the same
    /// kernel is used for synthesis and for the MUSIC scan, which is the
    /// self-consistency MUSIC requires).
    pub fn lead_field(&self, r0: Vec3, q: Vec3) -> Vec<f64> {
        self.positions
            .iter()
            .zip(&self.orientations)
            .map(|(&rs, &or)| {
                let d = sub(rs, r0);
                let dist = norm(d).max(1e-6);
                let b = cross(q, d);
                (b[0] * or[0] + b[1] * or[1] + b[2] * or[2]) / dist.powi(3)
            })
            .collect()
    }

    /// The 3-column gain matrix at a location (one column per moment
    /// axis).
    pub fn gain(&self, r0: Vec3) -> Matrix {
        let gx = self.lead_field(r0, [1.0, 0.0, 0.0]);
        let gy = self.lead_field(r0, [0.0, 1.0, 0.0]);
        let gz = self.lead_field(r0, [0.0, 0.0, 1.0]);
        let m = self.len();
        let mut g = Matrix::zeros(m, 3);
        for i in 0..m {
            g[(i, 0)] = gx[i];
            g[(i, 1)] = gy[i];
            g[(i, 2)] = gz[i];
        }
        g
    }
}

/// A true source used for synthesis.
#[derive(Clone, Copy, Debug)]
pub struct Dipole {
    /// Location (|r| < 1).
    pub position: Vec3,
    /// Moment direction and strength.
    pub moment: Vec3,
    /// Oscillation frequency (cycles per sample) of its activity.
    pub frequency: f64,
}

/// Synthesize `samples` time points of sensor data for the given dipoles
/// plus white noise of standard deviation `noise_sd` (relative to a unit
/// lead field).
pub fn synthesize(
    array: &SensorArray,
    dipoles: &[Dipole],
    samples: usize,
    noise_sd: f64,
    seed: u64,
) -> Matrix {
    let m = array.len();
    let mut x = Matrix::zeros(m, samples);
    let mut rng = StreamRng::new(seed, "meg-noise");
    for (k, d) in dipoles.iter().enumerate() {
        let lf = array.lead_field(d.position, d.moment);
        for t in 0..samples {
            // Distinct phases decorrelate the sources.
            let s = (2.0 * std::f64::consts::PI * d.frequency * t as f64 + k as f64 * 1.7).sin();
            for i in 0..m {
                x[(i, t)] += lf[i] * s;
            }
        }
    }
    for t in 0..samples {
        for i in 0..m {
            x[(i, t)] += noise_sd * rng.normal();
        }
    }
    x
}

/// The sample covariance `X Xᵀ / T`.
pub fn covariance(x: &Matrix) -> Matrix {
    let m = x.rows;
    let t = x.cols;
    let mut c = Matrix::zeros(m, m);
    for a in 0..m {
        for b in a..m {
            let mut acc = 0.0;
            for k in 0..t {
                acc += x[(a, k)] * x[(b, k)];
            }
            c[(a, b)] = acc / t as f64;
            c[(b, a)] = c[(a, b)];
        }
    }
    c
}

/// The MUSIC metric at one candidate location: the largest subspace
/// correlation between the location's gain columns and the signal
/// subspace. 1.0 = a source fits perfectly.
pub fn music_metric(array: &SensorArray, signal_basis: &Matrix, r0: Vec3) -> f64 {
    let g = array.gain(r0);
    // Orthonormalize g's columns (Gram–Schmidt).
    let m = g.rows;
    let mut q = g.clone();
    for col in 0..3 {
        for prev in 0..col {
            let dot: f64 = (0..m).map(|i| q[(i, col)] * q[(i, prev)]).sum();
            for i in 0..m {
                q[(i, col)] -= dot * q[(i, prev)];
            }
        }
        let n: f64 = (0..m).map(|i| q[(i, col)] * q[(i, col)]).sum::<f64>().sqrt();
        if n > 1e-12 {
            for i in 0..m {
                q[(i, col)] /= n;
            }
        }
    }
    // Projection energy of the signal basis onto span(q): the subspace
    // correlation is the largest singular value of Qᵀ·S; we use the
    // largest eigenvalue of (QᵀS)(QᵀS)ᵀ.
    let qs = q.transpose().matmul(signal_basis); // 3 × k
    let qqt = qs.matmul(&qs.transpose()); // 3 × 3
    let (vals, _) = jacobi_eigen(&qqt, 50);
    vals[0].clamp(0.0, 1.0).sqrt()
}

/// Result of a MUSIC scan.
#[derive(Clone, Debug)]
pub struct MusicScan {
    /// Grid points scanned.
    pub grid: Vec<Vec3>,
    /// MUSIC metric per point.
    pub spectrum: Vec<f64>,
}

impl MusicScan {
    /// The `k` best (highest-metric) locations, greedily separated by
    /// `min_dist`.
    pub fn peaks(&self, k: usize, min_dist: f64) -> Vec<(Vec3, f64)> {
        let mut order: Vec<usize> = (0..self.grid.len()).collect();
        order.sort_by(|&a, &b| self.spectrum[b].partial_cmp(&self.spectrum[a]).unwrap());
        let mut out: Vec<(Vec3, f64)> = Vec::new();
        for i in order {
            if out.len() >= k {
                break;
            }
            let p = self.grid[i];
            if out.iter().all(|(q, _)| norm(sub(p, *q)) >= min_dist) {
                out.push((p, self.spectrum[i]));
            }
        }
        out
    }
}

/// Build the signal-subspace basis from measurements: eigendecompose the
/// covariance and keep the top `n_sources` eigenvectors.
pub fn signal_subspace(x: &Matrix, n_sources: usize) -> Matrix {
    let c = covariance(x);
    let (_, vecs) = jacobi_eigen(&c, 100);
    let m = c.rows;
    let mut s = Matrix::zeros(m, n_sources);
    for col in 0..n_sources {
        for i in 0..m {
            s[(i, col)] = vecs[(i, col)];
        }
    }
    s
}

/// A cubic scan grid inside the head (|r| ≤ 0.85, z ≥ 0).
pub fn head_grid(steps: usize) -> Vec<Vec3> {
    let mut grid = Vec::new();
    for iz in 0..steps {
        for iy in 0..steps {
            for ix in 0..steps {
                let f = |i: usize| -0.85 + 1.7 * i as f64 / (steps - 1) as f64;
                let p = [f(ix), f(iy), 0.85 * iz as f64 / (steps - 1) as f64];
                if norm(p) <= 0.85 {
                    grid.push(p);
                }
            }
        }
    }
    grid
}

/// Thread-parallel MUSIC scan (the "massively parallel" half of pmusic).
pub fn music_scan(array: &SensorArray, signal_basis: &Matrix, grid: Vec<Vec3>) -> MusicScan {
    let mut spectrum = vec![0.0f64; grid.len()];
    gtw_par::for_each(spectrum.iter_mut().zip(&grid), |(s, &p)| {
        *s = music_metric(array, signal_basis, p)
    });
    MusicScan { grid, spectrum }
}

/// Distributed pmusic over a communicator: rank 0 plays the vector
/// machine (covariance + eigendecomposition), all ranks scan a slice of
/// the grid, and the best peak is reduced. Traffic: one subspace
/// broadcast (a few KB) plus tiny per-slice results — "low volume, but
/// sensitive to latency".
pub fn distributed_music(
    comm: &Comm,
    array: &SensorArray,
    x: Option<&Matrix>,
    n_sources: usize,
    grid_steps: usize,
) -> MusicScan {
    let m = array.len();
    // Rank 0 computes the subspace and broadcasts it.
    let flat: Vec<f64> = if comm.rank() == 0 {
        signal_subspace(x.expect("rank 0 needs the measurements"), n_sources).data
    } else {
        Vec::new()
    };
    let flat = comm.bcast(0, &flat);
    let basis = Matrix { rows: m, cols: n_sources, data: flat };
    // Each rank scans its strided share of the grid.
    let full_grid = head_grid(grid_steps);
    let my: Vec<Vec3> = full_grid
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % comm.size() == comm.rank())
        .map(|(_, p)| p)
        .collect();
    // A rank is a PE: it scans its share on its own thread only.
    let local = gtw_par::with_threads(1, || music_scan(array, &basis, my));
    // Gather the full spectrum at every rank by summing strided slots.
    let mut spectrum = vec![0.0f64; full_grid.len()];
    for (j, &v) in local.spectrum.iter().enumerate() {
        spectrum[j * comm.size() + comm.rank()] = v;
    }
    let spectrum = comm.allreduce_f64s(ReduceOp::Sum, &spectrum);
    MusicScan { grid: full_grid, spectrum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_mpi::Universe;

    fn two_dipoles() -> Vec<Dipole> {
        vec![
            Dipole { position: [0.35, 0.1, 0.45], moment: [0.0, 1.0, 0.2], frequency: 0.05 },
            Dipole { position: [-0.3, -0.25, 0.3], moment: [1.0, 0.0, 0.4], frequency: 0.083 },
        ]
    }

    fn localization_error(found: &[(Vec3, f64)], truth: &[Dipole]) -> f64 {
        truth
            .iter()
            .map(|d| {
                found.iter().map(|(p, _)| norm(sub(*p, d.position))).fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn music_localizes_two_dipoles() {
        let array = SensorArray::helmet(5, 12);
        let dipoles = two_dipoles();
        let x = synthesize(&array, &dipoles, 200, 0.02, 1);
        let basis = signal_subspace(&x, 2);
        let scan = music_scan(&array, &basis, head_grid(13));
        let peaks = scan.peaks(2, 0.3);
        assert_eq!(peaks.len(), 2);
        let err = localization_error(&peaks, &dipoles);
        // Grid spacing is ~0.14; localize within one grid cell.
        assert!(err < 0.15, "localization error {err}");
        for (_, v) in &peaks {
            assert!(*v > 0.95, "peak metric {v}");
        }
    }

    #[test]
    fn music_scan_is_bit_identical_at_every_width() {
        let array = SensorArray::helmet(4, 8);
        let basis = signal_subspace(&synthesize(&array, &two_dipoles(), 64, 0.02, 1), 2);
        // 7 points do not divide among 2, 3 or 8 threads; then no point.
        for grid in [head_grid(5)[..7].to_vec(), Vec::new()] {
            let bits = |width| {
                let scan =
                    gtw_par::with_threads(width, || music_scan(&array, &basis, grid.clone()));
                assert_eq!(scan.grid, grid);
                scan.spectrum.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            };
            let sequential = bits(1);
            assert_eq!(sequential.len(), grid.len());
            for width in [2usize, 3, 8] {
                assert_eq!(bits(width), sequential, "{width} threads");
            }
        }
    }

    #[test]
    fn metric_near_one_at_source_lower_elsewhere() {
        let array = SensorArray::helmet(5, 12);
        let dipoles = two_dipoles();
        let x = synthesize(&array, &dipoles, 200, 0.01, 2);
        let basis = signal_subspace(&x, 2);
        let at_source = music_metric(&array, &basis, dipoles[0].position);
        let away = music_metric(&array, &basis, [0.0, 0.6, 0.1]);
        assert!(at_source > 0.97, "{at_source}");
        assert!(away < at_source, "away {away} vs source {at_source}");
    }

    #[test]
    fn covariance_is_symmetric_psd() {
        let array = SensorArray::helmet(3, 8);
        let x = synthesize(&array, &two_dipoles(), 100, 0.1, 3);
        let c = covariance(&x);
        for i in 0..c.rows {
            for j in 0..c.cols {
                assert!((c[(i, j)] - c[(j, i)]).abs() < 1e-12);
            }
        }
        let (vals, _) = jacobi_eigen(&c, 100);
        assert!(vals.iter().all(|&v| v > -1e-9), "negative eigenvalue: {vals:?}");
        // Two strong sources above the noise floor.
        assert!(vals[1] > vals[2] * 10.0, "{vals:?}");
    }

    #[test]
    fn noise_only_data_has_flat_spectrum() {
        let array = SensorArray::helmet(4, 10);
        let x = synthesize(&array, &[], 200, 1.0, 4);
        let basis = signal_subspace(&x, 2);
        let scan = music_scan(&array, &basis, head_grid(7));
        let max = scan.spectrum.iter().cloned().fold(0.0, f64::max);
        assert!(max < 0.9, "noise-only peak {max}");
    }

    #[test]
    fn distributed_scan_matches_serial() {
        let array = SensorArray::helmet(4, 10);
        let dipoles = two_dipoles();
        let x = synthesize(&array, &dipoles, 150, 0.02, 5);
        let basis = signal_subspace(&x, 2);
        let serial = music_scan(&array, &basis, head_grid(9));
        let array2 = array.clone();
        let x2 = x.clone();
        let out = Universe::run(3, move |comm| {
            let data = if comm.rank() == 0 { Some(&x2) } else { None };
            distributed_music(&comm, &array2, data, 2, 9)
        });
        for rank_scan in &out {
            assert_eq!(rank_scan.spectrum.len(), serial.spectrum.len());
            for (a, b) in rank_scan.spectrum.iter().zip(&serial.spectrum) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn traffic_is_low_volume() {
        // The broadcast subspace for a 60-channel helmet and 2 sources is
        // under a kilobyte — the paper's "low volume" claim.
        let array = SensorArray::helmet(5, 12);
        let x = synthesize(&array, &two_dipoles(), 100, 0.05, 6);
        let s = signal_subspace(&x, 2);
        assert!(s.data.len() * 8 < 1024, "{} bytes", s.data.len() * 8);
    }

    #[test]
    fn helmet_geometry() {
        let a = SensorArray::helmet(5, 12);
        assert_eq!(a.len(), 60);
        for (p, o) in a.positions.iter().zip(&a.orientations) {
            assert!((norm(*p) - 1.2).abs() < 1e-9);
            assert!((norm(*o) - 1.0).abs() < 1e-9);
            assert!(p[2] > 0.0, "sensors above the equator plane");
        }
    }
}
