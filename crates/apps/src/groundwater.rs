//! Groundwater solute transport: TRACE (flow) coupled to PARTRACE
//! (particle tracking).
//!
//! "Coupling of two independent programs for ground water flow simulation
//! (TRACE) and transport of particles in a given water flow (PARTRACE).
//! ... Transfer of the 3-D water flow field from IBM SP2 (TRACE) to Cray
//! T3E (PARTRACE) every timestep, up to 30 MByte/s."
//!
//! TRACE solves steady Darcy flow `∇·(K ∇p) = 0` on a 3-D grid
//! (Gauss–Seidel with a fixed-head inlet/outlet pair), derives the
//! velocity field `v = −K ∇p`, and ships it to PARTRACE, which advects
//! particles through it (RK2 with trilinear velocity interpolation). The
//! coupled run exchanges the full field every timestep over `gtw-mpi`,
//! reproducing the paper's traffic pattern with a real computation on
//! both ends.

use gtw_desim::StreamRng;
use gtw_mpi::{Comm, PointToPoint, Tag};

/// Grid dimensions of the flow domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grid {
    /// Cells along x (flow direction).
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
}

impl Grid {
    /// Cell count.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.nx * (y + self.ny * z)
    }
}

/// The Darcy velocity field (cell-centred components).
#[derive(Clone, Debug)]
pub struct FlowField {
    /// Grid.
    pub grid: Grid,
    /// x-velocity per cell.
    pub vx: Vec<f32>,
    /// y-velocity per cell.
    pub vy: Vec<f32>,
    /// z-velocity per cell.
    pub vz: Vec<f32>,
}

impl FlowField {
    /// Bytes transferred when shipping this field (3 components × f32) —
    /// the paper's per-timestep payload.
    pub fn byte_len(&self) -> u64 {
        (3 * self.grid.len() * 4) as u64
    }

    /// Trilinear velocity interpolation at a fractional cell coordinate.
    pub fn velocity_at(&self, x: f64, y: f64, z: f64) -> [f64; 3] {
        let g = self.grid;
        let sample = |f: &Vec<f32>, xi: f64, yi: f64, zi: f64| -> f64 {
            let cx = xi.clamp(0.0, (g.nx - 1) as f64);
            let cy = yi.clamp(0.0, (g.ny - 1) as f64);
            let cz = zi.clamp(0.0, (g.nz - 1) as f64);
            let (x0, y0, z0) = (cx.floor() as usize, cy.floor() as usize, cz.floor() as usize);
            let x1 = (x0 + 1).min(g.nx - 1);
            let y1 = (y0 + 1).min(g.ny - 1);
            let z1 = (z0 + 1).min(g.nz - 1);
            let (fx, fy, fz) = (cx - x0 as f64, cy - y0 as f64, cz - z0 as f64);
            let v = |a: usize, b: usize, c: usize| f[g.idx(a, b, c)] as f64;
            let c00 = v(x0, y0, z0) * (1.0 - fx) + v(x1, y0, z0) * fx;
            let c10 = v(x0, y1, z0) * (1.0 - fx) + v(x1, y1, z0) * fx;
            let c01 = v(x0, y0, z1) * (1.0 - fx) + v(x1, y0, z1) * fx;
            let c11 = v(x0, y1, z1) * (1.0 - fx) + v(x1, y1, z1) * fx;
            let c0 = c00 * (1.0 - fy) + c10 * fy;
            let c1 = c01 * (1.0 - fy) + c11 * fy;
            c0 * (1.0 - fz) + c1 * fz
        };
        [sample(&self.vx, x, y, z), sample(&self.vy, x, y, z), sample(&self.vz, x, y, z)]
    }
}

/// The TRACE flow solver.
pub struct Trace {
    /// Grid.
    pub grid: Grid,
    /// Hydraulic conductivity per cell.
    pub conductivity: Vec<f64>,
    /// Pressure head (solved).
    pub pressure: Vec<f64>,
}

impl Trace {
    /// Homogeneous-conductivity domain.
    pub fn homogeneous(grid: Grid) -> Self {
        Trace { grid, conductivity: vec![1.0; grid.len()], pressure: vec![0.0; grid.len()] }
    }

    /// A heterogeneous aquifer: log-normal conductivity with a
    /// high-permeability channel through the middle (the situation that
    /// makes particle tracking interesting).
    pub fn heterogeneous(grid: Grid, seed: u64) -> Self {
        let mut rng = StreamRng::new(seed, "aquifer");
        let mut k = Vec::with_capacity(grid.len());
        for z in 0..grid.nz {
            for y in 0..grid.ny {
                for _x in 0..grid.nx {
                    let base = (0.5 * rng.normal()).exp();
                    // Channel: a band of high conductivity.
                    let in_channel = (y as f64 - grid.ny as f64 / 2.0).abs() < grid.ny as f64 / 8.0
                        && (z as f64 - grid.nz as f64 / 2.0).abs() < grid.nz as f64 / 4.0;
                    k.push(if in_channel { base * 10.0 } else { base });
                }
            }
        }
        Trace { grid, conductivity: k, pressure: vec![0.0; grid.len()] }
    }

    /// Solve the pressure equation with fixed heads `p=1` at `x=0` and
    /// `p=0` at `x=nx-1` (no-flux elsewhere) by Gauss–Seidel.
    pub fn solve(&mut self, sweeps: usize) {
        let g = self.grid;
        // Initialize with the linear profile for faster convergence.
        for z in 0..g.nz {
            for y in 0..g.ny {
                for x in 0..g.nx {
                    self.pressure[g.idx(x, y, z)] = 1.0 - x as f64 / (g.nx - 1) as f64;
                }
            }
        }
        for _ in 0..sweeps {
            for z in 0..g.nz {
                for y in 0..g.ny {
                    for x in 1..g.nx - 1 {
                        // Harmonic-mean face conductivities.
                        let kc = self.conductivity[g.idx(x, y, z)];
                        let mut num = 0.0;
                        let mut den = 0.0;
                        let mut face = |k_n: f64, p_n: f64| {
                            let kf = 2.0 * kc * k_n / (kc + k_n);
                            num += kf * p_n;
                            den += kf;
                        };
                        face(
                            self.conductivity[g.idx(x - 1, y, z)],
                            self.pressure[g.idx(x - 1, y, z)],
                        );
                        face(
                            self.conductivity[g.idx(x + 1, y, z)],
                            self.pressure[g.idx(x + 1, y, z)],
                        );
                        if y > 0 {
                            face(
                                self.conductivity[g.idx(x, y - 1, z)],
                                self.pressure[g.idx(x, y - 1, z)],
                            );
                        }
                        if y + 1 < g.ny {
                            face(
                                self.conductivity[g.idx(x, y + 1, z)],
                                self.pressure[g.idx(x, y + 1, z)],
                            );
                        }
                        if z > 0 {
                            face(
                                self.conductivity[g.idx(x, y, z - 1)],
                                self.pressure[g.idx(x, y, z - 1)],
                            );
                        }
                        if z + 1 < g.nz {
                            face(
                                self.conductivity[g.idx(x, y, z + 1)],
                                self.pressure[g.idx(x, y, z + 1)],
                            );
                        }
                        self.pressure[g.idx(x, y, z)] = num / den;
                    }
                }
            }
        }
    }

    /// Derive the cell-centred Darcy velocity `v = −K ∇p`.
    pub fn velocity_field(&self) -> FlowField {
        let g = self.grid;
        let mut vx = vec![0.0f32; g.len()];
        let mut vy = vec![0.0f32; g.len()];
        let mut vz = vec![0.0f32; g.len()];
        let grad = |p_lo: f64, p_hi: f64, span: f64| (p_hi - p_lo) / span;
        for z in 0..g.nz {
            for y in 0..g.ny {
                for x in 0..g.nx {
                    let i = g.idx(x, y, z);
                    let k = self.conductivity[i];
                    let gx = grad(
                        self.pressure[g.idx(x.saturating_sub(1), y, z)],
                        self.pressure[g.idx((x + 1).min(g.nx - 1), y, z)],
                        (((x + 1).min(g.nx - 1)) - x.saturating_sub(1)) as f64,
                    );
                    let gy = grad(
                        self.pressure[g.idx(x, y.saturating_sub(1), z)],
                        self.pressure[g.idx(x, (y + 1).min(g.ny - 1), z)],
                        (((y + 1).min(g.ny - 1)) - y.saturating_sub(1)).max(1) as f64,
                    );
                    let gz = grad(
                        self.pressure[g.idx(x, y, z.saturating_sub(1))],
                        self.pressure[g.idx(x, y, (z + 1).min(g.nz - 1))],
                        (((z + 1).min(g.nz - 1)) - z.saturating_sub(1)).max(1) as f64,
                    );
                    vx[i] = (-k * gx) as f32;
                    vy[i] = (-k * gy) as f32;
                    vz[i] = (-k * gz) as f32;
                }
            }
        }
        FlowField { grid: g, vx, vy, vz }
    }
}

/// The PARTRACE particle tracker.
pub struct Partrace {
    /// Particle positions in cell coordinates.
    pub particles: Vec<[f64; 3]>,
    /// Count of particles that have crossed the outlet face.
    pub breakthrough: usize,
}

impl Partrace {
    /// Release a plane of particles near the inlet.
    pub fn release_plane(grid: Grid, count: usize, seed: u64) -> Self {
        let mut rng = StreamRng::new(seed, "particles");
        let particles = (0..count)
            .map(|_| {
                [
                    0.5,
                    rng.uniform_in(0.0, (grid.ny - 1) as f64),
                    rng.uniform_in(0.0, (grid.nz - 1) as f64),
                ]
            })
            .collect();
        Partrace { particles, breakthrough: 0 }
    }

    /// Advect all particles one step of `dt` through `field` (RK2 /
    /// midpoint). Particles beyond the outlet are counted and frozen.
    pub fn step(&mut self, field: &FlowField, dt: f64) {
        let outlet = (field.grid.nx - 1) as f64;
        for p in &mut self.particles {
            if p[0] >= outlet {
                continue;
            }
            let v1 = field.velocity_at(p[0], p[1], p[2]);
            let mid = [p[0] + 0.5 * dt * v1[0], p[1] + 0.5 * dt * v1[1], p[2] + 0.5 * dt * v1[2]];
            let v2 = field.velocity_at(mid[0], mid[1], mid[2]);
            p[0] += dt * v2[0];
            p[1] = (p[1] + dt * v2[1]).clamp(0.0, (field.grid.ny - 1) as f64);
            p[2] = (p[2] + dt * v2[2]).clamp(0.0, (field.grid.nz - 1) as f64);
            if p[0] >= outlet {
                p[0] = outlet;
                self.breakthrough += 1;
            }
        }
    }

    /// Mean x-position (plume centre of mass along the flow axis).
    pub fn mean_x(&self) -> f64 {
        self.particles.iter().map(|p| p[0]).sum::<f64>() / self.particles.len().max(1) as f64
    }
}

/// Tags of the coupling protocol.
const TAG_FIELD: Tag = Tag(300);
const TAG_STATS: Tag = Tag(301);

/// Report of a coupled run.
#[derive(Clone, Debug)]
pub struct CoupledReport {
    /// Timesteps executed.
    pub steps: usize,
    /// Bytes shipped per timestep (the paper's ≤30 MB/s figure divides
    /// this by the step wall time).
    pub bytes_per_step: u64,
    /// Plume centre of mass per step.
    pub plume_x: Vec<f64>,
    /// Final breakthrough count.
    pub breakthrough: usize,
}

/// Run TRACE and PARTRACE coupled over a 2-rank communicator: rank 0
/// solves flow (re-solving as conductivity drifts slightly each step, so
/// a fresh field genuinely crosses the wire every timestep), rank 1
/// advects particles.
pub fn coupled_run(
    comm: &Comm,
    grid: Grid,
    steps: usize,
    dt: f64,
    seed: u64,
) -> Option<CoupledReport> {
    assert!(comm.size() == 2, "coupled run needs exactly 2 ranks");
    let mut bytes_per_step = 0u64;
    if comm.rank() == 0 {
        // TRACE side.
        let mut trace = Trace::heterogeneous(grid, seed);
        for step in 0..steps {
            // Slow transient: the channel conductivity drifts.
            if step > 0 {
                for k in trace.conductivity.iter_mut() {
                    *k *= 1.0 + 0.001 * ((step % 7) as f64 - 3.0);
                }
            }
            trace.solve(30);
            let field = trace.velocity_field();
            bytes_per_step = field.byte_len();
            let mut payload = Vec::with_capacity(3 * grid.len());
            payload.extend_from_slice(&field.vx);
            payload.extend_from_slice(&field.vy);
            payload.extend_from_slice(&field.vz);
            comm.send(1, TAG_FIELD, &payload);
        }
        // Receive the tracker's report.
        let (stats, _) = comm.recv::<f64>(1, TAG_STATS);
        let breakthrough = stats[0] as usize;
        let plume_x = stats[1..].to_vec();
        Some(CoupledReport { steps, bytes_per_step, plume_x, breakthrough })
    } else {
        // PARTRACE side.
        let mut tracker = Partrace::release_plane(grid, 500, seed);
        let mut plume = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (payload, _) = comm.recv::<f32>(0, TAG_FIELD);
            let n = grid.len();
            let field = FlowField {
                grid,
                vx: payload[..n].to_vec(),
                vy: payload[n..2 * n].to_vec(),
                vz: payload[2 * n..].to_vec(),
            };
            tracker.step(&field, dt);
            plume.push(tracker.mean_x());
        }
        let mut stats = vec![tracker.breakthrough as f64];
        stats.extend_from_slice(&plume);
        comm.send(0, TAG_STATS, &stats);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_mpi::Universe;

    const GRID: Grid = Grid { nx: 24, ny: 12, nz: 6 };

    #[test]
    fn homogeneous_pressure_is_linear() {
        let mut t = Trace::homogeneous(GRID);
        t.solve(200);
        for x in 0..GRID.nx {
            let expect = 1.0 - x as f64 / (GRID.nx - 1) as f64;
            let got = t.pressure[GRID.idx(x, 5, 3)];
            assert!((got - expect).abs() < 1e-3, "x={x}: {got} vs {expect}");
        }
    }

    #[test]
    fn velocity_points_downstream() {
        let mut t = Trace::homogeneous(GRID);
        t.solve(200);
        let f = t.velocity_field();
        for z in 0..GRID.nz {
            for y in 0..GRID.ny {
                for x in 0..GRID.nx {
                    assert!(f.vx[GRID.idx(x, y, z)] > 0.0, "vx must be positive");
                }
            }
        }
        // Homogeneous: uniform vx = K Δp/L = 1/23.
        let v = f.vx[GRID.idx(10, 5, 3)] as f64;
        assert!((v - 1.0 / 23.0).abs() < 1e-3, "{v}");
    }

    #[test]
    fn channel_speeds_up_particles() {
        let mut het = Trace::heterogeneous(GRID, 3);
        het.solve(300);
        let f = het.velocity_field();
        // Velocity in the channel (centre) exceeds the off-channel flow.
        let in_ch = f.vx[GRID.idx(12, 6, 3)];
        let off_ch = f.vx[GRID.idx(12, 1, 1)];
        assert!(in_ch > off_ch, "channel {in_ch} vs off {off_ch}");
    }

    #[test]
    fn particles_advance_and_break_through() {
        let mut t = Trace::homogeneous(GRID);
        t.solve(200);
        let f = t.velocity_field();
        let mut p = Partrace::release_plane(GRID, 100, 1);
        let x0 = p.mean_x();
        // v ~ 1/23 cells per time unit: 1000 units with dt=2 crosses.
        for _ in 0..500 {
            p.step(&f, 2.0);
        }
        assert!(p.mean_x() > x0, "plume did not advance");
        assert!(p.breakthrough > 90, "breakthrough {}", p.breakthrough);
    }

    #[test]
    fn field_interpolation_matches_cells() {
        let mut t = Trace::homogeneous(GRID);
        t.solve(100);
        let f = t.velocity_field();
        let v = f.velocity_at(10.0, 5.0, 3.0);
        assert!((v[0] - f.vx[GRID.idx(10, 5, 3)] as f64).abs() < 1e-9);
    }

    #[test]
    fn coupled_run_over_mpi() {
        let grid = Grid { nx: 16, ny: 8, nz: 4 };
        let out = Universe::run(2, move |comm| coupled_run(&comm, grid, 5, 5.0, 7));
        let report = out[0].as_ref().expect("rank 0 reports");
        assert!(out[1].is_none());
        assert_eq!(report.steps, 5);
        // 3 × 512 cells × 4 bytes.
        assert_eq!(report.bytes_per_step, 3 * 512 * 4);
        // The plume moves monotonically downstream.
        for w in report.plume_x.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "plume went backwards: {w:?}");
        }
    }

    #[test]
    fn paper_traffic_magnitude() {
        // At the paper's production scale (e.g. 128×128×64 cells) one
        // field is ~12.6 MB; at 2 steps/s that is ~25 MB/s — the paper's
        // "up to 30 MByte/s".
        let field_bytes = 3 * 128 * 128 * 64 * 4u64;
        let rate_mb_s = field_bytes as f64 * 2.0 / 1e6;
        assert!(rate_mb_s > 20.0 && rate_mb_s < 30.0, "{rate_mb_s}");
    }
}
