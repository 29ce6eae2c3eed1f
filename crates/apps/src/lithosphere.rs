//! Lithospheric fluids — the second §5 Bonn-link project
//! ("metacomputing projects that deal with multiscale molecular dynamics
//! and lithospheric fluids").
//!
//! A 2-D porous-medium thermal-convection model (the Horton–Rogers–
//! Lapwood problem, the canonical model of fluid circulation in the
//! crust): Darcy flow driven by buoyancy in the Boussinesq limit,
//!
//! ```text
//! ∇²ψ = −Ra · ∂T/∂x        (stream function)
//! ∂T/∂t + u·∇T = ∇²T       (heat transport)
//! ```
//!
//! heated from below (T = 1), cooled from above (T = 0), periodic
//! laterally. Below the critical Rayleigh number `Ra_c = 4π² ≈ 39.5`
//! heat moves by conduction alone (Nusselt number = 1); above it
//! convection cells form and Nu rises — the classic, sharply testable
//! result. The distributed driver splits the domain laterally over
//! `gtw-mpi` ranks with halo-column exchange each Jacobi sweep (Jacobi,
//! not Gauss–Seidel, so the decomposition is *exactly* equivalent to the
//! serial solver).

use gtw_mpi::{Comm, PointToPoint, Tag};

/// The convection cell state.
#[derive(Clone, Debug)]
pub struct PorousConvection {
    /// Columns (periodic).
    pub nx: usize,
    /// Rows (0 = bottom wall, ny-1 = top wall).
    pub ny: usize,
    /// Rayleigh number.
    pub rayleigh: f64,
    /// Temperature field, row-major.
    pub temp: Vec<f64>,
    /// Stream function.
    pub psi: Vec<f64>,
    /// Grid spacing (unit-height box).
    pub h: f64,
}

impl PorousConvection {
    /// Conductive initial state with a small deterministic perturbation
    /// to break symmetry.
    pub fn new(nx: usize, ny: usize, rayleigh: f64) -> Self {
        assert!(nx >= 8 && ny >= 8, "grid too small");
        let h = 1.0 / (ny - 1) as f64;
        let mut temp = vec![0.0; nx * ny];
        for y in 0..ny {
            let frac = y as f64 / (ny - 1) as f64;
            for x in 0..nx {
                let mut t = 1.0 - frac; // conduction profile
                if y > 0 && y < ny - 1 {
                    t += 0.01
                        * (2.0 * std::f64::consts::PI * x as f64 / nx as f64).sin()
                        * (std::f64::consts::PI * frac).sin();
                }
                temp[x + nx * y] = t;
            }
        }
        PorousConvection { nx, ny, rayleigh, temp, psi: vec![0.0; nx * ny], h }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        (x % self.nx) + self.nx * y
    }

    /// One Jacobi sweep of `∇²ψ = −Ra ∂T/∂x`; ψ = 0 on the walls.
    /// Returns the max update (for convergence checks).
    pub fn psi_sweep(&mut self) -> f64 {
        let mut next = self.psi.clone();
        let mut max_d = 0.0f64;
        for y in 1..self.ny - 1 {
            for x in 0..self.nx {
                let rhs = -self.rayleigh
                    * (self.temp[self.idx(x + 1, y)] - self.temp[self.idx(x + self.nx - 1, y)])
                    / (2.0 * self.h);
                let nb = self.psi[self.idx(x + 1, y)]
                    + self.psi[self.idx(x + self.nx - 1, y)]
                    + self.psi[self.idx(x, y + 1)]
                    + self.psi[self.idx(x, y - 1)];
                let v = (nb - self.h * self.h * rhs) / 4.0;
                max_d = max_d.max((v - self.psi[self.idx(x, y)]).abs());
                next[self.idx(x, y)] = v;
            }
        }
        self.psi = next;
        max_d
    }

    /// Velocities from the stream function: `u = ∂ψ/∂y`, `w = −∂ψ/∂x`.
    fn velocity(&self, x: usize, y: usize) -> (f64, f64) {
        let u = (self.psi[self.idx(x, y + 1)] - self.psi[self.idx(x, y - 1)]) / (2.0 * self.h);
        let w = -(self.psi[self.idx(x + 1, y)] - self.psi[self.idx(x + self.nx - 1, y)])
            / (2.0 * self.h);
        (u, w)
    }

    /// One explicit heat-transport step (upwind advection + diffusion).
    pub fn temp_step(&mut self, dt: f64) {
        let mut next = self.temp.clone();
        for y in 1..self.ny - 1 {
            for x in 0..self.nx {
                let (u, w) = self.velocity(x, y);
                let t = self.temp[self.idx(x, y)];
                let tx_m = self.temp[self.idx(x + self.nx - 1, y)];
                let tx_p = self.temp[self.idx(x + 1, y)];
                let ty_m = self.temp[self.idx(x, y - 1)];
                let ty_p = self.temp[self.idx(x, y + 1)];
                // Upwind advection.
                let adv_x = if u > 0.0 { u * (t - tx_m) } else { u * (tx_p - t) } / self.h;
                let adv_y = if w > 0.0 { w * (t - ty_m) } else { w * (ty_p - t) } / self.h;
                let lap = (tx_m + tx_p + ty_m + ty_p - 4.0 * t) / (self.h * self.h);
                next[self.idx(x, y)] = t + dt * (lap - adv_x - adv_y);
            }
        }
        self.temp = next;
    }

    /// Advance `steps` timesteps, each with `sweeps` Jacobi sweeps.
    pub fn run(&mut self, steps: usize, sweeps: usize, dt: f64) {
        for _ in 0..steps {
            for _ in 0..sweeps {
                self.psi_sweep();
            }
            self.temp_step(dt);
        }
    }

    /// A stable explicit timestep for the current Rayleigh number:
    /// combined diffusion + upwind-advection criterion
    /// `dt · (4/h² + 2·v/h) ≤ 0.4` with flow speed estimated as
    /// `v ≈ 0.2·Ra` (porous convection scales linearly in Ra near
    /// onset).
    pub fn stable_dt(&self) -> f64 {
        let vmax = 0.2 * self.rayleigh.max(1.0);
        0.4 / (4.0 / (self.h * self.h) + 2.0 * vmax / self.h)
    }

    /// The Nusselt number: conductive-normalized heat flux through the
    /// bottom wall (1 = pure conduction).
    pub fn nusselt(&self) -> f64 {
        let mut flux = 0.0;
        for x in 0..self.nx {
            // -dT/dy at the bottom, one-sided difference.
            flux += (self.temp[self.idx(x, 0)] - self.temp[self.idx(x, 1)]) / self.h;
        }
        flux / self.nx as f64
    }

    /// Peak flow speed (zero in the conductive state).
    pub fn peak_speed(&self) -> f64 {
        let mut peak = 0.0f64;
        for y in 1..self.ny - 1 {
            for x in 0..self.nx {
                let (u, w) = self.velocity(x, y);
                peak = peak.max((u * u + w * w).sqrt());
            }
        }
        peak
    }
}

const TAG_HALO_T: Tag = Tag(800);
const TAG_HALO_P: Tag = Tag(801);

/// Distributed lateral decomposition: each rank owns a contiguous strip
/// of columns of the periodic box; per Jacobi sweep (and per heat step)
/// the one-column halos travel around the ring. Jacobi makes the result
/// bitwise equal to the serial solver. Returns the rank's strip of the
/// final temperature field.
pub fn distributed_run(
    comm: &Comm,
    nx: usize,
    ny: usize,
    rayleigh: f64,
    steps: usize,
    sweeps: usize,
) -> Vec<f64> {
    let size = comm.size();
    let me = comm.rank();
    assert!(nx % size == 0, "columns must divide evenly for this driver");
    let w = nx / size;
    // Each rank materializes the full box but only updates (and
    // exchanges) its strip — the simplest exactly-equivalent formulation;
    // memory is traded for protocol clarity, traffic is the real pattern
    // (two halo columns per sweep per direction).
    let mut cell = PorousConvection::new(nx, ny, rayleigh);
    let dt = cell.stable_dt();
    let x0 = me * w;
    let x1 = x0 + w;
    let left = (me + size - 1) % size;
    let right = (me + 1) % size;
    let column = |field: &[f64], x: usize| -> Vec<f64> {
        (0..ny).map(|y| field[(x % nx) + nx * y]).collect()
    };
    let put_column = |field: &mut [f64], x: usize, col: &[f64]| {
        for (y, &v) in col.iter().enumerate() {
            field[(x % nx) + nx * y] = v;
        }
    };
    let exchange = |comm: &Comm, field: &mut Vec<f64>, tag: Tag| {
        // Send my edge columns outward, receive neighbours' edges.
        comm.send(left, tag, &column(field, x0));
        comm.send(right, tag, &column(field, x1 - 1));
        let (from_right, _) = comm.recv::<f64>(right, tag);
        let (from_left, _) = comm.recv::<f64>(left, tag);
        put_column(field, x1 % nx, &from_right);
        put_column(field, (x0 + nx - 1) % nx, &from_left);
    };
    for _ in 0..steps {
        for _ in 0..sweeps {
            exchange(comm, &mut cell.psi, TAG_HALO_P);
            exchange(comm, &mut cell.temp, TAG_HALO_T);
            // Local Jacobi on my strip only.
            let mut next: Vec<(usize, f64)> = Vec::with_capacity(w * ny);
            for y in 1..ny - 1 {
                for x in x0..x1 {
                    let rhs = -cell.rayleigh
                        * (cell.temp[cell.idx(x + 1, y)] - cell.temp[cell.idx(x + nx - 1, y)])
                        / (2.0 * cell.h);
                    let nb = cell.psi[cell.idx(x + 1, y)]
                        + cell.psi[cell.idx(x + nx - 1, y)]
                        + cell.psi[cell.idx(x, y + 1)]
                        + cell.psi[cell.idx(x, y - 1)];
                    next.push((cell.idx(x, y), (nb - cell.h * cell.h * rhs) / 4.0));
                }
            }
            for (i, v) in next {
                cell.psi[i] = v;
            }
        }
        exchange(comm, &mut cell.psi, TAG_HALO_P);
        exchange(comm, &mut cell.temp, TAG_HALO_T);
        // Local heat step on my strip.
        let mut next: Vec<(usize, f64)> = Vec::with_capacity(w * ny);
        for y in 1..ny - 1 {
            for x in x0..x1 {
                let (u, wv) = cell.velocity(x, y);
                let t = cell.temp[cell.idx(x, y)];
                let tx_m = cell.temp[cell.idx(x + nx - 1, y)];
                let tx_p = cell.temp[cell.idx(x + 1, y)];
                let ty_m = cell.temp[cell.idx(x, y - 1)];
                let ty_p = cell.temp[cell.idx(x, y + 1)];
                let adv_x = if u > 0.0 { u * (t - tx_m) } else { u * (tx_p - t) } / cell.h;
                let adv_y = if wv > 0.0 { wv * (t - ty_m) } else { wv * (ty_p - t) } / cell.h;
                let lap = (tx_m + tx_p + ty_m + ty_p - 4.0 * t) / (cell.h * cell.h);
                next.push((cell.idx(x, y), t + dt * (lap - adv_x - adv_y)));
            }
        }
        for (i, v) in next {
            cell.temp[i] = v;
        }
    }
    // Return my strip.
    let mut strip = Vec::with_capacity(w * ny);
    for y in 0..ny {
        for x in x0..x1 {
            strip.push(cell.temp[cell.idx(x, y)]);
        }
    }
    strip
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_mpi::Universe;

    #[test]
    fn subcritical_stays_conductive() {
        // Ra = 10 << Ra_c ≈ 39.5: the perturbation dies, Nu -> 1.
        let mut c = PorousConvection::new(32, 17, 10.0);
        let dt = c.stable_dt();
        c.run(800, 8, dt);
        let nu = c.nusselt();
        assert!((nu - 1.0).abs() < 0.05, "Nu {nu}");
        assert!(c.peak_speed() < 0.5, "residual flow {}", c.peak_speed());
    }

    #[test]
    fn supercritical_convects() {
        // Ra = 100 > Ra_c: convection cells form, heat transport is
        // super-conductive.
        let mut c = PorousConvection::new(32, 17, 100.0);
        let dt = c.stable_dt();
        c.run(2500, 12, dt);
        let nu = c.nusselt();
        assert!(nu > 1.3, "Nu {nu} should exceed conduction");
        assert!(c.peak_speed() > 1.0, "flow speed {}", c.peak_speed());
    }

    #[test]
    fn onset_brackets_the_critical_rayleigh() {
        // Nu(Ra=25) ≈ 1 and Nu(Ra=80) > Nu(Ra=25): the onset sits
        // between, consistent with Ra_c = 4π² ≈ 39.5.
        let nu = |ra: f64| {
            let mut c = PorousConvection::new(32, 17, ra);
            let dt = c.stable_dt();
            c.run(2000, 10, dt);
            c.nusselt()
        };
        let low = nu(25.0);
        let high = nu(80.0);
        assert!((low - 1.0).abs() < 0.05, "Nu(25) = {low}");
        assert!(high > low + 0.15, "Nu(80) = {high} vs Nu(25) = {low}");
    }

    #[test]
    fn temperature_stays_bounded() {
        let mut c = PorousConvection::new(24, 13, 150.0);
        let dt = c.stable_dt();
        c.run(1500, 10, dt);
        for &t in &c.temp {
            assert!((-0.05..=1.05).contains(&t), "T out of range: {t}");
        }
        // Walls pinned.
        for x in 0..24 {
            assert_eq!(c.temp[x], 1.0);
            assert_eq!(c.temp[x + 24 * 12], 0.0);
        }
    }

    #[test]
    fn distributed_matches_serial_exactly() {
        let (nx, ny, ra, steps, sweeps) = (24, 13, 100.0, 40, 6);
        let mut serial = PorousConvection::new(nx, ny, ra);
        let dt = serial.stable_dt();
        serial.run(steps, sweeps, dt);
        for ranks in [2usize, 3] {
            let out =
                Universe::run(ranks, move |comm| distributed_run(&comm, nx, ny, ra, steps, sweeps));
            // Stitch strips back together and compare.
            let w = nx / ranks;
            for (r, strip) in out.iter().enumerate() {
                for y in 0..ny {
                    for dx in 0..w {
                        let x = r * w + dx;
                        let got = strip[dx + w * y];
                        let want = serial.temp[x + nx * y];
                        assert!(
                            (got - want).abs() < 1e-12,
                            "ranks={ranks} ({x},{y}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn halo_traffic_is_the_paper_pattern() {
        // Two columns of f64 per sweep per direction: small periodic
        // messages — the WAN coupling pattern of the Bonn projects.
        let ny = 33;
        let bytes_per_exchange = 2 * ny * 8;
        assert!(bytes_per_exchange < 1024, "{bytes_per_exchange}");
    }
}
