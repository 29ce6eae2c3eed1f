//! Coupled climate models: an ocean and an atmosphere on different grids,
//! joined by a flux coupler.
//!
//! "Coupling of an ocean–ice model (based on MOM-2) running on Cray T3E
//! and an atmospheric model (IFS) running on IBM SP2 using the CSM flux
//! coupler. ... Exchange of 2-D surface data every timestep, up to
//! 1 MByte in short bursts."
//!
//! The miniatures are 2-D energy-conserving toy models: the ocean evolves
//! sea-surface temperature (diffusion + air–sea heat flux), the
//! atmosphere advects its temperature with a zonal wind and feels the
//! same flux with opposite sign. The coupler regrids between the two
//! (different-resolution) grids bilinearly — the defining job of the CSM
//! flux coupler — and ships the surface fields every step.

use gtw_mpi::{Comm, PointToPoint, Tag};

/// A 2-D lat/lon field on a regular grid.
#[derive(Clone, Debug)]
pub struct Field2d {
    /// Columns (longitude).
    pub nx: usize,
    /// Rows (latitude).
    pub ny: usize,
    /// Row-major values.
    pub data: Vec<f64>,
}

impl Field2d {
    /// Constant field.
    pub fn filled(nx: usize, ny: usize, v: f64) -> Self {
        Field2d { nx, ny, data: vec![v; nx * ny] }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        x + self.nx * y
    }

    /// Value accessor.
    pub fn at(&self, x: usize, y: usize) -> f64 {
        self.data[self.idx(x, y)]
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Bilinear sample at fractional grid coordinates (x wraps — it is
    /// longitude; y clamps at the poles).
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let xm = x.rem_euclid(self.nx as f64);
        let ym = y.clamp(0.0, (self.ny - 1) as f64);
        let x0 = xm.floor() as usize % self.nx;
        let x1 = (x0 + 1) % self.nx;
        let y0 = ym.floor() as usize;
        let y1 = (y0 + 1).min(self.ny - 1);
        let fx = xm - xm.floor();
        let fy = ym - y0 as f64;
        let a = self.at(x0, y0) * (1.0 - fx) + self.at(x1, y0) * fx;
        let b = self.at(x0, y1) * (1.0 - fx) + self.at(x1, y1) * fx;
        a * (1.0 - fy) + b * fy
    }

    /// Regrid onto a target resolution (the coupler's job).
    pub fn regrid(&self, nx: usize, ny: usize) -> Field2d {
        let mut out = Field2d::filled(nx, ny, 0.0);
        for y in 0..ny {
            for x in 0..nx {
                let sx = x as f64 * self.nx as f64 / nx as f64;
                let sy = y as f64 * (self.ny - 1) as f64 / (ny - 1).max(1) as f64;
                out.data[x + nx * y] = self.sample(sx, sy);
            }
        }
        out
    }

    /// Payload bytes when shipped as `f64`.
    pub fn byte_len(&self) -> u64 {
        (self.data.len() * 8) as u64
    }
}

/// The ocean model (MOM-2 stand-in): SST with lateral diffusion and
/// air–sea heat flux.
pub struct Ocean {
    /// Sea-surface temperature, °C.
    pub sst: Field2d,
    /// Effective heat capacity (flux divisor).
    pub heat_capacity: f64,
    /// Lateral diffusivity (grid units²/step).
    pub diffusivity: f64,
}

impl Ocean {
    /// A warm-pool initial state: warm equator, cold poles, plus a warm
    /// anomaly patch (an "El Niño" to track through the coupling).
    pub fn new(nx: usize, ny: usize) -> Self {
        let mut sst = Field2d::filled(nx, ny, 0.0);
        for y in 0..ny {
            let lat = (y as f64 / (ny - 1) as f64 - 0.5) * std::f64::consts::PI;
            for x in 0..nx {
                sst.data[x + nx * y] = 28.0 * lat.cos().powi(2) - 2.0;
            }
        }
        // Anomaly patch.
        let (cx, cy) = (nx / 4, ny / 2);
        for dy in 0..ny / 6 {
            for dx in 0..nx / 8 {
                sst.data[(cx + dx) % nx + nx * ((cy + dy).min(ny - 1))] += 3.0;
            }
        }
        Ocean { sst, heat_capacity: 30.0, diffusivity: 0.05 }
    }

    /// One step given the atmospheric surface temperature (regridded to
    /// the ocean grid). Returns the heat flux field handed back to the
    /// atmosphere (positive = ocean loses heat).
    pub fn step(&mut self, t_air: &Field2d, flux_coeff: f64) -> Field2d {
        assert_eq!((t_air.nx, t_air.ny), (self.sst.nx, self.sst.ny), "coupler must regrid");
        let (nx, ny) = (self.sst.nx, self.sst.ny);
        let mut flux = Field2d::filled(nx, ny, 0.0);
        let old = self.sst.clone();
        for y in 0..ny {
            for x in 0..nx {
                let i = x + nx * y;
                // Diffusion (wrap in x, clamp in y).
                let xm = old.at((x + nx - 1) % nx, y);
                let xp = old.at((x + 1) % nx, y);
                let ym = old.at(x, y.saturating_sub(1));
                let yp = old.at(x, (y + 1).min(ny - 1));
                let lap = xm + xp + ym + yp - 4.0 * old.at(x, y);
                let f = flux_coeff * (old.at(x, y) - t_air.at(x, y));
                flux.data[i] = f;
                self.sst.data[i] += self.diffusivity * lap - f / self.heat_capacity;
            }
        }
        flux
    }
}

/// The atmosphere model (IFS stand-in): surface air temperature advected
/// by a zonal wind, heated by the ocean flux.
pub struct Atmosphere {
    /// Surface air temperature, °C.
    pub t_air: Field2d,
    /// Zonal advection speed, grid cells per step.
    pub wind: f64,
    /// Heat capacity (flux divisor).
    pub heat_capacity: f64,
}

impl Atmosphere {
    /// Isothermal start.
    pub fn new(nx: usize, ny: usize) -> Self {
        Atmosphere { t_air: Field2d::filled(nx, ny, 10.0), wind: 0.8, heat_capacity: 3.0 }
    }

    /// One step given the ocean heat flux (on the atmosphere grid,
    /// positive warms the air).
    pub fn step(&mut self, flux: &Field2d) {
        assert_eq!((flux.nx, flux.ny), (self.t_air.nx, self.t_air.ny), "coupler must regrid");
        let (nx, ny) = (self.t_air.nx, self.t_air.ny);
        let old = self.t_air.clone();
        for y in 0..ny {
            for x in 0..nx {
                // Semi-Lagrangian zonal advection.
                let src = x as f64 - self.wind;
                let adv = old.sample(src, y as f64);
                self.t_air.data[x + nx * y] = adv + flux.at(x, y) / self.heat_capacity;
            }
        }
    }
}

const TAG_SST_FLUX: Tag = Tag(400);
const TAG_TAIR: Tag = Tag(401);

/// Report of a coupled climate run.
#[derive(Clone, Debug)]
pub struct ClimateReport {
    /// Steps run.
    pub steps: usize,
    /// Burst bytes exchanged per step (both directions).
    pub bytes_per_step: u64,
    /// Mean SST per step.
    pub sst_mean: Vec<f64>,
    /// Mean air temperature per step.
    pub tair_mean: Vec<f64>,
}

/// Run the coupled system on 2 ranks: rank 0 = ocean (+ coupler), rank 1
/// = atmosphere. Grids differ (ocean finer), so both directions regrid.
pub fn coupled_run(
    comm: &Comm,
    ocean_grid: (usize, usize),
    atmos_grid: (usize, usize),
    steps: usize,
) -> Option<ClimateReport> {
    assert_eq!(comm.size(), 2, "climate coupling needs 2 ranks");
    if comm.rank() == 0 {
        let mut ocean = Ocean::new(ocean_grid.0, ocean_grid.1);
        let mut sst_mean = Vec::with_capacity(steps);
        let mut bytes = 0u64;
        let mut tair_mean = Vec::with_capacity(steps);
        for _ in 0..steps {
            // Receive air temperature (atmos grid), regrid to ocean.
            let (tair_raw, _) = comm.recv::<f64>(1, TAG_TAIR);
            let tair = Field2d { nx: atmos_grid.0, ny: atmos_grid.1, data: tair_raw }
                .regrid(ocean_grid.0, ocean_grid.1);
            tair_mean.push(tair.mean());
            let flux = ocean.step(&tair, 0.5);
            // Regrid the flux to the atmosphere grid and send.
            let flux_a = flux.regrid(atmos_grid.0, atmos_grid.1);
            bytes = flux_a.byte_len() + (atmos_grid.0 * atmos_grid.1 * 8) as u64;
            comm.send(1, TAG_SST_FLUX, &flux_a.data);
            sst_mean.push(ocean.sst.mean());
        }
        Some(ClimateReport { steps, bytes_per_step: bytes, sst_mean, tair_mean })
    } else {
        let mut atmos = Atmosphere::new(atmos_grid.0, atmos_grid.1);
        for _ in 0..steps {
            comm.send(0, TAG_TAIR, &atmos.t_air.data);
            let (flux_raw, _) = comm.recv::<f64>(0, TAG_SST_FLUX);
            let flux = Field2d { nx: atmos_grid.0, ny: atmos_grid.1, data: flux_raw };
            atmos.step(&flux);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_mpi::Universe;

    #[test]
    fn regrid_preserves_smooth_fields() {
        let mut f = Field2d::filled(32, 16, 0.0);
        for y in 0..16 {
            for x in 0..32 {
                f.data[x + 32 * y] =
                    (2.0 * std::f64::consts::PI * x as f64 / 32.0).sin() + y as f64 * 0.1;
            }
        }
        let up = f.regrid(64, 32);
        let back = up.regrid(32, 16);
        let err: f64 =
            f.data.iter().zip(&back.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 0.05, "regrid roundtrip error {err}");
    }

    #[test]
    fn regrid_preserves_mean_roughly() {
        let f = Field2d::filled(30, 20, 7.5);
        let g = f.regrid(17, 11);
        assert!((g.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn flux_cools_warm_ocean_and_warms_air() {
        let mut ocean = Ocean::new(32, 16);
        let tair = Field2d::filled(32, 16, 5.0);
        let sst0 = ocean.sst.mean();
        let flux = ocean.step(&tair, 0.5);
        assert!(ocean.sst.mean() < sst0, "warm ocean must lose heat to cold air");
        assert!(flux.mean() > 0.0, "net flux should be ocean->air");
        let mut atmos = Atmosphere::new(32, 16);
        let t0 = atmos.t_air.mean();
        atmos.step(&flux);
        assert!(atmos.t_air.mean() > t0, "flux must warm the air");
    }

    #[test]
    fn coupled_system_approaches_equilibrium() {
        let out = Universe::run(2, |comm| coupled_run(&comm, (48, 24), (32, 16), 120));
        let report = out[0].as_ref().unwrap();
        // The air-sea temperature gap shrinks over the run.
        let gap_early = report.sst_mean[2] - report.tair_mean[2];
        let gap_late = report.sst_mean[119] - report.tair_mean[119];
        assert!(
            gap_late.abs() < gap_early.abs(),
            "no approach to equilibrium: {gap_early} -> {gap_late}"
        );
        // Temperatures stay physical.
        for (&s, &t) in report.sst_mean.iter().zip(&report.tair_mean) {
            assert!(s > -10.0 && s < 40.0, "SST {s}");
            assert!(t > -10.0 && t < 40.0, "Tair {t}");
        }
    }

    #[test]
    fn burst_size_matches_paper_magnitude() {
        // At production scale (e.g. 512×256 ocean regridded to a T106
        // atmosphere ~320×160) a surface field is a few hundred KB —
        // "up to 1 MByte in short bursts" with 2-3 fields.
        let field = Field2d::filled(320, 160, 0.0);
        assert!(field.byte_len() > 300_000 && field.byte_len() < 1_048_576);
        // Our test-size exchange is the same pattern, smaller.
        let out = Universe::run(2, |comm| coupled_run(&comm, (48, 24), (32, 16), 3));
        let r = out[0].as_ref().unwrap();
        assert_eq!(r.bytes_per_step, 2 * 32 * 16 * 8);
    }

    #[test]
    fn anomaly_propagates_downwind() {
        // The SST anomaly warms the air above it; advection carries the
        // warm air east (+x).
        let mut ocean = Ocean::new(64, 16);
        let mut atmos = Atmosphere::new(64, 16);
        for _ in 0..30 {
            let flux = ocean.step(&atmos.t_air.clone(), 0.5);
            atmos.step(&flux);
        }
        // Air east of the anomaly centre (x≈16) should now be warmer
        // than air far west of it at the same latitude.
        let east = atmos.t_air.at(28, 8);
        let west = atmos.t_air.at(60, 8);
        assert!(east > west, "east {east} vs west {west}");
    }
}
