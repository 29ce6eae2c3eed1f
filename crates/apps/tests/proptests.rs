//! Property-based tests for the application workloads.

use gtw_apps::climate::Field2d;
use gtw_apps::groundwater::{Grid, Partrace, Trace};
use gtw_desim::StreamRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Darcy pressure stays within the boundary values (maximum
    /// principle) for any heterogeneous conductivity field.
    #[test]
    fn pressure_maximum_principle(seed in 0u64..500) {
        let grid = Grid { nx: 16, ny: 8, nz: 4 };
        let mut t = Trace::heterogeneous(grid, seed);
        t.solve(100);
        for &p in &t.pressure {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&p), "pressure {p}");
        }
    }

    /// Particles never leave the domain laterally and never move
    /// upstream in a homogeneous field.
    #[test]
    fn particles_stay_in_domain(seed in 0u64..200, dt in 0.5f64..4.0) {
        let grid = Grid { nx: 20, ny: 10, nz: 5 };
        let mut t = Trace::homogeneous(grid);
        t.solve(150);
        let field = t.velocity_field();
        let mut p = Partrace::release_plane(grid, 50, seed);
        let mut last_mean = p.mean_x();
        for _ in 0..30 {
            p.step(&field, dt);
            for part in &p.particles {
                prop_assert!(part[1] >= 0.0 && part[1] <= (grid.ny - 1) as f64);
                prop_assert!(part[2] >= 0.0 && part[2] <= (grid.nz - 1) as f64);
                prop_assert!(part[0] <= (grid.nx - 1) as f64 + 1e-9);
            }
            let mean = p.mean_x();
            prop_assert!(mean >= last_mean - 1e-9, "plume moved upstream");
            last_mean = mean;
        }
    }

    /// Bilinear regrid of a constant field is exactly constant, at any
    /// resolutions.
    #[test]
    fn regrid_constant_exact(v in -100.0f64..100.0,
                             nx in 4usize..40, ny in 4usize..40,
                             mx in 4usize..40, my in 4usize..40) {
        let f = Field2d::filled(nx, ny, v);
        let g = f.regrid(mx, my);
        for &x in &g.data {
            prop_assert!((x - v).abs() < 1e-9);
        }
    }

    /// Regrid output is bounded by the input range (bilinear is a convex
    /// combination).
    #[test]
    fn regrid_bounded(seed in 0u64..200, mx in 4usize..30, my in 4usize..30) {
        let mut rng = StreamRng::new(seed, "field");
        let mut f = Field2d::filled(12, 9, 0.0);
        for v in &mut f.data {
            *v = rng.uniform_in(-5.0, 5.0);
        }
        let (lo, hi) = f.data.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let g = f.regrid(mx, my);
        for &x in &g.data {
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9);
        }
    }
}
