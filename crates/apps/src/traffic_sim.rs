//! Distributed road-traffic simulation — the §5 extension project
//! ("projects that range from distributed traffic simulation and
//! visualization ...", run over the dark fibre to DLR and the
//! University of Cologne).
//!
//! The model is the Nagel–Schreckenberg cellular automaton (developed at
//! Cologne/Jülich in exactly this era): a ring road of cells, cars with
//! integer velocities 0..=v_max, per step (1) accelerate, (2) brake to
//! the gap ahead, (3) randomize (dawdle) with probability `p`, (4) move.
//! The distributed version splits the ring into per-rank segments with
//! halo exchange of the `v_max` downstream cells and migration of cars
//! that cross segment boundaries — the paper-era pattern of coupling
//! simulation segments across the WAN.

use gtw_desim::StreamRng;
use gtw_mpi::{Comm, PointToPoint, Tag};

/// Maximum velocity (cells per step), the classic NaSch value.
pub const V_MAX: usize = 5;

/// A road segment: `cells[i]` is `None` (empty) or `Some(velocity)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Road {
    /// Cell occupancy.
    pub cells: Vec<Option<u8>>,
    /// Dawdling probability.
    pub p_dawdle: f64,
}

impl Road {
    /// A ring with `cars` cars placed uniformly at velocity 0.
    pub fn ring(len: usize, cars: usize, p_dawdle: f64, seed: u64) -> Self {
        assert!(cars <= len, "more cars than cells");
        let mut cells = vec![None; len];
        let mut rng = StreamRng::new(seed, "traffic-init");
        let mut placed = 0;
        while placed < cars {
            let i = rng.below(len as u64) as usize;
            if cells[i].is_none() {
                cells[i] = Some(0);
                placed += 1;
            }
        }
        Road { cells, p_dawdle }
    }

    /// Number of cars.
    pub fn car_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Density (cars per cell).
    pub fn density(&self) -> f64 {
        self.car_count() as f64 / self.cells.len() as f64
    }

    /// One NaSch step on the ring. Returns the flow: cars that crossed
    /// the measurement point (cell 0 boundary) this step.
    pub fn step(&mut self, rng: &mut StreamRng) -> usize {
        let n = self.cells.len();
        // Gap ahead of each car (wrapping).
        let mut next = vec![None; n];
        let mut flow = 0;
        for i in 0..n {
            let Some(v) = self.cells[i] else { continue };
            let mut gap = 0;
            while gap < V_MAX + 1 {
                if self.cells[(i + gap + 1) % n].is_some() {
                    break;
                }
                gap += 1;
            }
            // 1. accelerate  2. brake  3. dawdle.
            let mut v = (v as usize + 1).min(V_MAX).min(gap);
            if v > 0 && rng.uniform() < self.p_dawdle {
                v -= 1;
            }
            // 4. move.
            let dest = (i + v) % n;
            if i + v >= n {
                flow += 1;
            }
            next[dest] = Some(v as u8);
        }
        self.cells = next;
        flow
    }

    /// Run `steps` and return mean flow (cars per step through the
    /// measurement point).
    pub fn mean_flow(&mut self, steps: usize, rng: &mut StreamRng) -> f64 {
        let mut total = 0;
        for _ in 0..steps {
            total += self.step(rng);
        }
        total as f64 / steps as f64
    }

    /// Space-time occupancy raster over `steps` (for the visualization
    /// half of the project): row `t` is the road at step `t`, `true` =
    /// occupied.
    pub fn space_time(&mut self, steps: usize, rng: &mut StreamRng) -> Vec<Vec<bool>> {
        let mut raster = Vec::with_capacity(steps);
        for _ in 0..steps {
            raster.push(self.cells.iter().map(|c| c.is_some()).collect());
            self.step(rng);
        }
        raster
    }
}

/// The fundamental diagram: mean flow at each density.
pub fn fundamental_diagram(
    len: usize,
    densities: &[f64],
    steps: usize,
    p_dawdle: f64,
    seed: u64,
) -> Vec<(f64, f64)> {
    densities
        .iter()
        .map(|&rho| {
            let cars = (rho * len as f64).round() as usize;
            let mut road = Road::ring(len, cars.min(len), p_dawdle, seed);
            let mut rng = StreamRng::new(seed, &format!("traffic-{cars}"));
            // Warm up, then measure.
            road.mean_flow(steps / 2, &mut rng);
            let flow = road.mean_flow(steps, &mut rng);
            (road.density(), flow)
        })
        .collect()
}

const TAG_HALO: Tag = Tag(600);
const TAG_MIGRATE: Tag = Tag(601);

/// One distributed NaSch step over a communicator: each rank owns a
/// contiguous segment of the ring (rank order = road order). Returns the
/// cars that migrated out of this rank's segment.
///
/// Protocol per step: send the occupancy of the first `V_MAX` own cells
/// to the left (upstream) neighbour (its look-ahead halo), apply the
/// NaSch rules locally, then migrate cars whose destination lies beyond
/// the segment end to the right neighbour.
pub fn distributed_step(comm: &Comm, segment: &mut Road, rng: &mut StreamRng) -> usize {
    let size = comm.size();
    let me = comm.rank();
    let left = (me + size - 1) % size;
    let right = (me + 1) % size;
    let n = segment.cells.len();
    assert!(n > V_MAX, "segment shorter than the look-ahead");

    // 1. Halo exchange: my first V_MAX cells go upstream.
    let head: Vec<f64> =
        segment.cells[..V_MAX].iter().map(|c| if c.is_some() { 1.0 } else { 0.0 }).collect();
    comm.send(left, TAG_HALO, &head);
    let (halo, _) = comm.recv::<f64>(right, TAG_HALO);

    // 2. Local rules with the halo as virtual cells n..n+V_MAX.
    let occupied = |cells: &[Option<u8>], i: usize| -> bool {
        if i < n {
            cells[i].is_some()
        } else {
            halo[i - n] > 0.5
        }
    };
    let mut next = vec![None; n];
    let mut migrants: Vec<(usize, u8)> = Vec::new(); // (offset into right segment, v)
    for i in 0..n {
        let Some(v) = segment.cells[i] else { continue };
        let mut gap = 0;
        while gap < V_MAX + 1 && i + gap + 1 < n + V_MAX {
            if occupied(&segment.cells, i + gap + 1) {
                break;
            }
            gap += 1;
        }
        let mut v = (v as usize + 1).min(V_MAX).min(gap);
        if v > 0 && rng.uniform() < segment.p_dawdle {
            v -= 1;
        }
        let dest = i + v;
        if dest < n {
            next[dest] = Some(v as u8);
        } else {
            migrants.push((dest - n, v as u8));
        }
    }

    // 3. Migration: ship boundary-crossing cars to the right neighbour.
    let mig_payload: Vec<f64> =
        migrants.iter().flat_map(|&(off, v)| [off as f64, v as f64]).collect();
    comm.send(right, TAG_MIGRATE, &mig_payload);
    let (incoming, _) = comm.recv::<f64>(left, TAG_MIGRATE);
    segment.cells = next;
    for pair in incoming.chunks_exact(2) {
        let off = pair[0] as usize;
        let v = pair[1] as u8;
        debug_assert!(segment.cells[off].is_none(), "migration collision");
        segment.cells[off] = Some(v);
    }
    migrants.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_mpi::Universe;

    #[test]
    fn car_count_conserved_on_ring() {
        let mut road = Road::ring(200, 60, 0.25, 1);
        let mut rng = StreamRng::new(1, "t");
        for _ in 0..300 {
            road.step(&mut rng);
            assert_eq!(road.car_count(), 60);
        }
    }

    #[test]
    fn free_flow_speed_approaches_vmax() {
        // Very low density, no dawdling: every car cruises at V_MAX.
        let mut road = Road::ring(500, 5, 0.0, 2);
        let mut rng = StreamRng::new(2, "t");
        road.mean_flow(50, &mut rng);
        for c in road.cells.iter().flatten() {
            assert_eq!(*c as usize, V_MAX);
        }
    }

    #[test]
    fn fundamental_diagram_has_a_peak() {
        // Flow rises with density in free flow, collapses in the jammed
        // branch — the signature of the NaSch model.
        let d = fundamental_diagram(400, &[0.05, 0.12, 0.5, 0.85], 400, 0.25, 3);
        let flows: Vec<f64> = d.iter().map(|&(_, f)| f).collect();
        assert!(flows[1] > flows[0], "{d:?}");
        assert!(flows[1] > flows[2], "{d:?}");
        assert!(flows[2] > flows[3], "{d:?}");
        // Peak flow in the known range for p=0.25 (~0.3-0.45 cars/step
        // per measurement point... in units of cars/step over the ring).
        let peak = flows.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 0.1 && peak < 1.0, "peak {peak}");
    }

    #[test]
    fn jam_forms_at_high_density() {
        let mut road = Road::ring(300, 200, 0.25, 4);
        let mut rng = StreamRng::new(4, "t");
        road.mean_flow(200, &mut rng);
        // Most cars are stopped or crawling.
        let slow = road.cells.iter().flatten().filter(|&&v| v <= 1).count();
        assert!(slow * 10 >= road.car_count() * 7, "slow {slow} of {}", road.car_count());
    }

    #[test]
    fn space_time_raster_shape() {
        let mut road = Road::ring(100, 30, 0.25, 5);
        let mut rng = StreamRng::new(5, "t");
        let raster = road.space_time(50, &mut rng);
        assert_eq!(raster.len(), 50);
        for row in &raster {
            assert_eq!(row.len(), 100);
            assert_eq!(row.iter().filter(|&&b| b).count(), 30);
        }
    }

    #[test]
    fn distributed_ring_conserves_cars() {
        let out = Universe::run(4, |comm| {
            let mut segment = Road::ring(60, 18, 0.25, 100 + comm.rank() as u64);
            let mut rng = StreamRng::new(42, &format!("rank{}", comm.rank()));
            for _ in 0..100 {
                distributed_step(&comm, &mut segment, &mut rng);
            }
            segment.car_count()
        });
        let total: usize = out.iter().sum();
        assert_eq!(total, 4 * 18, "cars lost or duplicated: {out:?}");
    }

    #[test]
    fn distributed_flow_matches_serial_statistics() {
        // Same global density and dawdle probability: the distributed
        // ring's mean velocity must match the serial ring's within
        // stochastic tolerance.
        let steps = 400;
        let serial_v = {
            let mut road = Road::ring(240, 48, 0.2, 7);
            let mut rng = StreamRng::new(7, "serial");
            road.mean_flow(steps / 2, &mut rng);
            // Mean velocity = flow × length / cars (ring fundamental
            // relation); measure directly instead.
            let mut vsum = 0.0;
            for _ in 0..steps {
                road.step(&mut rng);
                vsum += road.cells.iter().flatten().map(|&v| v as f64).sum::<f64>()
                    / road.car_count() as f64;
            }
            vsum / steps as f64
        };
        let out = Universe::run(3, move |comm| {
            let mut segment = Road::ring(80, 16, 0.2, 200 + comm.rank() as u64);
            let mut rng = StreamRng::new(11, &format!("rank{}", comm.rank()));
            for _ in 0..steps / 2 {
                distributed_step(&comm, &mut segment, &mut rng);
            }
            let mut vsum = 0.0;
            for _ in 0..steps {
                distributed_step(&comm, &mut segment, &mut rng);
                let cars = segment.car_count().max(1);
                vsum +=
                    segment.cells.iter().flatten().map(|&v| v as f64).sum::<f64>() / cars as f64;
            }
            vsum / steps as f64
        });
        let dist_v = out.iter().sum::<f64>() / out.len() as f64;
        assert!((dist_v - serial_v).abs() < 0.5, "distributed v {dist_v} vs serial {serial_v}");
    }

    #[test]
    fn migration_happens_across_ranks() {
        let out = Universe::run(2, |comm| {
            let mut segment = Road::ring(40, 10, 0.1, 300 + comm.rank() as u64);
            let mut rng = StreamRng::new(13, &format!("r{}", comm.rank()));
            let mut migrated = 0;
            for _ in 0..100 {
                migrated += distributed_step(&comm, &mut segment, &mut rng);
            }
            migrated
        });
        assert!(out.iter().all(|&m| m > 10), "cars should cross segment boundaries: {out:?}");
    }
}
