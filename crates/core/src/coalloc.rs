//! Co-allocation: simultaneous reservation of machines, instruments and
//! network capacity.
//!
//! The paper closes with: "the problem of simultaneous resource
//! allocation in a distributed environment will become more apparent
//! when the application is used for clinical research." This module
//! implements that scheduler: jobs request *sets* of resources (PEs on a
//! machine, the MRI scanner, WAN bandwidth) for a common time window,
//! and the scheduler finds the earliest start at which every piece is
//! simultaneously available (all-or-nothing advance reservation).

use std::collections::HashMap;

/// A reservable resource pool with integer capacity (PEs, Mbit/s, scanner
/// slots...).
#[derive(Clone, Debug)]
pub struct Resource {
    /// Name ("Cray T3E-600", "WAN Mbit/s", "MRI scanner").
    pub name: String,
    /// Total capacity.
    pub capacity: u64,
}

/// One requirement of a job.
#[derive(Clone, Debug)]
pub struct Requirement {
    /// Resource name.
    pub resource: String,
    /// Units needed for the whole window.
    pub amount: u64,
}

/// A co-allocation request.
#[derive(Clone, Debug)]
pub struct Job {
    /// Job name.
    pub name: String,
    /// Requirements that must hold simultaneously.
    pub needs: Vec<Requirement>,
    /// Window length, seconds.
    pub duration_s: u64,
    /// Earliest acceptable start, seconds.
    pub release_s: u64,
}

/// A granted reservation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Job name.
    pub job: String,
    /// Start time, seconds.
    pub start_s: u64,
    /// End time, seconds.
    pub end_s: u64,
}

/// The co-allocation scheduler.
#[derive(Clone, Debug, Default)]
pub struct CoAllocator {
    resources: HashMap<String, Resource>,
    /// Committed reservations with their per-resource amounts.
    committed: Vec<(Reservation, Vec<Requirement>)>,
}

impl CoAllocator {
    /// Empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource pool.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: u64) {
        let name = name.into();
        self.resources.insert(name.clone(), Resource { name, capacity });
    }

    /// Usage of `resource` during `[start, end)`.
    fn usage(&self, resource: &str, start: u64, end: u64) -> u64 {
        self.committed
            .iter()
            .filter(|(r, _)| r.start_s < end && start < r.end_s)
            .flat_map(|(_, needs)| needs.iter())
            .filter(|n| n.resource == resource)
            .map(|n| n.amount)
            .sum()
    }

    /// Whether `job` fits starting at `start`.
    fn fits_at(&self, job: &Job, start: u64) -> bool {
        job.needs.iter().all(|n| {
            let cap = match self.resources.get(&n.resource) {
                Some(r) => r.capacity,
                None => return false,
            };
            self.usage(&n.resource, start, start + job.duration_s) + n.amount <= cap
        })
    }

    /// Candidate start times: the job's release plus every committed
    /// reservation end after it (capacity only frees at those instants).
    fn candidates(&self, job: &Job) -> Vec<u64> {
        let mut c = vec![job.release_s];
        for (r, _) in &self.committed {
            if r.end_s > job.release_s {
                c.push(r.end_s);
            }
        }
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Reserve the earliest simultaneous window for `job`. Returns `Err`
    /// if any requirement exceeds total capacity or names an unknown
    /// resource.
    pub fn reserve(&mut self, job: &Job) -> Result<Reservation, String> {
        for n in &job.needs {
            match self.resources.get(&n.resource) {
                None => return Err(format!("unknown resource '{}'", n.resource)),
                Some(r) if n.amount > r.capacity => {
                    return Err(format!(
                        "'{}' needs {} of '{}' but capacity is {}",
                        job.name, n.amount, n.resource, r.capacity
                    ))
                }
                _ => {}
            }
        }
        let start = self
            .candidates(job)
            .into_iter()
            .find(|&s| self.fits_at(job, s))
            .expect("some candidate always fits once prior jobs end");
        let res =
            Reservation { job: job.name.clone(), start_s: start, end_s: start + job.duration_s };
        self.committed.push((res.clone(), job.needs.clone()));
        Ok(res)
    }

    /// All committed reservations.
    pub fn reservations(&self) -> impl Iterator<Item = &Reservation> {
        self.committed.iter().map(|(r, _)| r)
    }
}

/// The testbed's resource pools for the co-allocation experiments.
pub fn testbed_resources() -> CoAllocator {
    let mut a = CoAllocator::new();
    a.add_resource("Cray T3E-600", 512);
    a.add_resource("Cray T3E-1200", 512);
    a.add_resource("IBM SP2", 34);
    a.add_resource("SGI Onyx 2", 12);
    a.add_resource("MRI scanner", 1);
    a.add_resource("WAN Mbit/s", 2400);
    a
}

/// The fMRI session as a co-allocation job: scanner + 256 T3E PEs +
/// Onyx 2 pipeline + workbench-class WAN bandwidth, simultaneously.
pub fn fmri_session(name: &str, release_s: u64, duration_s: u64) -> Job {
    Job {
        name: name.to_string(),
        needs: vec![
            Requirement { resource: "MRI scanner".into(), amount: 1 },
            Requirement { resource: "Cray T3E-600".into(), amount: 256 },
            Requirement { resource: "SGI Onyx 2".into(), amount: 8 },
            Requirement { resource: "WAN Mbit/s".into(), amount: 700 },
        ],
        duration_s,
        release_s,
    }
}

/// Drive a reservation's WAN share through the signalling plane: build a
/// SETUP along the FZJ→GMD trunk agents and verify admission matches the
/// scheduler's bandwidth accounting. Returns the signalled setup latency
/// on success.
pub fn signal_wan_share(reserved_mbps: f64, concurrent_mbps: &[f64]) -> Result<f64, usize> {
    use gtw_desim::{SimDuration, SimTime, Simulator};
    use gtw_net::signaling::{place_call, CallId, CallOriginator, CallOutcome, SignallingAgent};
    use gtw_net::units::Bandwidth;
    let mut sim = Simulator::new();
    let origin = sim.add_component(CallOriginator::default());
    // The trunk: FZJ access port, OC-48 WAN, GMD access port.
    // Aggregation ports fan in many access links, so their admissible
    // aggregate exceeds the trunk; the far-end access port is a single
    // 622 Mbit/s attachment.
    let path: Vec<_> =
        [("FZJ aggregation", 4800.0), ("OC-48 trunk", 2400.0), ("GMD access", 622.08)]
            .iter()
            .map(|&(name, mbps)| {
                sim.add_component(SignallingAgent::new(
                    name,
                    Bandwidth::from_mbps(mbps),
                    SimDuration::from_micros(500),
                ))
            })
            .collect();
    // Pre-existing calls.
    for (k, &mbps) in concurrent_mbps.iter().enumerate() {
        place_call(
            &mut sim,
            origin,
            &path,
            CallId(k as u64),
            Bandwidth::from_mbps(mbps),
            SimTime::from_millis(k as u64),
        );
    }
    let ours = CallId(1000);
    place_call(
        &mut sim,
        origin,
        &path,
        ours,
        Bandwidth::from_mbps(reserved_mbps),
        SimTime::from_millis(100),
    );
    sim.run();
    let o = sim.component::<CallOriginator>(origin);
    match o.results.iter().find(|(id, _)| *id == ours) {
        Some((_, CallOutcome::Connected { setup_s })) => Ok(*setup_s),
        Some((_, CallOutcome::Rejected { at_hop, .. })) => Err(*at_hop),
        None => unreachable!("call result must exist"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_starts_at_release() {
        let mut a = testbed_resources();
        let r = a.reserve(&fmri_session("exam-1", 100, 1800)).unwrap();
        assert_eq!(r.start_s, 100);
        assert_eq!(r.end_s, 1900);
    }

    #[test]
    fn scanner_serializes_sessions() {
        // Two fMRI sessions: plenty of PEs, but only one scanner — the
        // second must wait even though every other resource is free.
        let mut a = testbed_resources();
        let r1 = a.reserve(&fmri_session("exam-1", 0, 1800)).unwrap();
        let r2 = a.reserve(&fmri_session("exam-2", 0, 1800)).unwrap();
        assert_eq!(r1.start_s, 0);
        assert_eq!(r2.start_s, 1800, "second session must queue on the scanner");
    }

    #[test]
    fn pe_capacity_shared() {
        let mut a = testbed_resources();
        // Two 256-PE jobs without the scanner fit simultaneously.
        let job = |n: &str| Job {
            name: n.into(),
            needs: vec![Requirement { resource: "Cray T3E-600".into(), amount: 256 }],
            duration_s: 100,
            release_s: 0,
        };
        assert_eq!(a.reserve(&job("a")).unwrap().start_s, 0);
        assert_eq!(a.reserve(&job("b")).unwrap().start_s, 0);
        // The third queues.
        assert_eq!(a.reserve(&job("c")).unwrap().start_s, 100);
    }

    #[test]
    fn wan_bandwidth_is_a_real_constraint() {
        let mut a = testbed_resources();
        let video = Job {
            name: "D1 video".into(),
            needs: vec![Requirement { resource: "WAN Mbit/s".into(), amount: 270 }],
            duration_s: 600,
            release_s: 0,
        };
        // 8 × 270 = 2160 fits in 2400; the 9th stream queues.
        for i in 0..8 {
            assert_eq!(a.reserve(&video).unwrap().start_s, 0, "stream {i}");
        }
        assert_eq!(a.reserve(&video).unwrap().start_s, 600);
    }

    #[test]
    fn mixed_workload_interleaves() {
        let mut a = testbed_resources();
        let fmri = a.reserve(&fmri_session("exam", 0, 1000)).unwrap();
        // Groundwater coupling wants SP2 + T3E PEs + modest WAN: fits
        // alongside the fMRI session.
        let gw = Job {
            name: "groundwater".into(),
            needs: vec![
                Requirement { resource: "IBM SP2".into(), amount: 32 },
                Requirement { resource: "Cray T3E-600".into(), amount: 128 },
                Requirement { resource: "WAN Mbit/s".into(), amount: 250 },
            ],
            duration_s: 500,
            release_s: 0,
        };
        let r = a.reserve(&gw).unwrap();
        assert_eq!(r.start_s, 0, "groundwater should co-run: {fmri:?} {r:?}");
        // A second fMRI job waits for the scanner, not for PEs.
        let r2 = a.reserve(&fmri_session("exam-2", 0, 500)).unwrap();
        assert_eq!(r2.start_s, 1000);
    }

    #[test]
    fn impossible_requests_rejected() {
        let mut a = testbed_resources();
        let too_big = Job {
            name: "impossible".into(),
            needs: vec![Requirement { resource: "Cray T3E-600".into(), amount: 1024 }],
            duration_s: 10,
            release_s: 0,
        };
        assert!(a.reserve(&too_big).is_err());
        let unknown = Job {
            name: "weird".into(),
            needs: vec![Requirement { resource: "Earth Simulator".into(), amount: 1 }],
            duration_s: 10,
            release_s: 0,
        };
        assert!(a.reserve(&unknown).is_err());
    }

    #[test]
    fn signalling_agrees_with_the_scheduler() {
        // Two 270 Mbit/s streams fit the far-end 622 access; the third
        // is refused there — before the trunk ever becomes an issue.
        let r = signal_wan_share(270.0, &[270.0; 2]);
        assert_eq!(r, Err(2), "far-end access should refuse the 3rd stream");
        // With room, the call connects in milliseconds.
        let ok = signal_wan_share(270.0, &[270.0]).expect("should connect");
        assert!(ok > 0.0 && ok < 0.01, "setup {ok}");
        // The far-end access port (622) can also be the binding hop.
        let r2 = signal_wan_share(400.0, &[300.0]);
        assert_eq!(r2, Err(2), "access port should refuse");
    }

    #[test]
    fn release_time_respected() {
        let mut a = testbed_resources();
        let r = a.reserve(&fmri_session("late", 5000, 100)).unwrap();
        assert_eq!(r.start_s, 5000);
        assert_eq!(a.reservations().count(), 1);
    }
}
