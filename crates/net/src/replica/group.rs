//! Wiring: [`ReplicaGroup`] builds `2f + 1` replicas plus the proxy
//! that fronts them, installs fault plans on their control links, and
//! answers the two questions every report asks of a group — who leads,
//! and do the live replicas agree.

use gtw_desim::component::msg;
use gtw_desim::fault::{FaultInjector, FaultPlan, Schedule};
use gtw_desim::{ComponentId, SimTime, Simulator};

use super::agent::ReplicatedAgent;
use super::raft::{BootReplica, GroupConfig, Replica, ReplicaDown, ReplicaUp};
use crate::units::Bandwidth;

/// A built replica group: `2f + 1` [`Replica`]s plus the
/// [`ReplicatedAgent`] proxy that fronts them as a signalling hop.
pub struct ReplicaGroup {
    /// Group label; replicas are `{label}/r{i}`, the proxy is
    /// `{label}/client`.
    pub label: String,
    /// Component ids of the replicas, in index order.
    pub replicas: Vec<ComponentId>,
    /// The proxy agent to put on signalling paths.
    pub proxy: ComponentId,
}

impl ReplicaGroup {
    /// Build `n` (odd, `>= 3`) voting replicas guarding a port of
    /// `capacity`, plus `spares` non-voting observers (`r{n}..`) and the
    /// proxy, and boot every replica at `t = 0`. Spares receive every
    /// append and snapshot but never vote or count toward quorum until
    /// an [`AddMember`](super::AddMember) change commits through the
    /// log. Sizes whose majority math is degenerate are refused.
    pub fn build(
        sim: &mut Simulator,
        label: impl Into<String>,
        n: usize,
        spares: usize,
        capacity: Bandwidth,
        cfg: GroupConfig,
    ) -> Result<Self, String> {
        let label = label.into();
        if n % 2 == 0 {
            return Err(format!(
                "replica group '{label}': even size {n} has degenerate majority math; \
                 use 2f+1 (odd) replicas"
            ));
        }
        if n < 3 {
            return Err(format!(
                "replica group '{label}': size {n} tolerates no failures (f = 0); \
                 a replicated control plane needs at least 3 replicas"
            ));
        }
        let replicas: Vec<ComponentId> = (0..n + spares)
            .map(|i| {
                let r = Replica::new(format!("{label}/r{i}"), i, capacity, n, cfg.clone());
                sim.add_component(r)
            })
            .collect();
        for &id in &replicas {
            sim.component_mut::<Replica>(id).peers = replicas.clone();
            sim.send_at(SimTime::ZERO, id, msg(BootReplica));
        }
        let client =
            ReplicatedAgent::new(format!("{label}/client"), replicas.clone(), cfg.request_deadline);
        let proxy = sim.add_component(client);
        Ok(ReplicaGroup { label, replicas, proxy })
    }

    /// Switch the proxy between single-domain `Reserve` admissions and
    /// the two-phase cross-domain hand-off (`Prepare`/`Confirm`).
    pub fn set_two_phase(&self, sim: &mut Simulator, on: bool) {
        sim.component_mut::<ReplicatedAgent>(self.proxy).two_phase = on;
    }

    /// Install the plan's outage windows on this group's control links.
    /// Targets follow the directed naming `link/{from}/{to}` with node
    /// labels `{group}/r{i}` and `{group}/client`, which is what
    /// [`FaultPlan::partition`] emits.
    pub fn apply_fault_plan(&self, sim: &mut Simulator, plan: &FaultPlan) {
        let client = format!("{}/client", self.label);
        let to_replicas = |me: &str| -> Vec<Option<FaultInjector>> {
            (0..self.replicas.len())
                .map(|j| plan.injector(&format!("link/{me}/{}/r{j}", self.label)))
                .collect()
        };
        for (i, &id) in self.replicas.iter().enumerate() {
            let me = format!("{}/r{i}", self.label);
            let r = sim.component_mut::<Replica>(id);
            r.link_faults = to_replicas(&me);
            r.client_fault = plan.injector(&format!("link/{me}/{client}"));
        }
        sim.component_mut::<ReplicatedAgent>(self.proxy).link_faults = to_replicas(&client);
    }

    /// The index of the current leader, if any.
    pub fn leader(&self, sim: &Simulator) -> Option<usize> {
        leader_of(sim, &self.replicas)
    }

    /// True when every *live* replica holds byte-identical applied CAC
    /// state.
    pub fn states_converged(&self, sim: &Simulator) -> bool {
        states_converged(sim, &self.replicas)
    }
}

/// True when every *live* replica of `replicas` holds byte-identical
/// applied CAC state (compared via
/// [`CacState::encode`](super::CacState::encode)).
pub fn states_converged(sim: &Simulator, replicas: &[ComponentId]) -> bool {
    let mut digests = replicas.iter().filter_map(|&id| {
        let r = sim.component::<Replica>(id);
        r.is_alive().then(|| r.digest())
    });
    let first = digests.next();
    digests.all(|d| Some(&d) == first.as_ref())
}

/// The live replica claiming leadership in the highest term, if any —
/// usable inside `sim.call_at` closures to crash "whoever leads now".
pub fn leader_of(sim: &Simulator, replicas: &[ComponentId]) -> Option<usize> {
    replicas
        .iter()
        .enumerate()
        .filter(|&(_, &id)| {
            let r = sim.component::<Replica>(id);
            r.is_alive() && r.is_leader()
        })
        .max_by_key(|&(_, &id)| sim.component::<Replica>(id).term())
        .map(|(i, _)| i)
}

/// Take replica `idx` down at the start of every window of `schedule`
/// and bring it back at the end. With `wipe`, each outage is a full
/// crash (state lost, snapshot catch-up on rejoin) rather than a hang.
pub fn schedule_replica_outages(
    sim: &mut Simulator,
    group: &ReplicaGroup,
    idx: usize,
    schedule: &Schedule,
    wipe: bool,
) {
    let id = group.replicas[idx];
    for w in schedule.windows() {
        sim.send_at(w.start, id, msg(ReplicaDown { wipe }));
        sim.send_at(w.end, id, msg(ReplicaUp));
    }
}
