//! Site topology for a communicator: which ranks share a machine, who
//! leads each site, and the canonical reduction tree.
//!
//! The paper's metacomputer joins supercomputers over a 100 km gigabit
//! trunk whose latency dwarfs any internal fabric. MPICH-G2-style
//! multi-level collectives exploit that asymmetry: reduce inside each
//! site first, cross the WAN once per site, broadcast back locally. The
//! structural information those collectives need — site membership and
//! site leaders — lives here, derived from the [`Placement`] the
//! `Universe` launched the world with.
//!
//! ## The canonical fold
//!
//! Floating-point reduction is not associative, so the *shape* of the
//! reduction tree decides the bits of the result. To keep the flat and
//! the topology-aware paths bit-identical (the property the equivalence
//! suite in `tests/collectives.rs` pins), both fold along the same
//! canonical tree:
//!
//! 1. within each site, member contributions fold in ascending rank
//!    order into a site partial;
//! 2. site partials fold in site order (sites appear in order of their
//!    leader's rank, and the leader is the lowest rank of the site).
//!
//! On a single-machine placement this degenerates to one site folded in
//! rank order — exactly the chain the flat collectives used before the
//! topology layer existed, so historical results are unchanged.

use crate::comm::ReduceOp;
use crate::machine::Placement;

/// One site of the metacomputer: the ranks of a communicator that share
/// a machine, with the lowest rank acting as leader.
#[derive(Clone, Debug)]
pub struct Site {
    /// Lowest rank of the site; relays all WAN traffic for its members.
    pub leader: usize,
    /// Index of the hosting machine in the placement's machine list.
    pub machine: usize,
    /// Member ranks in ascending order (includes the leader).
    pub members: Vec<usize>,
}

/// Grouping of a communicator's ranks by machine, in first-appearance
/// (= leader-rank) order.
#[derive(Clone, Debug)]
pub struct CommTopology {
    site_of: Vec<usize>,
    sites: Vec<Site>,
}

impl CommTopology {
    /// Derive the topology of `placement`. Ranks are scanned in
    /// ascending order, so sites are ordered by their leader's rank and
    /// rank 0 always leads the first site (the global leader).
    pub fn from_placement(placement: &Placement) -> Self {
        let mut site_of = vec![0usize; placement.len()];
        let mut sites: Vec<Site> = Vec::new();
        for (rank, site) in site_of.iter_mut().enumerate() {
            let machine = placement.machine_index(rank);
            match sites.iter().position(|s| s.machine == machine) {
                Some(i) => {
                    sites[i].members.push(rank);
                    *site = i;
                }
                None => {
                    *site = sites.len();
                    sites.push(Site { leader: rank, machine, members: vec![rank] });
                }
            }
        }
        CommTopology { site_of, sites }
    }

    /// Number of sites (machines that actually host ranks).
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// The sites, in leader-rank order.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Index of the site hosting `rank`.
    pub fn site_of(&self, rank: usize) -> usize {
        self.site_of[rank]
    }

    /// The leader of `rank`'s site.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.sites[self.site_of[rank]].leader
    }

    /// Leader of the first site — always rank 0 by construction.
    pub fn global_leader(&self) -> usize {
        self.sites[0].leader
    }

    /// Modeled WAN crossings of a *flat* rank-0-rooted
    /// reduce-then-broadcast over this topology: every rank off the root
    /// site sends its contribution across the WAN and receives the
    /// result back.
    pub fn flat_allreduce_wan_crossings(&self) -> u64 {
        let off_site = self.site_of.iter().filter(|&&s| s != 0).count() as u64;
        2 * off_site
    }

    /// Modeled WAN crossings of the topology-aware allreduce: one
    /// partial up and one result down per foreign site.
    pub fn topo_allreduce_wan_crossings(&self) -> u64 {
        2 * (self.num_sites() as u64 - 1)
    }

    /// Fold `parts` — one contribution per rank, indexed by rank — along
    /// the canonical site tree. All contributions must share a length.
    pub fn canonical_fold(&self, op: ReduceOp, parts: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(parts.len(), self.site_of.len(), "one contribution per rank");
        let partials = self
            .sites
            .iter()
            .map(|site| fold_in_order(op, site.members.iter().map(|&m| parts[m].clone())));
        fold_in_order(op, partials)
    }
}

/// Fold contributions elementwise in iteration order (a left fold — the
/// chain both levels of the canonical tree use). Panics on an empty
/// iterator; mismatched lengths truncate to the accumulator's length,
/// matching the flat collectives' historical zip semantics.
pub fn fold_in_order(op: ReduceOp, parts: impl IntoIterator<Item = Vec<f64>>) -> Vec<f64> {
    let mut iter = parts.into_iter();
    // Fires only for an outside caller folding nothing: this crate folds a
    // site's members or the sites of a world, never an empty list.
    let mut acc = iter.next().expect("fold over at least one contribution");
    for v in iter {
        for (a, b) in acc.iter_mut().zip(v) {
            *a = op.combine(*a, b);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{FabricSpec, MachineSpec};

    fn split_6_2() -> Placement {
        Placement::split(
            6,
            2,
            MachineSpec::new("T3E", FabricSpec::t3e_torus()),
            MachineSpec::new("SP2", FabricSpec::sp2_switch()),
            FabricSpec::wan_testbed(),
        )
    }

    #[test]
    fn sites_group_by_machine_in_leader_order() {
        let topo = CommTopology::from_placement(&split_6_2());
        assert_eq!(topo.num_sites(), 2);
        assert_eq!(topo.sites()[0].members, vec![0, 1]);
        assert_eq!(topo.sites()[1].members, vec![2, 3, 4, 5]);
        assert_eq!(topo.leader_of(4), 2);
        assert_eq!((topo.leader_of(2), topo.leader_of(3)), (2, 2));
        assert_eq!(topo.global_leader(), 0);
    }

    #[test]
    fn interleaved_placement_keeps_leader_order() {
        // Ranks alternate machines: sites must appear in leader order
        // (0 then 1), members in rank order.
        let machines = vec![
            MachineSpec::new("A", FabricSpec::smp_shared()),
            MachineSpec::new("B", FabricSpec::smp_shared()),
        ];
        let p = Placement::custom(machines, vec![0, 1, 0, 1, 0], FabricSpec::wan_testbed());
        let topo = CommTopology::from_placement(&p);
        assert_eq!(topo.sites()[0].members, vec![0, 2, 4]);
        assert_eq!(topo.sites()[1].members, vec![1, 3]);
        assert_eq!(topo.leader_of(3), 1);
    }

    #[test]
    fn wan_crossing_model_counts_sites_not_ranks() {
        let topo = CommTopology::from_placement(&split_6_2());
        assert_eq!(topo.flat_allreduce_wan_crossings(), 8); // 4 foreign ranks × 2
        assert_eq!(topo.topo_allreduce_wan_crossings(), 2); // 1 foreign site × 2
    }

    #[test]
    fn canonical_fold_matches_rank_order_on_one_site() {
        let p = Placement::single(4, MachineSpec::new("SMP", FabricSpec::smp_shared()));
        let topo = CommTopology::from_placement(&p);
        // Order-sensitive values: a plain rank-order chain must match.
        let parts: Vec<Vec<f64>> = vec![vec![0.1], vec![0.2], vec![0.3], vec![1e16]];
        let chain = ((0.1f64 + 0.2) + 0.3) + 1e16;
        let folded = topo.canonical_fold(ReduceOp::Sum, &parts);
        assert_eq!(folded[0].to_bits(), chain.to_bits());
    }

    #[test]
    fn canonical_fold_is_site_major() {
        let topo = CommTopology::from_placement(&split_6_2());
        let v = |r: usize| 0.1 * (r as f64 + 1.0);
        let parts: Vec<Vec<f64>> = (0..6).map(|r| vec![v(r)]).collect();
        // Site partials in member order, then partials in site order.
        let s0 = v(0) + v(1);
        let s1 = ((v(2) + v(3)) + v(4)) + v(5);
        let expect = s0 + s1;
        let folded = topo.canonical_fold(ReduceOp::Sum, &parts);
        assert_eq!(folded[0].to_bits(), expect.to_bits());
    }

    #[test]
    fn fold_preserves_nan_and_signed_zero_bit_patterns() {
        let p = Placement::single(3, MachineSpec::new("SMP", FabricSpec::smp_shared()));
        let topo = CommTopology::from_placement(&p);
        let parts = vec![vec![-0.0f64, f64::NAN], vec![0.0, 1.0], vec![-0.0, 2.0]];
        let a = topo.canonical_fold(ReduceOp::Min, &parts);
        let b = topo.canonical_fold(ReduceOp::Min, &parts);
        // Whatever the semantics of min over NaN/-0.0, they are stable.
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(a[1].to_bits(), b[1].to_bits());
    }
}
