//! Collectives on a [`Comm`]: the condvar barrier, the flat broadcast and
//! allreduce, and the metacomputing-aware (site-topology) broadcast,
//! allreduce and barrier. Each message pattern is one function over a
//! wait policy, shared by the blocking entry point and its `try_` twin.

use std::time::{Duration, Instant};

use super::{infallible, Comm, Wait, COLL_TAG_BASE};
use crate::envelope::{Envelope, Payload, Tag};
use crate::error::{CommError, CommResult};
use crate::topology::{fold_in_order, CommTopology};
use crate::trace::EventKind;

/// Reduction operator for `allreduce`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    pub(crate) fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Comm {
    /// Post `data` to every rank of `dsts` but this one, in order: each
    /// gets its own copy of the slice, the one copy its message costs.
    fn post_each<T: Payload>(
        &self,
        wait: Wait,
        dsts: impl IntoIterator<Item = usize>,
        tag: Tag,
        data: &[T],
    ) -> CommResult<()> {
        for dst in dsts.into_iter().filter(|&dst| dst != self.my_local) {
            self.post(wait, dst, tag, data)?;
        }
        Ok(())
    }

    fn claim_from(&self, wait: Wait, src: usize, tag: Tag) -> CommResult<Envelope> {
        Ok(self.claim(wait, Some(src), tag)?.1)
    }

    /// Claim one collective message on `tag` from each of `count`
    /// members, in arrival order; the typed payloads come back indexed
    /// by the sender's local rank.
    fn claim_each<T: Payload>(
        &self,
        wait: Wait,
        tag: Tag,
        count: usize,
    ) -> CommResult<Vec<Option<Vec<T>>>> {
        let mut parts = vec![None; self.size()];
        for _ in 0..count {
            let (sender, env) = self.claim(wait, None, tag)?;
            parts[sender] = Some(env.payload());
        }
        Ok(parts)
    }

    fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        Tag(COLL_TAG_BASE | ((seq as u32) & 0x7fff_ffff))
    }

    /// Draw a collective's (first) tag and trace its start.
    fn begin_collective(&self) -> Tag {
        let tag = self.next_coll_tag();
        self.record(EventKind::Collective, 0);
        tag
    }

    /// The condvar barrier behind [`Comm::barrier`] and
    /// [`Comm::try_barrier`]. A guarded waiter that gives up withdraws
    /// its arrival, so the count stays consistent for the members still
    /// waiting.
    fn barrier_with(&self, wait: Wait) -> CommResult<()> {
        let mut st = self.shared.barrier.lock();
        let gen = st.generation;
        st.count += 1;
        if st.count == self.size() {
            st.count = 0;
            st.generation += 1;
            self.shared.barrier_cv.notify_all();
        }
        while st.generation == gen {
            let Wait::Guarded(deadline) = wait else {
                self.shared.barrier_cv.wait(&mut st);
                continue;
            };
            let now = Instant::now();
            let gave_up = match self.first_failed_peer() {
                Some(rank) => Some(CommError::RankFailed { rank }),
                None => deadline.filter(|&d| now >= d).map(|_| CommError::Timeout),
            };
            if let Some(e) = gave_up {
                st.count = st.count.saturating_sub(1);
                return Err(e);
            }
            let mut nap = Duration::from_millis(10);
            if let Some(d) = deadline {
                nap = nap.min(d.saturating_duration_since(now));
            }
            self.shared.barrier_cv.wait_for(&mut st, nap);
        }
        drop(st);
        self.record(EventKind::Barrier, 0);
        Ok(())
    }

    /// Block until every rank of the communicator arrives.
    pub fn barrier(&self) {
        infallible(self.barrier_with(Wait::Blocking));
    }

    /// Failure-aware barrier: completes only if every member arrives;
    /// errors out when a member dies or the deadline passes.
    pub fn try_barrier(&self, timeout: Option<Duration>) -> CommResult<()> {
        self.check_health()?;
        if let Some(rank) = self.first_failed_peer() {
            return Err(CommError::RankFailed { rank });
        }
        self.barrier_with(Wait::until(timeout))
    }

    /// Broadcast step on `tag`: `root` posts `data` to every other rank.
    fn bcast_step<T: Payload>(
        &self,
        wait: Wait,
        tag: Tag,
        root: usize,
        data: &[T],
    ) -> CommResult<Vec<T>> {
        if self.rank() != root {
            return Ok(self.claim_from(wait, root, tag)?.payload());
        }
        self.post_each(wait, 0..self.size(), tag, data)?;
        Ok(data.to_vec())
    }

    /// Reduce step on `tag`: every other rank posts its contribution to
    /// rank 0, which gathers them by rank and folds them along the
    /// canonical site tree ([`CommTopology::canonical_fold`]): rank order
    /// within a site, site order across sites. Claims happen in arrival
    /// order but the fold does not — which both makes the result
    /// independent of thread scheduling and keeps it bit-identical to the
    /// topology-aware collectives that fold the same tree with a
    /// different message pattern. `Some(result)` at rank 0, `None`
    /// elsewhere.
    fn reduce_step(
        &self,
        wait: Wait,
        tag: Tag,
        op: ReduceOp,
        contrib: &[f64],
    ) -> CommResult<Option<Vec<f64>>> {
        if self.rank() != 0 {
            self.post(wait, 0, tag, contrib)?;
            return Ok(None);
        }
        let mut parts = self.claim_each::<f64>(wait, tag, self.size() - 1)?;
        parts[0] = Some(contrib.to_vec());
        // Cannot fire: `claim_each` returned one part from every other member.
        let parts: Vec<Vec<f64>> =
            parts.into_iter().map(|p| p.expect("every rank contributed")).collect();
        assert!(parts.iter().all(|p| p.len() == contrib.len()), "reduce length mismatch");
        Ok(Some(self.topology().canonical_fold(op, &parts)))
    }

    /// Broadcast `data` from `root`; every rank returns the payload.
    pub fn bcast<T: Payload>(&self, root: usize, data: &[T]) -> Vec<T> {
        let tag = self.begin_collective();
        infallible(self.bcast_step(Wait::Blocking, tag, root, data))
    }

    /// Reduce to rank 0 then broadcast: every rank returns the result.
    /// All contributions must have equal length; they are folded along
    /// the canonical site tree, whatever order they arrive in. Two
    /// collectives (two tags, two trace records): the reduce and a
    /// [`Comm::bcast`].
    pub fn allreduce_f64s(&self, op: ReduceOp, contrib: &[f64]) -> Vec<f64> {
        let tag = self.begin_collective();
        let total = infallible(self.reduce_step(Wait::Blocking, tag, op, contrib));
        self.bcast(0, total.as_deref().unwrap_or(&[]))
    }

    /// Failure-aware allreduce: the reduce and broadcast steps of
    /// [`Comm::allreduce_f64s`] as **one** collective (one tag, one trace
    /// record) under the guarded wait — bit-identical to it and to the
    /// topology-aware [`Comm::try_allreduce_topo_f64s`]. Any member
    /// death or deadline expiry fails the whole collective on every
    /// caller.
    pub fn try_allreduce_f64s(
        &self,
        op: ReduceOp,
        contrib: &[f64],
        timeout: Option<Duration>,
    ) -> CommResult<Vec<f64>> {
        self.check_health()?;
        let tag = self.begin_collective();
        let wait = Wait::until(timeout);
        let total = self.reduce_step(wait, tag, op, contrib)?;
        self.bcast_step(wait, tag, 0, total.as_deref().unwrap_or(&[]))
    }

    // ----- metacomputing-aware collectives ----------------------------------

    /// The site topology of this communicator: ranks grouped by machine,
    /// lowest rank of each site as leader, sites in leader-rank order.
    /// This is the structure every topology-aware collective routes on
    /// and the tree [`CommTopology::canonical_fold`] reduces along.
    pub fn topology(&self) -> CommTopology {
        CommTopology::from_placement(&self.placement)
    }

    /// Topology-aware broadcast — the defining optimization of a
    /// metacomputing-aware MPI ("the communication both inside and
    /// between the machines that form the metacomputer should be
    /// efficient"): the root sends one copy per foreign site to that
    /// site's leader (the only WAN crossings) plus direct copies to its
    /// own site; foreign leaders re-broadcast over their fast local
    /// fabric. Returns the payload on every rank, bit-identical to
    /// [`Comm::bcast`].
    pub fn bcast_topo_f64s(&self, root: usize, data: &[f64]) -> Vec<f64> {
        infallible(self.bcast_topo_with(Wait::Blocking, root, data))
    }

    /// Failure-aware [`Comm::bcast_topo_f64s`]: the same messages with
    /// whole-collective failure semantics (any member death or deadline
    /// expiry fails every caller). Polls the fault injector exactly once,
    /// at entry.
    pub fn try_bcast_topo_f64s(
        &self,
        root: usize,
        data: &[f64],
        timeout: Option<Duration>,
    ) -> CommResult<Vec<f64>> {
        self.check_health()?;
        self.bcast_topo_with(Wait::until(timeout), root, data)
    }

    fn bcast_topo_with<T: Payload>(
        &self,
        wait: Wait,
        root: usize,
        data: &[T],
    ) -> CommResult<Vec<T>> {
        let tag = self.begin_collective();
        let topo = self.topology();
        let me = self.rank();
        let (root_site, my_site) = (topo.site_of(root), topo.site_of(me));
        let my_members = topo.sites()[my_site].members.iter().copied();
        if me == root {
            // One WAN send per foreign site's leader, then the root's own site.
            let sites = topo.sites().iter().enumerate();
            let foreign = sites.filter(|&(s, _)| s != root_site).map(|(_, site)| site.leader);
            self.post_each(wait, foreign, tag, data)?;
            self.post_each(wait, my_members, tag, data)?;
            return Ok(data.to_vec());
        }
        let relays = my_site != root_site && topo.is_leader(me);
        let from = if relays || my_site == root_site { root } else { topo.leader_of(me) };
        let data: Vec<T> = self.claim_from(wait, from, tag)?.payload();
        if relays {
            self.post_each(wait, my_members, tag, &data)?;
        }
        Ok(data)
    }

    /// Topology-aware allreduce: intra-site reduce to each leader, one
    /// WAN crossing per foreign site up to the global leader and one
    /// back down, then intra-site re-broadcast. WAN crossings:
    /// `2·(sites−1)` instead of `2·(off-site ranks)` for the flat
    /// reduce+bcast — while the *result* stays bit-identical to
    /// [`Comm::allreduce_f64s`], because both fold the canonical site
    /// tree; only the message pattern differs.
    pub fn allreduce_topo_f64s(&self, op: ReduceOp, contrib: &[f64]) -> Vec<f64> {
        infallible(self.allreduce_topo_with(Wait::Blocking, op, contrib))
    }

    /// Failure-aware [`Comm::allreduce_topo_f64s`]: the same messages
    /// with the failure semantics of [`Comm::try_allreduce_f64s`]. Polls
    /// the fault injector exactly once (at entry), like the flat variant,
    /// so a seeded fault plan fires at the same collective on either
    /// path. The result is bit-identical to both blocking paths — same
    /// canonical tree.
    pub fn try_allreduce_topo_f64s(
        &self,
        op: ReduceOp,
        contrib: &[f64],
        timeout: Option<Duration>,
    ) -> CommResult<Vec<f64>> {
        self.check_health()?;
        self.allreduce_topo_with(Wait::until(timeout), op, contrib)
    }

    fn allreduce_topo_with(
        &self,
        wait: Wait,
        op: ReduceOp,
        contrib: &[f64],
    ) -> CommResult<Vec<f64>> {
        let up = self.begin_collective();
        let (across, down) = (self.next_coll_tag(), self.next_coll_tag());
        let topo = self.topology();
        let me = self.rank();
        let my_leader = topo.leader_of(me);
        if me != my_leader {
            self.post(wait, my_leader, up, contrib)?;
            return Ok(self.claim_from(wait, my_leader, down)?.payload());
        }
        // Phase 1: intra-site reduce to the site leader, folding member
        // contributions in rank order (the canonical tree's inner level).
        let members = &topo.sites()[topo.site_of(me)].members;
        let mut parts = self.claim_each::<f64>(wait, up, members.len() - 1)?;
        parts[me] = Some(contrib.to_vec());
        let site_partial = fold_in_order(
            op,
            members.iter().map(|&m| {
                // Cannot fire: `claim_each` returned one part from every other member.
                let part = parts[m].take().expect("member contributed");
                assert_eq!(part.len(), contrib.len(), "allreduce length mismatch");
                part
            }),
        );
        // Phase 2: leaders exchange partials with the global leader,
        // which folds them in site order (the tree's outer level).
        let global_leader = topo.global_leader();
        let total = if me == global_leader {
            let mut partials = self.claim_each::<f64>(wait, across, topo.num_sites() - 1)?;
            partials[me] = Some(site_partial);
            let leaders = topo.sites().iter().map(|site| site.leader);
            let total = fold_in_order(
                op,
                // Cannot fire: `claim_each` returned one partial from every other leader.
                leaders.clone().map(|l| partials[l].take().expect("every site reported")),
            );
            self.post_each(wait, leaders, across, &total)?;
            total
        } else {
            self.post(wait, global_leader, across, &site_partial)?;
            self.claim_from(wait, global_leader, across)?.payload()
        };
        // Phase 3: intra-site re-broadcast from each leader.
        self.post_each(wait, members.iter().copied(), down, &total)?;
        Ok(total)
    }

    /// Topology-aware barrier: a message-based tree barrier — members
    /// report to their site leader, leaders to the global leader, then
    /// the release fans back out the same way. Crosses the WAN twice per
    /// foreign site. Unlike [`Comm::barrier`] (an in-memory condvar with
    /// zero modeled messages), this barrier accounts what synchronizing
    /// a metacomputer actually costs on the wire.
    pub fn barrier_topo(&self) {
        infallible(self.barrier_topo_with(Wait::Blocking));
    }

    /// Failure-aware [`Comm::barrier_topo`]: the same message tree with
    /// whole-collective failure semantics. Polls the fault injector
    /// exactly once, at entry.
    pub fn try_barrier_topo(&self, timeout: Option<Duration>) -> CommResult<()> {
        self.check_health()?;
        if let Some(rank) = self.first_failed_peer() {
            return Err(CommError::RankFailed { rank });
        }
        self.barrier_topo_with(Wait::until(timeout))
    }

    fn barrier_topo_with(&self, wait: Wait) -> CommResult<()> {
        let (up, across, down) = (self.next_coll_tag(), self.next_coll_tag(), self.next_coll_tag());
        let topo = self.topology();
        let me = self.rank();
        let my_leader = topo.leader_of(me);
        let token: &[u8] = &[];
        if me != my_leader {
            self.post(wait, my_leader, up, token)?;
            self.claim_from(wait, my_leader, down)?;
        } else {
            let members = &topo.sites()[topo.site_of(me)].members;
            self.claim_each::<u8>(wait, up, members.len() - 1)?;
            let global_leader = topo.global_leader();
            if me == global_leader {
                self.claim_each::<u8>(wait, across, topo.num_sites() - 1)?;
                let leaders = topo.sites().iter().map(|site| site.leader);
                self.post_each(wait, leaders, down, token)?;
            } else {
                self.post(wait, global_leader, across, token)?;
                self.claim_from(wait, global_leader, down)?;
            }
            self.post_each(wait, members.iter().copied(), down, token)?;
        }
        self.record(EventKind::Barrier, 0);
        Ok(())
    }
}
