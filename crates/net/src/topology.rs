//! The node/link graph of the testbed (Figure 1) and path derivation.
//!
//! A [`Topology`] holds hosts, gateways and switches joined by typed
//! links. From a routed path it derives the sequence of
//! [`HopModel`]s that the analytic TCP model and the
//! event-driven transfer runner consume: each traversed node contributes
//! its per-packet cost, each link its framing medium and propagation, and
//! the destination contributes a terminal ingest hop (which is where the
//! SP2's microchannel cap binds).

use std::collections::VecDeque;

use gtw_desim::SimDuration;

use crate::gateway::Gateway;
use crate::host::HostNic;
use crate::link::Medium;
use crate::tcp::HopModel;
use crate::units::Bandwidth;

/// Index of a node in a topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a node is.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// An end host with its NIC.
    Host(HostNic),
    /// A store-and-forward IP gateway.
    Gateway(Gateway),
    /// An ATM switch (negligible per-packet cost, configurable fabric
    /// latency).
    Switch {
        /// Fabric forwarding latency.
        fabric_latency: SimDuration,
    },
}

/// A node of the testbed graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Display name ("Cray T3E-600", "ASX-4000 FZJ", ...).
    pub name: String,
    /// Role and parameters.
    pub kind: NodeKind,
}

/// An undirected link (modelled as symmetric full-duplex).
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Framing/serialization on this link.
    pub medium: Medium,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Display label ("OC-48 WAN", "HiPPI", ...).
    pub label: String,
}

/// The testbed graph.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<LinkSpec>,
    adjacency: Vec<Vec<usize>>, // node index -> link indices
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host.
    pub fn add_host(&mut self, name: impl Into<String>, nic: HostNic) -> NodeId {
        self.push_node(Node { name: name.into(), kind: NodeKind::Host(nic) })
    }

    /// Add a gateway.
    pub fn add_gateway(&mut self, name: impl Into<String>, gw: Gateway) -> NodeId {
        self.push_node(Node { name: name.into(), kind: NodeKind::Gateway(gw) })
    }

    /// Add a switch.
    pub fn add_switch(&mut self, name: impl Into<String>, fabric_latency: SimDuration) -> NodeId {
        self.push_node(Node { name: name.into(), kind: NodeKind::Switch { fabric_latency } })
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        id
    }

    /// Connect two nodes.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        medium: Medium,
        propagation: SimDuration,
        label: impl Into<String>,
    ) {
        assert!(a != b, "self-links are not allowed");
        let idx = self.links.len();
        self.links.push(LinkSpec { a, b, medium, propagation, label: label.into() });
        self.adjacency[a.0].push(idx);
        self.adjacency[b.0].push(idx);
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Find a node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Shortest path (fewest hops, deterministic tie-break by insertion
    /// order) from `src` to `dst`, as a node sequence.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut q = VecDeque::new();
        seen[src.0] = true;
        q.push_back(src.0);
        while let Some(u) = q.pop_front() {
            for &li in &self.adjacency[u] {
                let l = &self.links[li];
                let v = if l.a.0 == u { l.b.0 } else { l.a.0 };
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = Some(u);
                    if v == dst.0 {
                        let mut path = vec![dst];
                        let mut cur = u;
                        loop {
                            path.push(NodeId(cur));
                            match prev[cur] {
                                Some(p) => cur = p,
                                None => break,
                            }
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }

    fn link_between(&self, a: NodeId, b: NodeId) -> Option<&LinkSpec> {
        self.adjacency[a.0]
            .iter()
            .map(|&li| &self.links[li])
            .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// Largest MTU usable on the path: the minimum of the endpoints'
    /// adapter limits (gateways and switches forward whatever the
    /// endpoints produce; the testbed's Fore adapters pass 64 KByte IP
    /// packets "throughout the network").
    pub fn path_mtu(&self, path: &[NodeId]) -> u64 {
        path.iter()
            .filter_map(|&id| match &self.nodes[id.0].kind {
                NodeKind::Host(nic) => Some(nic.max_mtu),
                _ => None,
            })
            .min()
            .unwrap_or(crate::ip::CLIP_DEFAULT_MTU)
    }

    /// Derive the hop models for a routed path, for datagrams of size
    /// `mtu`. Panics, naming the pair, if consecutive nodes are not
    /// connected: a path not taken from [`route`](Self::route).
    pub fn path_hops(&self, path: &[NodeId], mtu: u64) -> Vec<HopModel> {
        assert!(path.len() >= 2, "path needs at least two nodes");
        let mut hops = Vec::with_capacity(path.len());
        for w in path.windows(2) {
            let (from, to) = (w[0], w[1]);
            let link = self.link_between(from, to).unwrap_or_else(|| {
                panic!("no link {} -> {}", self.name_of(from), self.name_of(to))
            });
            let per_packet = match &self.nodes[from.0].kind {
                NodeKind::Host(nic) => nic.per_packet,
                NodeKind::Gateway(gw) => gw.hop_for_mtu(SimDuration::ZERO, mtu).per_packet,
                NodeKind::Switch { fabric_latency } => *fabric_latency,
            };
            hops.push(HopModel { medium: link.medium, per_packet, propagation: link.propagation });
        }
        // Terminal ingest hop at the destination.
        if let NodeKind::Host(nic) = &self.nodes[path[path.len() - 1].0].kind {
            let ingest = nic.ingest_rate.unwrap_or(Bandwidth::from_gbps(1000.0));
            hops.push(HopModel {
                medium: Medium::Raw { rate: ingest },
                per_packet: nic.per_packet,
                propagation: SimDuration::ZERO,
            });
        }
        hops
    }

    /// Convenience: route then derive hops at the path MTU. Returns the
    /// node path, the MTU, and the hops.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<(Vec<NodeId>, u64, Vec<HopModel>)> {
        let path = self.route(src, dst)?;
        let mtu = self.path_mtu(&path);
        let hops = self.path_hops(&path, mtu);
        Some((path, mtu, hops))
    }

    /// Name of a node.
    pub fn name_of(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hippi::HippiChannel;
    use crate::sdh::StmLevel;

    fn mini_testbed() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let cray = t.add_host("T3E", HostNic::cray_hippi());
        let gw = t.add_gateway("O200", Gateway::sgi_o200_to_atm());
        let sw1 = t.add_switch("ASX-FZJ", SimDuration::from_micros(10));
        let sw2 = t.add_switch("ASX-GMD", SimDuration::from_micros(10));
        let e5000 = t.add_host("E5000", HostNic::workstation_atm622());
        let hippi = Medium::Hippi { channel: HippiChannel::default() };
        let atm622 = Medium::Atm { cell_rate: StmLevel::Stm4.payload_rate() };
        let atm_wan = Medium::Atm { cell_rate: StmLevel::Stm16.payload_rate() };
        t.connect(cray, gw, hippi, SimDuration::from_micros(5), "HiPPI");
        t.connect(gw, sw1, atm622, SimDuration::from_micros(5), "ATM 622");
        t.connect(sw1, sw2, atm_wan, SimDuration::from_micros(500), "OC-48 WAN");
        t.connect(sw2, e5000, atm622, SimDuration::from_micros(5), "ATM 622");
        (t, cray, gw, e5000)
    }

    #[test]
    fn route_finds_the_chain() {
        let (t, cray, _gw, e5000) = mini_testbed();
        let path = t.route(cray, e5000).unwrap();
        let names: Vec<_> = path.iter().map(|&n| t.name_of(n)).collect();
        assert_eq!(names, vec!["T3E", "O200", "ASX-FZJ", "ASX-GMD", "E5000"]);
    }

    #[test]
    fn route_to_self_and_unreachable() {
        let (mut t, cray, _, _) = mini_testbed();
        assert_eq!(t.route(cray, cray).unwrap(), vec![cray]);
        let lonely = t.add_host("island", HostNic::workstation_atm155());
        assert!(t.route(cray, lonely).is_none());
    }

    #[test]
    #[should_panic(expected = "no link T3E -> island")]
    fn path_hops_rejects_an_unlinked_pair() {
        let (mut t, cray, _, _) = mini_testbed();
        let lonely = t.add_host("island", HostNic::workstation_atm155());
        let _ = t.path_hops(&[cray, lonely], 9180);
    }

    #[test]
    fn path_mtu_is_endpoint_min() {
        let (t, cray, _, e5000) = mini_testbed();
        let path = t.route(cray, e5000).unwrap();
        assert_eq!(t.path_mtu(&path), 65535);
    }

    #[test]
    fn hops_include_terminal_ingest() {
        let (t, cray, _, e5000) = mini_testbed();
        let (path, mtu, hops) = t.path(cray, e5000).unwrap();
        // 4 links + 1 terminal ingest hop.
        assert_eq!(hops.len(), path.len());
        assert_eq!(mtu, 65535);
        // WAN hop carries the 500 us propagation.
        assert!(hops.iter().any(|h| h.propagation == SimDuration::from_micros(500)));
    }

    #[test]
    fn gateway_copy_visible_in_hops() {
        let (t, cray, _, e5000) = mini_testbed();
        let (path, _, hops_large) = t.path(cray, e5000).unwrap();
        let hops_small = t.path_hops(&path, 9180);
        // The gateway hop (index 1) pays a bigger copy at larger MTU.
        assert!(hops_large[1].per_packet > hops_small[1].per_packet);
    }

    #[test]
    fn find_by_name() {
        let (t, cray, _, _) = mini_testbed();
        assert_eq!(t.find("T3E"), Some(cray));
        assert_eq!(t.find("nope"), None);
    }
}
