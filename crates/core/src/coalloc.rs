//! Co-allocation's network leg: a reservation's WAN share, signalled.
//!
//! The paper closes with: "the problem of simultaneous resource
//! allocation in a distributed environment will become more apparent
//! when the application is used for clinical research." This module
//! covers the part of that problem the testbed's own machinery decides:
//! whether the signalling plane admits a reserved WAN share alongside the
//! calls already on the FZJ→GMD trunk.

/// Drive a reservation's WAN share through the signalling plane: place a
/// SETUP along the FZJ→GMD trunk agents after the `concurrent_mbps`
/// calls. Returns the signalled setup latency on success, or the index
/// of the hop that refused the call.
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
    fn signalling_refuses_at_the_binding_hop() {
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
}
