//! Application traffic profiles and link feasibility — the quantitative
//! content of the paper's Section 3 application list ("each application
//! has communication requirements that cannot be matched by the
//! 155 Mbit/s available in the B-WiN").

use gtw_net::units::{Bandwidth, DataSize};

/// The shape of an application's WAN traffic.
#[derive(Clone, Copy, Debug)]
pub enum TrafficPattern {
    /// Sustained stream at a fixed rate (video, field transfers).
    Continuous {
        /// Required sustained rate.
        rate_mbps: f64,
    },
    /// Periodic bursts (coupled models exchanging per-timestep data).
    Bursty {
        /// Bytes per burst.
        bytes_per_burst: u64,
        /// Bursts per second.
        bursts_per_sec: f64,
        /// Fraction of the period the burst may occupy before it delays
        /// the computation (coupling slack).
        max_duty: f64,
    },
    /// Small messages where round-trip latency dominates.
    LatencySensitive {
        /// Messages per second.
        messages_per_sec: f64,
        /// Bytes per message.
        bytes_per_message: u64,
        /// Largest tolerable one-way latency, seconds.
        max_latency_s: f64,
    },
}

/// A named application profile.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// Application name (as in the paper's list).
    pub name: &'static str,
    /// Its traffic.
    pub pattern: TrafficPattern,
}

/// Feasibility of a profile on a link.
#[derive(Clone, Copy, Debug)]
pub struct Feasibility {
    /// Whether the requirement is met.
    pub ok: bool,
    /// Link utilization (or latency ratio for latency-bound apps).
    pub utilization: f64,
}

impl AppProfile {
    /// The paper's application list with its stated numbers.
    pub fn paper_apps() -> Vec<AppProfile> {
        vec![
            AppProfile {
                // "Transfer of the 3-D water flow field ... every
                // timestep, up to 30 MByte/s".
                name: "Groundwater (TRACE->PARTRACE)",
                pattern: TrafficPattern::Continuous { rate_mbps: 240.0 },
            },
            AppProfile {
                // "Exchange of 2-D surface data every timestep, up to
                // 1 MByte in short bursts" (coupled at ~1 step/s with
                // tight duty so the models do not stall).
                name: "Climate (MOM-2 <-> IFS)",
                pattern: TrafficPattern::Bursty {
                    bytes_per_burst: 1 << 20,
                    bursts_per_sec: 1.0,
                    max_duty: 0.05,
                },
            },
            AppProfile {
                // "Low volume, but sensitive to latency."
                name: "MEG dipole fit (pmusic)",
                pattern: TrafficPattern::LatencySensitive {
                    messages_per_sec: 100.0,
                    bytes_per_message: 8_192,
                    max_latency_s: 5e-3,
                },
            },
            AppProfile {
                // "270 Mbit/s for an uncompressed D1 video stream."
                name: "D1 studio video",
                pattern: TrafficPattern::Continuous { rate_mbps: 270.0 },
            },
            AppProfile {
                // fMRI: functional volumes at up to one per 2 s plus the
                // workbench stream dominate; the functional stream alone:
                // 256 KiB / 2 s plus rendered frames ~9.4 MB at 8 fps.
                name: "Realtime fMRI + workbench",
                pattern: TrafficPattern::Continuous { rate_mbps: 604.0 },
            },
        ]
    }

    /// Check this profile against a link of `effective` payload bandwidth
    /// and `latency_s` one-way latency.
    pub fn feasible_on(&self, effective: Bandwidth, latency_s: f64) -> Feasibility {
        match self.pattern {
            TrafficPattern::Continuous { rate_mbps } => {
                let u = rate_mbps / effective.mbps();
                Feasibility { ok: u <= 1.0, utilization: u }
            }
            TrafficPattern::Bursty { bytes_per_burst, bursts_per_sec, max_duty } => {
                let burst_time = DataSize::from_bytes(bytes_per_burst).bits() as f64
                    / effective.bps()
                    + latency_s;
                let duty = burst_time * bursts_per_sec;
                Feasibility { ok: duty <= max_duty, utilization: duty / max_duty }
            }
            TrafficPattern::LatencySensitive {
                messages_per_sec,
                bytes_per_message,
                max_latency_s,
            } => {
                let serial =
                    DataSize::from_bytes(bytes_per_message).bits() as f64 / effective.bps();
                let l = latency_s + serial;
                let bw_ok = messages_per_sec * serial <= 1.0;
                Feasibility { ok: l <= max_latency_s && bw_ok, utilization: l / max_latency_s }
            }
        }
    }
}

/// Effective payload bandwidth of a link class after SDH + ATM + IP
/// overhead (~0.85 of the line rate at large MTU).
pub fn effective_payload(line: Bandwidth) -> Bandwidth {
    line.scaled(0.85)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BWIN_LATENCY: f64 = 15e-3;
    const TESTBED_LATENCY: f64 = 1.0e-3;

    #[test]
    fn nothing_heavy_fits_on_bwin() {
        // The paper's premise: every project needs more than the
        // 155 Mbit/s B-WiN access.
        let bwin = effective_payload(Bandwidth::BWIN_ACCESS);
        for app in AppProfile::paper_apps() {
            let f = app.feasible_on(bwin, BWIN_LATENCY);
            assert!(!f.ok, "{} unexpectedly fits on B-WiN: {f:?}", app.name);
        }
    }

    #[test]
    fn oc12_carries_most_but_not_fmri_workbench() {
        let oc12 = effective_payload(Bandwidth::OC12);
        let apps = AppProfile::paper_apps();
        let ok: Vec<bool> = apps.iter().map(|a| a.feasible_on(oc12, TESTBED_LATENCY).ok).collect();
        // Groundwater, climate, MEG, video fit; the full fMRI+workbench
        // pipeline needs more than OC-12 payload (the paper's reason for
        // waiting on 622 adapters *and* the OC-48 upgrade).
        assert!(ok[0], "groundwater on OC-12");
        assert!(ok[1], "climate on OC-12");
        assert!(ok[2], "MEG on OC-12");
        assert!(ok[3], "video on OC-12");
        assert!(!ok[4], "fMRI+workbench should exceed OC-12 payload");
    }

    #[test]
    fn oc48_carries_everything() {
        let oc48 = effective_payload(Bandwidth::OC48);
        for app in AppProfile::paper_apps() {
            let f = app.feasible_on(oc48, TESTBED_LATENCY);
            assert!(f.ok, "{} does not fit on OC-48: {f:?}", app.name);
        }
    }

    #[test]
    fn meg_is_latency_bound_not_bandwidth_bound() {
        let app = &AppProfile::paper_apps()[2];
        // Huge bandwidth, terrible latency: still infeasible.
        let f = app.feasible_on(Bandwidth::from_gbps(10.0), 50e-3);
        assert!(!f.ok);
        // Modest bandwidth, low latency: feasible.
        let f2 = app.feasible_on(Bandwidth::from_mbps(100.0), 0.5e-3);
        assert!(f2.ok, "{f2:?}");
    }

    #[test]
    fn burst_duty_accounts_latency() {
        let app = AppProfile {
            name: "test",
            pattern: TrafficPattern::Bursty {
                bytes_per_burst: 1 << 20,
                bursts_per_sec: 1.0,
                max_duty: 0.05,
            },
        };
        // Infinite-ish bandwidth but latency equal to the whole duty
        // budget: infeasible.
        let f = app.feasible_on(Bandwidth::from_gbps(100.0), 0.06);
        assert!(!f.ok);
    }

    #[test]
    fn utilization_reported() {
        let app =
            AppProfile { name: "t", pattern: TrafficPattern::Continuous { rate_mbps: 100.0 } };
        let f = app.feasible_on(Bandwidth::from_mbps(200.0), 0.0);
        assert!(f.ok);
        assert!((f.utilization - 0.5).abs() < 1e-9);
    }
}
