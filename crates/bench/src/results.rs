//! The paper's printed numbers beside ours: one [`Row`] per claim, with
//! the paper's value, ours, the band ours must fall in and why, and a
//! pass/FAIL gate.
//!
//! *Ours* comes from the same library calls the figure bins make, and
//! each paper value is a constant here (or in
//! [`gtw_fire::t3e::PAPER_TABLE1`]). The `results` bin prints
//! [`render`]`(&`[`table`]`())`, committed as `RESULTS.md`, and
//! `tests/paper_fidelity.rs` holds every gate and those bytes in tier-1:
//! a model change that moves a number fails the build or arrives as a
//! reviewed diff of that page, and no re-capture can move the paper.

use gtw_core::scenario::FmriScenario;
use gtw_core::testbed::{GigabitTestbedWest, LinkEra};
use gtw_desim::SimDuration;
use gtw_fire::t3e::{T3eModel, PAPER_TABLE1};
use gtw_net::hippi::HippiChannel;
use gtw_net::host::HostNic;
use gtw_net::ip::IpConfig;
use gtw_net::transfer::{BulkTransfer, Protocol};
use gtw_net::units::DataSize;
use gtw_viz::workbench::{workbench_frame_rate, FrameTransport, Workbench};

/// One claim of the paper, checked.
#[derive(Clone, Debug)]
pub struct Row {
    /// What is compared; ⚓ marks a calibration anchor.
    pub quantity: String,
    /// The paper's value, as it states it.
    pub paper: String,
    /// Ours, printed to the paper's precision.
    pub ours: String,
    /// The band ours must fall in.
    pub tolerance: String,
    /// Why that band.
    pub why: &'static str,
    /// Whether ours is inside it.
    pub pass: bool,
}

/// The rows of one figure or table of the paper.
#[derive(Clone, Debug)]
pub struct Section {
    /// The figure or table.
    pub title: &'static str,
    /// Its claims, in the paper's order.
    pub rows: Vec<Row>,
}

/// Ours within `pct` percent of the paper's `paper`; both are printed
/// with `prec` decimals, ours with its deviation.
fn within(quantity: &str, unit: &str, prec: usize, paper: f64, ours: f64, pct: f64) -> Row {
    let dev = (ours - paper) / paper * 100.0;
    Row {
        quantity: quantity.to_string(),
        paper: format!("{paper:.prec$}{unit}"),
        ours: format!("{ours:.prec$}{unit} ({dev:+.1} %)"),
        tolerance: format!("±{pct} %"),
        why: "",
        pass: dev.abs() <= pct,
    }
}

/// Ours under the paper's own bound: `< bound` when `strict`, else `≤`.
fn under(quantity: &str, unit: &str, prec: usize, bound: f64, ours: f64, strict: bool) -> Row {
    let op = if strict { "<" } else { "≤" };
    Row {
        quantity: quantity.to_string(),
        paper: format!("{op} {bound}{unit}"),
        ours: format!("{ours:.prec$}{unit}"),
        tolerance: "the paper's bound".to_string(),
        why: "",
        pass: if strict { ours < bound } else { ours <= bound },
    }
}

impl Row {
    fn because(self, why: &'static str) -> Row {
        Row { why, ..self }
    }
}

/// Figure 1: TCP over the testbed, the MTU argument, HiPPI block size.
fn figure1() -> Section {
    const BYTES: u64 = 32 * 1024 * 1024;
    let tb = GigabitTestbedWest::build(LinkEra::Oc48Upgrade);
    let matrix = tb.figure1_matrix(BYTES);
    let mbps = |i: usize| matrix[i].report.goodput.mbps();
    let path = |i: usize| {
        let m = &matrix[i];
        format!("TCP {} → {}, {} B MTU ⚓", m.from, m.to, m.mtu)
    };
    let (e5000, _, _) = tb.topology.path(tb.t3e_600, tb.e5000).expect("T3E-600 reaches the E5000");
    let sweep = [1500u64, 9180, 65535].map(|mtu| {
        let hops = tb.topology.path_hops(&e5000, mtu);
        let tcp = Protocol::Tcp { window_bytes: 4 * 1024 * 1024 };
        BulkTransfer { hops, ip: IpConfig { mtu }, bytes: BYTES, protocol: tcp }
            .run()
            .goodput
            .mbps()
    });
    let block =
        HippiChannel::default().throughput(DataSize::from_mib(64), DataSize::from_mib(1)).mbps();
    Section {
        title: "Figure 1 — the testbed's throughput (32 MiB transfers)",
        rows: vec![
            within(&path(0), " Mbit/s", 1, 430.0, mbps(0), 2.0)
                .because("the Cray stack's per-packet cost is fit to this figure (`net::host`)"),
            within(&path(1), " Mbit/s", 1, 260.0, mbps(1), 2.0).because(
                "the SP2's packet cost and microchannel ingest are fit to it (`net::host`)",
            ),
            Row {
                quantity: "TCP Cray T3E-600 → SUN E5000 at 1500 / 9180 / 65535 B MTU".to_string(),
                paper: "rises with the MTU".to_string(),
                ours: format!("{:.1} < {:.1} < {:.1} Mbit/s", sweep[0], sweep[1], sweep[2]),
                tolerance: "order only".to_string(),
                why: "the paper argues for 64 KB MTUs and prints no number for this path",
                pass: sweep[0] < sweep[1] && sweep[1] < sweep[2],
            },
            within("HiPPI low-level protocol, 1 MiB blocks", " Mbit/s", 1, 800.0, block, 5.0)
                .because("800 is the raw rate; burst and packet framing stay a few % under it"),
        ],
    }
}

/// Figure 2 and its text: the delay budget at 256 PEs.
fn figure2() -> Section {
    let r = FmriScenario::paper(256).run();
    Section {
        title: "Figure 2 — scan to display at 256 PEs",
        rows: vec![
            under("scan-to-display latency", " s", 2, 5.0, r.total_s, true)
                .because("the paper states a bound, not a value"),
            within("data transfers + control messages", " s", 2, 1.1, r.transfers_s, 10.0).because(
                "eight control rounds are a calibrated constant; the three transfers are simulated",
            ),
            within("non-pipelined period", " s", 2, 2.7, r.sequential_period_s, 5.0)
                .because("the sum of simulated transfers, the Table 1 model and the 0.6 s display"),
            under("safe scanner TR", " s", 1, 3.0, r.safe_tr_s, false)
                .because("the paper runs the scanner at TR = 3 s; ours must allow it"),
        ],
    }
}

/// Table 1: FIRE on the T3E-600, totals and speedups at 1…256 PEs.
fn table1() -> Section {
    let mut rows = Vec::new();
    let model = T3eModel::t3e_600().table1();
    for (row, &(pes, _, _, _, total, speedup)) in model.iter().zip(PAPER_TABLE1.iter()) {
        assert_eq!(row.pes, pes, "the model and the paper list the same PE counts");
        let (pct, why) = if pes == 1 {
            (0.1, "the per-module coefficients are fit to the 1-PE column")
        } else {
            (5.0, "predicted by the model from the 1-PE fit and the large-PE plateau")
        };
        let at = if pes == 1 { "1 PE ⚓".to_string() } else { format!("{pes} PEs") };
        let total = within(&format!("total, {at}"), " s", 2, total, row.total_s, pct);
        let speedup = within(&format!("speedup, {at}"), "", 1, speedup, row.speedup, pct);
        rows.extend([total.because(why), speedup.because(why)]);
    }
    Section { title: "Table 1 — FIRE on the Cray T3E-600, one 64×64×16 image", rows }
}

/// Figure 4: the Responsive Workbench over 622 Mbit/s classical IP.
fn figure4() -> Section {
    let hop = HostNic::workstation_atm622().hop(SimDuration::from_micros(500));
    let (fps, _) = workbench_frame_rate(
        &Workbench::paper(),
        FrameTransport::RawIp,
        &[hop],
        IpConfig::large_mtu(),
    );
    Section {
        title: "Figure 4 — the Responsive Workbench",
        rows: vec![under(
            "2 planes × stereo × 1024×768×24 bit over 622 Mbit/s ATM, classical IP",
            " fps",
            1,
            8.0,
            fps,
            true,
        )
        .because("the paper states a bound, not a value")],
    }
}

/// Every checked claim of the paper, by figure and table.
pub fn table() -> Vec<Section> {
    vec![figure1(), figure2(), table1(), figure4()]
}

/// Whether every row of `sections` passes its gate.
pub fn all_pass(sections: &[Section]) -> bool {
    sections.iter().flat_map(|s| &s.rows).all(|r| r.pass)
}

/// `sections` as the markdown page committed as `RESULTS.md`.
pub fn render(sections: &[Section]) -> String {
    let mut out = String::from(
        "# Results: the paper's numbers beside ours\n\n\
         Generated by `cargo run --release -p gtw-bench --bin results > RESULTS.md`; do not \
         edit by hand. `cargo test -p gtw-bench --test paper_fidelity` fails when a gate fails \
         or this page differs from what the bin prints, so a moved number arrives as a \
         reviewed diff. Paper values are constants in `crates/bench/src/results.rs` and \
         `gtw_fire::t3e::PAPER_TABLE1`. ⚓ marks a calibration anchor: a model constant was \
         fit to it, so its band is tight. Every other row is a prediction.\n",
    );
    for s in sections {
        out += &format!("\n## {}\n\n", s.title);
        out += "| Quantity | Paper | Ours | Tolerance | Why | Gate |\n";
        out += "|---|---|---|---|---|---|\n";
        for r in &s.rows {
            let gate = if r.pass { "pass" } else { "**FAIL**" };
            let cells = [r.quantity.as_str(), &r.paper, &r.ours, &r.tolerance, r.why, gate];
            out += &format!("| {} |\n", cells.join(" | "));
        }
    }
    let rows: Vec<&Row> = sections.iter().flat_map(|s| &s.rows).collect();
    let passed = rows.iter().filter(|r| r.pass).count();
    out += &format!("\n{passed} of {} rows pass.\n", rows.len());
    out
}
