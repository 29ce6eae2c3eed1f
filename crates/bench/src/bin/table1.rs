//! Regenerate **Table 1**: "Time spent for processing a 64x64x16 image
//! on the Cray T3E for various number of PEs."
//!
//! Prints the calibrated machine-model table next to the paper's
//! measured values, and with `--real` additionally measures *actual*
//! wall-clock scaling of the real FIRE modules on `gtw-par` scoped
//! threads: one row per power-of-two width up to the host's cores, then
//! one labelled `(oversubscribed)` row, each module's measured speedup
//! beside the T3E cost model's prediction for the same PE count.
//! Absolute numbers differ from a 1999 T3E; the speedup shape is the
//! comparable quantity. Every row also carries a digest of the modules'
//! outputs, which must not depend on the width.
//!
//! ```text
//! cargo run --release -p gtw-bench --bin table1 [-- --real] [-- --json]
//! ```
//!
//! With `--json` the calibrated model table (and the paper's measured
//! anchors) is emitted as one machine-readable document; `--real` adds
//! the measured rows under a `"real"` key.

use std::time::Instant;

use gtw_bench::rel_pct;
use gtw_fire::filters::median_filter;
use gtw_fire::motion::MotionCorrector;
use gtw_fire::rvo::{self, RvoBounds, RvoMethod};
use gtw_fire::t3e::{T3eModel, PAPER_TABLE1};
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::motion::RigidTransform;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::Dims;

fn model_table() {
    let model = T3eModel::t3e_600();
    println!("== Table 1 (T3E-600 model, 64x64x16 image) vs paper ==");
    println!(
        "{:>5} | {:>7} {:>7} {:>8} {:>8} {:>8} | {:>8} {:>8} | {:>7}",
        "PEs", "filter", "motion", "RVO", "total", "speedup", "paper-t", "paper-s", "dev%"
    );
    gtw_bench::rule(88);
    for (row, &(pes, _, _, _, p_total, p_speed)) in model.table1().iter().zip(PAPER_TABLE1.iter()) {
        println!(
            "{:>5} | {:>7.2} {:>7.2} {:>8.2} {:>8.2} {:>8.1} | {:>8.2} {:>8.1} | {:>6.1}%",
            row.pes,
            row.filter_s,
            row.motion_s,
            row.rvo_s,
            row.total_s,
            row.speedup,
            p_total,
            p_speed,
            rel_pct(row.total_s, p_total)
        );
        assert_eq!(row.pes, pes);
    }
    println!("\n\"Larger images take more time, but achieve better speedups\":");
    for dims in [Dims::EPI, Dims::new(128, 128, 32), Dims::new(256, 256, 64)] {
        let r = model.row(256, dims);
        println!(
            "  {:>3}x{:>3}x{:>3} @256 PEs: total {:>8.2} s, speedup {:>6.1}",
            dims.nx, dims.ny, dims.nz, r.total_s, r.speedup
        );
    }
}

/// The timed modules, in Table 1's column order.
const MODULES: [&str; 3] = ["filter", "motion", "rvo"];

/// One `--real` row: [`MODULES`] timed at one `gtw-par` width.
struct RealRow {
    threads: usize,
    oversubscribed: bool,
    secs: [f64; 3],
    /// FNV-1a over every output bit of the three modules.
    digest: u64,
}

/// The quickest of `reps` timed calls of `f`, with its (last) result.
fn quickest<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = (f64::INFINITY, None);
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        best = (best.0.min(t0.elapsed().as_secs_f64()), Some(out));
    }
    (best.0, best.1.expect("at least one repetition"))
}

/// Time filter, motion estimation and RVO at every power-of-two width
/// the host has cores for, plus one oversubscribed width. Panics if any
/// width's outputs differ from the 1-thread run by a single bit.
fn real_rows() -> Vec<RealRow> {
    let scanner = Scanner::new(ScannerConfig::paper_default(24, 3), Phantom::standard());
    let vol = scanner.acquire(5);
    let corrector = MotionCorrector::new(scanner.anatomy().clone(), 2, 50.0);
    let moved = RigidTransform::translation(0.6, -0.4, 0.2).resample(&vol);
    let series: Vec<_> = (0..24).map(|t| scanner.acquire(t)).collect();
    let mask: Vec<bool> = scanner.activation().data.iter().map(|&a| a >= 0.0).collect();
    let method = RvoMethod::FullGrid { delay_steps: 7, dispersion_steps: 4 };

    let cores = gtw_par::threads();
    let mut widths: Vec<usize> =
        PAPER_TABLE1.iter().map(|row| row.0).filter(|&pes| pes <= cores).collect();
    let widest = *widths.last().expect("width 1 always fits");
    widths.push(2 * widest);
    let time_at = |threads: usize| {
        let (filter_s, filtered) = quickest(5, || median_filter(&vol));
        let (motion_s, motion) = quickest(2, || corrector.estimate(&moved));
        let stimulus = &scanner.config().stimulus;
        let (rvo_s, fit) = quickest(5, || {
            rvo::optimize(&series, stimulus, RvoBounds::default(), method, Some(&mask))
        });
        let bits = [&filtered, &fit.delay, &fit.dispersion, &fit.correlation]
            .into_iter()
            .flat_map(|map| map.data.iter().map(|v| v.to_bits() as u64))
            .chain(motion.transform.params().map(|p| p.to_bits() as u64))
            .chain([fit.evaluations]);
        let digest =
            bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b).wrapping_mul(0x0000_0100_0000_01b3));
        let secs = [filter_s, motion_s, rvo_s];
        RealRow { threads, oversubscribed: threads > widest, secs, digest }
    };
    let rows: Vec<RealRow> =
        widths.into_iter().map(|w| gtw_par::with_threads(w, || time_at(w))).collect();
    for row in &rows {
        let threads = row.threads;
        assert_eq!(row.digest, rows[0].digest, "outputs at {threads} threads differ from 1 thread");
    }
    rows
}

/// Per module of `row`: `(ms, measured speedup over base, the T3E cost
/// model's speedup at the same PE count)`.
fn columns(model: &T3eModel, base: &RealRow, row: &RealRow) -> [(f64, f64, f64); 3] {
    let secs = |pes| {
        let r = model.row(pes, Dims::EPI);
        [r.filter_s, r.motion_s, r.rvo_s]
    };
    let (m1, mp) = (secs(1), secs(row.threads));
    std::array::from_fn(|i| (row.secs[i] * 1e3, base.secs[i] / row.secs[i], m1[i] / mp[i]))
}

fn real_scaling(model: &T3eModel) {
    println!(
        "\n== Measured scaling of the real modules (gtw-par threads as PEs, {} host cores) ==",
        gtw_par::threads()
    );
    print!("{:>7}", "threads");
    for module in MODULES {
        print!(" | {:>11} {:>6} {:>6}", format!("{module} (ms)"), "x", "model");
    }
    println!();
    gtw_bench::rule(91);
    let rows = real_rows();
    for row in &rows {
        print!("{:>7}", row.threads);
        for (ms, x, modelled) in columns(model, &rows[0], row) {
            print!(" | {ms:>11.1} {x:>6.2} {modelled:>6.2}");
        }
        println!("{}", if row.oversubscribed { "  (oversubscribed)" } else { "" });
    }
    println!(
        "(x = measured speedup over 1 thread, model = the T3E cost model at the same PE count;\n \
         outputs bit-identical at every width, digest {:016x})",
        rows[0].digest
    );
}

fn real_json(model: &T3eModel) -> gtw_desim::Json {
    use gtw_desim::Json;
    let rows = real_rows();
    let rows_json = rows.iter().map(|row| {
        let mut obj = Json::obj([
            ("threads", Json::from(row.threads)),
            ("oversubscribed", Json::from(row.oversubscribed)),
            ("digest", Json::from(format!("{:016x}", row.digest))),
        ]);
        for (module, (ms, x, modelled)) in MODULES.iter().zip(columns(model, &rows[0], row)) {
            obj.push(format!("{module}_ms"), ms);
            obj.push(format!("{module}_speedup"), x);
            obj.push(format!("model_{module}_speedup"), modelled);
        }
        obj
    });
    Json::obj([
        ("host_cores", Json::from(gtw_par::threads())),
        ("rows", Json::Arr(rows_json.collect())),
    ])
}

/// Flat vs topology-aware allreduce cost when Table 1's processing is
/// spread over the metacomputer (two sites joined by the testbed WAN)
/// instead of one T3E: the per-scan collective overhead each path adds
/// to the 256-PE row. Deterministic — every number is a model output.
fn topo_collectives_delta() -> (u64, u64, f64, f64) {
    use gtw_mpi::{FabricSpec, MachineSpec, Placement, ReduceOp, Universe};
    let placement = Placement::split(
        8,
        4,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let run = |topo: bool| -> (u64, f64) {
        let costs = Universe::run_placed(placement.clone(), move |comm| {
            let contrib = [comm.rank() as f64, 1.0, -0.5];
            if topo {
                comm.allreduce_topo_f64s(ReduceOp::Sum, &contrib);
            } else {
                comm.allreduce_f64s(ReduceOp::Sum, &contrib);
            }
            let c = comm.comm_cost();
            (c.wan_messages, c.wan_seconds)
        });
        (costs.iter().map(|&(m, _)| m).sum(), costs.iter().map(|&(_, s)| s).fold(0.0, f64::max))
    };
    let (flat_msgs, flat_s) = run(false);
    let (topo_msgs, topo_s) = run(true);
    (flat_msgs, topo_msgs, flat_s, topo_s)
}

fn topo_collectives_table(model: &T3eModel) {
    let (flat_msgs, topo_msgs, flat_s, topo_s) = topo_collectives_delta();
    let base = model.row(256, Dims::EPI).total_s;
    println!(
        "\n== Distributed allreduce: flat vs topology-aware (8 ranks, 2 sites, testbed WAN) =="
    );
    println!(
        "{:>6} {:>10} {:>14} {:>22}",
        "path", "WAN msgs", "WAN seconds", "256-PE total + coll."
    );
    for (name, msgs, s) in [("flat", flat_msgs, flat_s), ("topo", topo_msgs, topo_s)] {
        println!("{name:>6} {msgs:>10} {s:>12.4} s {:>20.2} s", base + s);
    }
    println!("(one allreduce per processed scan; topo pays one WAN crossing per site, flat one per rank)");
}

fn emit_json(topo_collectives: bool, real: bool) {
    use gtw_desim::Json;
    let model = T3eModel::t3e_600();
    let mut rows = Vec::new();
    for (row, &(pes, _, _, _, p_total, p_speed)) in model.table1().iter().zip(PAPER_TABLE1.iter()) {
        assert_eq!(row.pes, pes);
        rows.push(Json::obj([
            ("pes", Json::from(row.pes)),
            ("filter_s", Json::from(row.filter_s)),
            ("motion_s", Json::from(row.motion_s)),
            ("rvo_s", Json::from(row.rvo_s)),
            ("total_s", Json::from(row.total_s)),
            ("speedup", Json::from(row.speedup)),
            ("paper_total_s", Json::from(p_total)),
            ("paper_speedup", Json::from(p_speed)),
        ]));
    }
    let mut doc = Json::obj([
        ("experiment", Json::from("table1_t3e_module_times")),
        ("rows", Json::Arr(rows)),
    ]);
    // Conditional: output without the flag stays byte-identical.
    if topo_collectives {
        let (flat_msgs, topo_msgs, flat_s, topo_s) = topo_collectives_delta();
        doc.push(
            "topo_collectives",
            Json::obj([
                ("ranks", Json::from(8u64)),
                ("sites", Json::from(2u64)),
                ("flat_wan_messages", Json::from(flat_msgs)),
                ("topo_wan_messages", Json::from(topo_msgs)),
                ("flat_wan_seconds", Json::from(flat_s)),
                ("topo_wan_seconds", Json::from(topo_s)),
            ]),
        );
    }
    if real {
        doc.push("real", real_json(&model));
    }
    println!("{}", doc.pretty());
}

fn main() {
    let args = gtw_bench::BenchArgs::parse();
    let real = gtw_bench::has_flag("--real");
    if args.json {
        emit_json(args.topo_collectives, real);
        return;
    }
    model_table();
    if args.topo_collectives {
        topo_collectives_table(&T3eModel::t3e_600());
    }
    if real {
        real_scaling(&T3eModel::t3e_600());
    } else {
        println!("\n(add `-- --real` for measured thread-scaling of the actual modules)");
    }
}
