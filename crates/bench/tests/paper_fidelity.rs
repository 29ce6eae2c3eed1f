//! The paper's printed numbers, held in tier-1: every row of
//! `gtw_bench::results` is inside its stated tolerance, and the committed
//! `RESULTS.md` is byte for byte what the `results` bin prints. A model
//! change that moves a number past its band fails the first test; one
//! that moves it inside the band fails the second until `RESULTS.md` is
//! regenerated, so the move is a reviewed diff against paper constants
//! that no re-capture rewrites.

use std::sync::OnceLock;

use gtw_bench::results::{self, Section};

const COMMITTED: &str = include_str!("../../../RESULTS.md");

fn table() -> &'static [Section] {
    static TABLE: OnceLock<Vec<Section>> = OnceLock::new();
    TABLE.get_or_init(results::table)
}

#[test]
fn every_paper_claim_is_inside_its_tolerance() {
    let failed: Vec<String> = table()
        .iter()
        .flat_map(|s| s.rows.iter().filter(|r| !r.pass).map(move |r| (s.title, r)))
        .map(|(title, r)| {
            format!("{title}: {}: paper {}, ours {}, {}", r.quantity, r.paper, r.ours, r.tolerance)
        })
        .collect();
    assert!(failed.is_empty(), "outside tolerance:\n{}", failed.join("\n"));
}

#[test]
fn results_md_is_the_rendered_table() {
    let rendered = results::render(table());
    let first_diff = rendered.lines().zip(COMMITTED.lines()).position(|(r, c)| r != c);
    assert!(
        rendered == COMMITTED,
        "RESULTS.md differs from the rendering (first at line {:?}); regenerate it with \
         `cargo run --release -p gtw-bench --bin results > RESULTS.md` and review the diff",
        first_diff.map(|i| i + 1)
    );
}
