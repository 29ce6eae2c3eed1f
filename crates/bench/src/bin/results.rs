//! Print the paper's numbers beside ours, one gated row per claim, as
//! the markdown page committed as `RESULTS.md` (see
//! [`gtw_bench::results`]). It takes no flags; it exits non-zero when a
//! gate fails.
//!
//! ```text
//! cargo run --release -p gtw-bench --bin results > RESULTS.md
//! ```

use gtw_bench::results;

fn main() {
    let table = results::table();
    print!("{}", results::render(&table));
    if !results::all_pass(&table) {
        std::process::exit(1);
    }
}
