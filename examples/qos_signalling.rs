//! ATM control-plane demo: SVC call admission of D1 video streams along
//! the trunk.
//!
//! ```text
//! cargo run --release --example qos_signalling
//! ```

use gtw_core::coalloc::signal_wan_share;

fn main() {
    println!("== SVC signalling: admitting D1 streams onto the trunk ==");
    for n in 0..4 {
        let existing = vec![270.0; n];
        match signal_wan_share(270.0, &existing) {
            Ok(setup) => {
                println!("  stream #{}: CONNECT in {:.1} ms ({} already up)", n + 1, setup * 1e3, n)
            }
            Err(hop) => println!(
                "  stream #{}: REJECTED by hop {hop} ({} already up) — admission control works",
                n + 1,
                n
            ),
        }
    }
}
