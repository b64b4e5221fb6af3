//! Ablation **A3**: the cost of `k`-sharedness (Section 6) — transfers on
//! one hot account owned by k processes, for growing k. Consensus is paid
//! only among the k owners; the rest of the system only validates.
//!
//! Run with `cargo run -p at-bench --bin ablation_kshared --release`.

use at_bench::{eval_kshared, eval_scenario, format_row, table_header};
use at_engine::NetProfile;

fn main() {
    println!("# A3 — k-shared hot account (n=16 system)");
    println!();
    println!("{}", table_header());
    let scenario = eval_scenario(16, 6, 21, NetProfile::Lan);
    for k in [1usize, 2, 4, 8] {
        let result = eval_kshared(&scenario, k);
        println!("{}", format_row(&format!("k={k}"), &result));
    }
}
