//! Ablation **A2**: batching in the consensus-based baseline.
//!
//! Run with `cargo run -p at-bench --bin ablation_batching --release`.

use at_bench::{eval_scenario, format_row, table_header};
use at_engine::{BaselineEngine, Engine, NetProfile};

fn main() {
    println!("# A2 — PBFT baseline batch-size ablation");
    println!();
    println!("{}", table_header());
    for n in [10usize, 25, 64] {
        let scenario = eval_scenario(n, 6, 13, NetProfile::Lan);
        for batch in [1usize, 8, 64] {
            let result = BaselineEngine::new(batch).run(&scenario);
            println!("{}", format_row(&format!("pbft-b{batch}"), &result));
        }
    }
}
