//! Ablation **A1**: the cost of the secure-broadcast primitive under the
//! same replica — Bracha's naive quadratic protocol vs. the linear
//! signed-echo protocol, both unsharded and unbatched.
//!
//! Run with `cargo run -p at-bench --bin ablation_broadcast --release`.

use at_bench::{bracha_engine, echo_engine, eval_scenario, format_row, table_header};
use at_engine::{Engine, NetProfile};

fn main() {
    println!("# A1 — broadcast primitive ablation (same unsharded, unbatched replica on top)");
    println!();
    println!("{}", table_header());
    for n in [4usize, 10, 16, 25, 40] {
        let scenario = eval_scenario(n, 6, 7, NetProfile::Lan);
        let echo = echo_engine().run(&scenario);
        let bracha = bracha_engine().run(&scenario);
        println!("{}", format_row("echo", &echo));
        println!("{}", format_row("bracha", &bracha));
        println!(
            "| msg ratio bracha/echo | {n} | | {:.1}x | | | | |",
            bracha.messages_sent as f64 / echo.messages_sent as f64
        );
    }
}
