//! Experiments **T1** (throughput) and **T2** (latency): the Section 5
//! evaluation — broadcast-based asset transfer vs. the consensus-based
//! baseline, N up to 100 processes. The broadcast-based rows are the
//! engine replica in its unsharded, unbatched shape.
//!
//! Run with `cargo run -p at-bench --bin evaluation --release`.

use at_bench::{bracha_engine, echo_engine, eval_scenario, format_row, table_header};
use at_engine::{BaselineEngine, Engine, NetProfile};

fn main() {
    let sizes = [4usize, 10, 16, 25, 40, 64, 100];
    let waves = 6;
    let baseline = BaselineEngine::new(8);

    println!("# T1/T2 — broadcast-based vs consensus-based asset transfer");
    println!();
    println!(
        "closed-loop clients (1 outstanding tx/process), {waves} waves, LAN latency \
         200-300µs, 10µs/event processing, 5µs/message send, PBFT batch=8"
    );
    println!();
    println!("{}", table_header());

    let mut rows = Vec::new();
    for &n in &sizes {
        let scenario = eval_scenario(n, waves, 42, NetProfile::Lan);
        let echo = echo_engine().run(&scenario);
        println!("{}", format_row("echo-broadcast", &echo));
        // The naive quadratic broadcast becomes slow to *simulate* beyond
        // ~64 processes (O(n²) events); it is measured up to there.
        let bracha = if n <= 64 {
            let result = bracha_engine().run(&scenario);
            println!("{}", format_row("bracha-broadcast", &result));
            Some(result)
        } else {
            None
        };
        let pbft = baseline.run(&scenario);
        println!("{}", format_row("pbft-baseline", &pbft));
        rows.push((n, echo, bracha, pbft));
    }

    println!();
    println!("# T1b/T2b — latency-bound regime (1µs/event, no send cost)");
    println!();
    println!(
        "In this regime protocol round structure dominates; the naive quadratic \
         broadcast of the paper's deployment stays ahead of consensus."
    );
    println!();
    println!("{}", table_header());
    let mut lb_rows = Vec::new();
    for &n in &sizes {
        let scenario = eval_scenario(n, waves, 42, NetProfile::LatencyBound);
        let bracha = if n <= 64 {
            let result = bracha_engine().run(&scenario);
            println!("{}", format_row("bracha-broadcast", &result));
            Some(result)
        } else {
            None
        };
        let pbft = baseline.run(&scenario);
        println!("{}", format_row("pbft-baseline", &pbft));
        lb_rows.push((n, bracha, pbft));
    }
    println!();
    println!("| n | tput bracha/pbft (latency-bound) | latency pbft/bracha |");
    println!("|---|---|---|");
    for (n, bracha, pbft) in &lb_rows {
        if let Some(b) = bracha {
            println!(
                "| {n} | {:.2} | {:.2} |",
                b.throughput_tps / pbft.throughput_tps,
                pbft.latency_mean_us / b.latency_mean_us
            );
        }
    }

    println!();
    println!("# Paper-shape check (Section 5: 1.5x-6x throughput, up to 2x latency)");
    println!();
    println!("| n | tput echo/pbft | tput bracha/pbft | latency pbft/echo | latency pbft/bracha |");
    println!("|---|---|---|---|---|");
    for (n, echo, bracha, pbft) in &rows {
        let tput_echo = echo.throughput_tps / pbft.throughput_tps;
        let lat_echo = pbft.latency_mean_us / echo.latency_mean_us;
        let (tput_bracha, lat_bracha) = match bracha {
            Some(b) => (
                format!("{:.2}", b.throughput_tps / pbft.throughput_tps),
                format!("{:.2}", pbft.latency_mean_us / b.latency_mean_us),
            ),
            None => ("-".into(), "-".into()),
        };
        println!("| {n} | {tput_echo:.2} | {tput_bracha} | {lat_echo:.2} | {lat_bracha} |");
    }
}
