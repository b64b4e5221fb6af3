//! Criterion wrapper over the T1/T2 evaluation at a small scale, so that
//! `cargo bench --workspace` exercises the full simulation path. The full
//! sweep (up to n = 100) lives in the `evaluation` binary.

use at_bench::{bracha_engine, echo_engine, eval_scenario};
use at_engine::{BaselineEngine, Engine, NetProfile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_systems(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluation_smoke");
    group.sample_size(10);
    for n in [4usize, 10] {
        let scenario = eval_scenario(n, 2, 3, NetProfile::Lan);
        group.bench_with_input(BenchmarkId::new("echo", n), &scenario, |b, scenario| {
            b.iter(|| echo_engine().run(scenario));
        });
        group.bench_with_input(BenchmarkId::new("bracha", n), &scenario, |b, scenario| {
            b.iter(|| bracha_engine().run(scenario));
        });
        group.bench_with_input(BenchmarkId::new("pbft", n), &scenario, |b, scenario| {
            b.iter(|| BaselineEngine::new(8).run(scenario));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_systems);
criterion_main!(benches);
