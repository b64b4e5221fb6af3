//! # at-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation (Section 5): a head-to-head
//! comparison of the broadcast-based asset transfer against the
//! consensus-based baseline, in throughput (experiment **T1**) and latency
//! (**T2**), plus the ablations **A1** (broadcast protocol choice), **A2**
//! (baseline batching) and **A3** (`k`-sharedness cost). The README's
//! "Running the evaluation" section lists every experiment binary.
//!
//! ## Methodology
//!
//! Clients are **closed-loop**, one outstanding transfer per process —
//! the sequential-process model of the paper (Section 2.1). A run
//! consists of `waves` rounds: in each round every process submits one
//! transfer to a rotating destination, and the run proceeds until all
//! transfers of the round complete. Throughput is total completed
//! transfers over total virtual time; latency is the per-transfer
//! submission-to-completion interval.
//!
//! T1/T2/A1/A2 run through the [`at_engine::Engine`] driver: the
//! broadcast-based system is the engine replica in its unsharded,
//! unbatched shape (one transfer per broadcast instance — Figure 4's
//! deployment), the baseline is [`BaselineEngine`].
//!
//! All time is *virtual* ([`at_net::VirtualTime`]): results are exactly
//! reproducible and independent of the host machine. The cost model
//! (per-event processing cost, per-message send cost, link latency) is
//! the scenario's [`NetProfile`], named in every table's heading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use at_broadcast::auth::NoAuth;
use at_core::kshared::{KEvent, KSharedReplica};
use at_engine::shard::digest_balances;
use at_engine::{
    mean, percentiles, AuthMode, BaselineEngine, BroadcastBackend, ConsensuslessEngine, Engine,
    EngineConfig, NetProfile, Scenario, ScenarioReport,
};
use at_model::{AccountId, Amount, OwnerMap, ProcessId};
use at_net::{Simulation, VirtualTime};
use json::JsonObject;

/// The T1/T2 and ablation workload: `n` closed-loop processes, `waves`
/// rounds of one unit-amount transfer each, balances that never run
/// dry, under the cost model `net`.
pub fn eval_scenario(n: usize, waves: usize, seed: u64, net: NetProfile) -> Scenario {
    Scenario::new(format!("eval-n{n}"), n)
        .waves(waves)
        .seed(seed)
        .initial(Amount::new(1_000_000))
        .net(net)
}

/// T1/T2 system under test: the engine replica over Bracha reliable
/// broadcast, unsharded and unbatched (the paper's deployed
/// configuration).
pub fn bracha_engine() -> ConsensuslessEngine {
    ConsensuslessEngine::new(EngineConfig::unsharded())
}

/// T1/T2 system under test: the same replica over the linear signed-echo
/// broadcast (the paper's preferred primitive [35, 36]). Certificate
/// forwarding is disabled — all senders in the performance runs are
/// honest, and the ablation A1 measures the protocols' intrinsic cost.
pub fn echo_engine() -> ConsensuslessEngine {
    ConsensuslessEngine::new(
        EngineConfig::unsharded().with_backend(BroadcastBackend::SignedEcho {
            auth: AuthMode::None,
            forward_final: false,
        }),
    )
}

/// A3: hot shared account with `k` owners, every owner debiting it once
/// per wave of `scenario` (whose workload shape is not used). The
/// system has at least `k + 1` processes.
///
/// `conflicts` is 0 by construction, as for the PBFT baseline: the
/// owner group's consensus totally orders the shared account.
pub fn eval_kshared(scenario: &Scenario, k: usize) -> ScenarioReport {
    let n = scenario.n.max(k + 1);
    let shared = AccountId::new(0);
    let mut owners = OwnerMap::new();
    for i in 0..k {
        owners.add_owner(shared, ProcessId::new(i as u32));
    }
    for i in 1..n {
        owners.add_owner(AccountId::new(i as u32), ProcessId::new(i as u32));
    }
    let initial: Vec<(AccountId, Amount)> = (0..n)
        .map(|i| (AccountId::new(i as u32), scenario.initial))
        .collect();
    let replicas: Vec<_> = ProcessId::all(n)
        .map(|me| KSharedReplica::new(me, n, initial.clone(), owners.clone(), NoAuth))
        .collect();
    let mut sim = Simulation::new(replicas, scenario.net.config(scenario.seed));
    let mut latencies = Vec::new();
    let mut completed = 0usize;
    let mut rejected = 0usize;

    for wave in 0..scenario.waves {
        let wave_start = sim.now();
        for i in 0..k {
            let dest = AccountId::new(((i + wave) % (n - 1) + 1) as u32);
            let amount = scenario.amount;
            sim.schedule(wave_start, ProcessId::new(i as u32), move |replica, ctx| {
                replica.submit(shared, dest, amount, ctx);
            });
        }
        sim.run_until_quiet(u64::MAX);
        for (at, _, event) in sim.take_events() {
            match event {
                KEvent::Completed { success: true, .. } => {
                    completed += 1;
                    latencies.push(at.saturating_sub(wave_start).as_micros());
                }
                KEvent::Completed { success: false, .. } | KEvent::Rejected { .. } => rejected += 1,
                KEvent::Applied { .. } => {}
            }
        }
    }

    let views: Vec<Vec<(AccountId, Amount)>> = ProcessId::all(n)
        .map(|p| {
            (0..n as u32)
                .map(AccountId::new)
                .map(|a| (a, sim.actor(p).observed_balance(a)))
                .collect()
        })
        .collect();
    let supply = Amount::new(scenario.initial.units() * n as u64);
    let (p50, p99) = percentiles(&mut latencies);
    let duration = sim.now();
    ScenarioReport {
        scenario: scenario.name.clone(),
        engine: format!("kshared-k{k}"),
        n,
        correct: n,
        completed,
        rejected,
        applied_total: ProcessId::all(n)
            .map(|p| sim.actor(p).applied_count())
            .sum(),
        duration_us: duration.as_micros(),
        throughput_tps: completed as f64 / duration.as_secs_f64().max(f64::MIN_POSITIVE),
        latency_mean_us: mean(&latencies),
        latency_p50_us: p50,
        latency_p99_us: p99,
        messages_sent: sim.stats().messages_sent,
        messages_dropped: sim.stats().messages_dropped,
        agreed: views.windows(2).all(|w| w[0] == w[1]),
        conflicts: 0,
        supply_ok: views
            .iter()
            .all(|view| view.iter().map(|(_, b)| *b).sum::<Amount>() == supply),
        balance_digest: digest_balances(views[0].iter().copied()),
    }
}

/// T3: the closed-loop workload used by the engine-layer sharding and
/// batching comparison. Each of the `n` processes fronts several clients
/// and submits `transfers_per_wave` transfers per round trip — the regime
/// where sender-side batching has something to amortize.
pub fn t3_scenario(n: usize, waves: usize, transfers_per_wave: usize, seed: u64) -> Scenario {
    Scenario::new(format!("t3-n{n}"), n)
        .waves(waves)
        .transfers_per_wave(transfers_per_wave)
        .seed(seed)
        .initial(Amount::new(1_000_000))
}

/// The engine line-up of the T3 table: the unsharded, unbatched
/// consensusless engine (the paper's deployment shape), the sharded and
/// batched production configuration, and the PBFT baseline.
pub fn t3_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ConsensuslessEngine::new(EngineConfig::unsharded())),
        Box::new(ConsensuslessEngine::new(EngineConfig::sharded_batched(
            4,
            8,
            VirtualTime::from_micros(500),
        ))),
        Box::new(BaselineEngine::new(8)),
    ]
}

/// Runs the full T3 line-up on one scenario.
pub fn eval_t3(scenario: &Scenario) -> Vec<ScenarioReport> {
    t3_engines()
        .iter()
        .map(|engine| engine.run(scenario))
        .collect()
}

/// T4: the closed-loop workload of the broadcast-backend ablation —
/// unsharded and unbatched, so the per-transfer message count is the
/// protocol's own cost, not amortized away by batching.
pub fn t4_scenario(n: usize, waves: usize, transfers_per_wave: usize, seed: u64) -> Scenario {
    Scenario::new(format!("t4-n{n}"), n)
        .waves(waves)
        .transfers_per_wave(transfers_per_wave)
        .seed(seed)
        .initial(Amount::new(1_000_000))
}

/// The backend line-up of the T4 table. All senders are honest, so
/// certificate forwarding is disabled on the signed backends (same
/// rationale as ablation A1): the table measures each protocol's
/// intrinsic cost. `sig_cost_us` charges modelled CPU per signature
/// operation on the signed backends, making the "signature CPU for
/// message complexity" trade visible in virtual time; `include_ed` adds
/// a row with *real* Ed25519 signing and certificate verification
/// end-to-end (slow in wall-clock, identical in virtual metrics to the
/// cost-modelled row's message counts).
pub fn t4_backends(sig_cost_us: u64, include_ed: bool) -> Vec<EngineConfig> {
    let base = EngineConfig::unsharded();
    let mut configs = vec![
        base,
        base.with_backend(BroadcastBackend::SignedEcho {
            auth: AuthMode::None,
            forward_final: false,
        })
        .with_sig_cost_us(sig_cost_us),
        base.with_backend(BroadcastBackend::AccountOrder {
            auth: AuthMode::None,
            forward_final: false,
        })
        .with_sig_cost_us(sig_cost_us),
    ];
    if include_ed {
        configs.push(
            base.with_backend(BroadcastBackend::SignedEcho {
                auth: AuthMode::Ed25519,
                forward_final: false,
            })
            .with_sig_cost_us(sig_cost_us),
        );
    }
    configs
}

/// Runs the T4 backend line-up on one scenario.
pub fn eval_t4(scenario: &Scenario, sig_cost_us: u64, include_ed: bool) -> Vec<ScenarioReport> {
    t4_backends(sig_cost_us, include_ed)
        .into_iter()
        .map(|config| ConsensuslessEngine::new(config).run(scenario))
        .collect()
}

/// Messages sent per completed transfer — the headline scaling metric of
/// the backend comparison.
pub fn messages_per_transfer(report: &ScenarioReport) -> f64 {
    report.messages_sent as f64 / (report.completed as f64).max(1.0)
}

/// Renders T4 reports (grouped by system size) as machine-readable JSON
/// for `BENCH_t4.json`.
pub fn t4_json(seed: u64, sig_cost_us: u64, groups: &[(usize, Vec<ScenarioReport>)]) -> String {
    let results = groups
        .iter()
        .flat_map(|(n, reports)| {
            reports.iter().map(move |report| {
                JsonObject::new()
                    .lit("n", n)
                    .str("engine", &report.engine)
                    .lit("completed", report.completed)
                    .lit("messages", report.messages_sent)
                    .float("messages_per_transfer", messages_per_transfer(report), 2)
                    .float("throughput_tps", report.throughput_tps, 1)
                    .lit("latency_p50_us", report.latency_p50_us)
                    .lit("latency_p99_us", report.latency_p99_us)
                    .lit("agreed", report.agreed)
                    .lit("conflicts", report.conflicts)
            })
        })
        .collect();
    JsonObject::new()
        .str("experiment", "T4 broadcast-backend ablation")
        .lit("seed", seed)
        .lit("sig_cost_us", sig_cost_us)
        .str(
            "workload",
            "uniform closed loop, unsharded/unbatched, certificate forwarding off",
        )
        .rows("results", results)
        .render()
}

/// Formats one table row (markdown).
pub fn format_row(label: &str, report: &ScenarioReport) -> String {
    format!(
        "| {label} | {} | {} | {:.0} | {:.0} | {} | {} | {} |",
        report.n,
        report.completed,
        report.throughput_tps,
        report.latency_mean_us,
        report.latency_p50_us,
        report.latency_p99_us,
        report.messages_sent
    )
}

/// The measured outcome of one **T5** real-cluster loadgen run
/// (`loadgen` bin): wall-clock numbers from the at-node TCP runtime, as
/// opposed to every other experiment's virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct T5Report {
    /// Broadcast backend label.
    pub backend: String,
    /// Cluster size.
    pub n: usize,
    /// Batch size cap per replica.
    pub batch: usize,
    /// Batch window in microseconds.
    pub window_us: u64,
    /// Per-client pipelining window (max outstanding transfers).
    pub pipeline: usize,
    /// Wall-clock measurement duration (ms).
    pub duration_ms: u64,
    /// Transfers submitted by all clients.
    pub submitted: u64,
    /// Transfers acknowledged committed.
    pub committed: u64,
    /// Transfers rejected at admission.
    pub rejected: u64,
    /// Committed transfers per wall-clock second.
    pub throughput_tps: f64,
    /// Median submit→commit-ack latency (µs, wall clock).
    pub latency_p50_us: u64,
    /// 99th-percentile latency (µs, wall clock).
    pub latency_p99_us: u64,
    /// Whether every replica converged to byte-identical balances.
    pub converged: bool,
    /// Ledger digest of replica 0 after convergence.
    pub balance_digest: u64,
    /// Frames dropped across all transports (0 = reliable regime held).
    pub dropped_frames: u64,
}

/// Adds the run fields a T5 report shares with T7's headline run, from
/// `backend` through `converged`.
fn t5_run_fields(object: JsonObject, report: &T5Report) -> JsonObject {
    object
        .str("backend", &report.backend)
        .lit("n", report.n)
        .lit("batch", report.batch)
        .lit("window_us", report.window_us)
        .lit("pipeline", report.pipeline)
        .lit("duration_ms", report.duration_ms)
        .lit("submitted", report.submitted)
        .lit("committed", report.committed)
        .lit("rejected", report.rejected)
        .float("throughput_tps", report.throughput_tps, 1)
        .lit("latency_p50_us", report.latency_p50_us)
        .lit("latency_p99_us", report.latency_p99_us)
        .lit("converged", report.converged)
}

/// Renders a [`T5Report`] as `BENCH_t5.json`.
pub fn t5_json(report: &T5Report, smoke: bool) -> String {
    let object = JsonObject::new()
        .str(
            "experiment",
            "T5 real-cluster loadgen (at-node, loopback TCP)",
        )
        .lit("smoke", smoke);
    t5_run_fields(object, report)
        .lit("balance_digest", report.balance_digest)
        .lit("dropped_frames", report.dropped_frames)
        .render()
}

/// One authenticated leg of the **T7** hot-path bench: the same
/// loadgen shape run under real Ed25519 signatures, with the at-obs
/// sign/verify stage spans scraped back out of the cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct T7AuthRow {
    /// Committed transfers per wall-clock second.
    pub throughput_tps: f64,
    /// Mean of the merged `stage_sign_us` histogram (µs).
    pub sign_mean_us: u64,
    /// Mean of the merged `stage_verify_us` histogram (µs) — for a
    /// certificate pass this is the *amortized* per-signature cost.
    pub verify_mean_us: u64,
    /// Signing operations metered across the cluster.
    pub sign_count: u64,
    /// Signature verifications metered across the cluster (batch passes
    /// count once per covered signature).
    pub verify_count: u64,
}

/// Renders the **T7** hot-path report as `BENCH_t7.json`: the NoAuth
/// headline run against the recorded T5 baseline, plus the
/// serial-vs-batched Ed25519 comparison.
pub fn t7_json(
    smoke: bool,
    headline: &T5Report,
    t5_baseline_tps: f64,
    t5_baseline_p99_us: u64,
    serial: &T7AuthRow,
    batched: &T7AuthRow,
) -> String {
    let speedup_vs_t5 = if t5_baseline_tps > 0.0 {
        headline.throughput_tps / t5_baseline_tps
    } else {
        0.0
    };
    let p99_improvement = if t5_baseline_p99_us > 0 && headline.latency_p99_us > 0 {
        t5_baseline_p99_us as f64 / headline.latency_p99_us as f64
    } else {
        0.0
    };
    let verify_mean_speedup = if batched.verify_mean_us > 0 {
        serial.verify_mean_us as f64 / batched.verify_mean_us as f64
    } else {
        0.0
    };
    let auth_row = |row: &T7AuthRow| {
        JsonObject::new()
            .float("throughput_tps", row.throughput_tps, 1)
            .lit("sign_mean_us", row.sign_mean_us)
            .lit("verify_mean_us", row.verify_mean_us)
            .lit("sign_count", row.sign_count)
            .lit("verify_count", row.verify_count)
    };
    let headline_fields =
        t5_run_fields(JsonObject::new(), headline).lit("dropped_frames", headline.dropped_frames);
    JsonObject::new()
        .str(
            "experiment",
            "T7 hot-path (batched ed25519 verify, zero-copy decode, coalesced socket I/O)",
        )
        .lit("smoke", smoke)
        .block("headline", headline_fields)
        .float("t5_baseline_tps", t5_baseline_tps, 1)
        .lit("t5_baseline_p99_us", t5_baseline_p99_us)
        .float("speedup_vs_t5", speedup_vs_t5, 2)
        .float("p99_improvement", p99_improvement, 2)
        .inline("auth_serial", auth_row(serial))
        .inline("auth_batched", auth_row(batched))
        .float("verify_mean_speedup", verify_mean_speedup, 2)
        .lit("batch_verify_enabled", true)
        .render()
}

/// One `(backend, transport)` row of the **T6** chaos soak
/// (`chaos_soak` bin): aggregate outcome of N seeded nemesis schedules
/// against a live cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct T6Report {
    /// Broadcast backend label.
    pub backend: String,
    /// Transport label (`tcp` / `mesh`).
    pub transport: String,
    /// Chaos runs executed.
    pub runs: usize,
    /// Distinct nemesis schedules among them.
    pub distinct_schedules: usize,
    /// Transfers submitted across all runs.
    pub submitted: u64,
    /// Commit acknowledgements across all runs.
    pub committed: u64,
    /// Acknowledgements lost to crash steps (expected 0 without crashes).
    pub unresolved: u64,
    /// Engine events validated across all runs.
    pub events: u64,
    /// Runs whose linearizability check exhausted its budget.
    pub unknown: usize,
    /// Validator violations across all runs (the gate: must be 0).
    pub violations: usize,
    /// Wall-clock spent on this row (ms).
    pub wall_ms: u64,
}

/// Renders T6 rows as `BENCH_t6.json`.
pub fn t6_json(smoke: bool, seed_base: u64, rows: &[T6Report]) -> String {
    let results = rows
        .iter()
        .map(|row| {
            JsonObject::new()
                .str("backend", &row.backend)
                .str("transport", &row.transport)
                .lit("runs", row.runs)
                .lit("distinct_schedules", row.distinct_schedules)
                .lit("submitted", row.submitted)
                .lit("committed", row.committed)
                .lit("unresolved", row.unresolved)
                .lit("events", row.events)
                .lit("unknown", row.unknown)
                .lit("violations", row.violations)
                .lit("wall_ms", row.wall_ms)
        })
        .collect();
    JsonObject::new()
        .str(
            "experiment",
            "T6 chaos soak (at-chaos nemesis vs live clusters)",
        )
        .lit("smoke", smoke)
        .lit("seed_base", seed_base)
        .rows("results", results)
        .render()
}

/// The outcome of one **T9** million-account scale soak (`scale_soak`
/// bin): a compressed long-run against a live TCP cluster with a large
/// account universe, Zipf-hot destinations, rolling warm crash/restarts,
/// a quorum-attested cold bootstrap at the end, and a nemesis leg whose
/// recorded runs go through the full at-check battery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct T9Report {
    /// Broadcast backend label.
    pub backend: String,
    /// Cluster size.
    pub n: usize,
    /// Ledger account universe (decoupled from `n`).
    pub accounts: usize,
    /// Soak windows executed (one rolling restart per window).
    pub windows: usize,
    /// Transfers submitted per window across the cluster.
    pub transfers_per_window: usize,
    /// Transfers submitted over the whole soak.
    pub submitted: u64,
    /// Commit acknowledgements received.
    pub committed: u64,
    /// Rejections at admission.
    pub rejected: u64,
    /// Warm crash/restarts performed by the rolling schedule.
    pub warm_restarts: u64,
    /// Broadcast instances + engine history entries pruned across the
    /// cluster (`engine_pruned_total`, summed) — nonzero proves log
    /// truncation ran.
    pub pruned_total: u64,
    /// Pending-buffer overflow drops (must be 0 under the closed loop).
    pub overflow_dropped: u64,
    /// Peak `broadcast_instances` gauge over the first half of the soak.
    pub instances_peak_early: u64,
    /// Peak `broadcast_instances` gauge over the second half — the
    /// plateau gate compares this against the early peak.
    pub instances_peak_late: u64,
    /// Peak `engine_pending` gauge over the first half.
    pub pending_peak_early: u64,
    /// Peak `engine_pending` gauge over the second half.
    pub pending_peak_late: u64,
    /// The memory-plateau gate: late peaks within slack of early peaks
    /// and pruning active.
    pub plateau_ok: bool,
    /// Encoded snapshot size served to the cold bootstrap (bytes).
    pub snapshot_bytes: u64,
    /// Chunks the cold bootstrap transferred.
    pub snapshot_chunks: u64,
    /// Wall-clock of the quorum-attested cold bootstrap (ms).
    pub cold_catchup_ms: u64,
    /// Transfers the cold-started node applied locally — far below
    /// `committed` when the snapshot carried the prefix.
    pub cold_applied: u64,
    /// Whether the cluster (cold node included) reached digest
    /// agreement at the end.
    pub converged: bool,
    /// Nemesis-leg chaos runs executed (base topology, crash-bearing
    /// schedules, pruning enabled).
    pub nemesis_runs: usize,
    /// Validator violations across the nemesis leg (the gate: 0).
    pub nemesis_violations: usize,
    /// All at-check validators green on the recorded nemesis runs.
    pub validators_green: bool,
}

/// Renders a [`T9Report`] as `BENCH_t9.json`.
pub fn t9_json(report: &T9Report, smoke: bool) -> String {
    JsonObject::new()
        .str(
            "experiment",
            "T9 million-account scale soak (snapshots, log truncation, cold catch-up)",
        )
        .lit("smoke", smoke)
        .str("backend", &report.backend)
        .lit("n", report.n)
        .lit("accounts", report.accounts)
        .lit("windows", report.windows)
        .lit("transfers_per_window", report.transfers_per_window)
        .lit("submitted", report.submitted)
        .lit("committed", report.committed)
        .lit("rejected", report.rejected)
        .lit("warm_restarts", report.warm_restarts)
        .lit("pruned_total", report.pruned_total)
        .lit("overflow_dropped", report.overflow_dropped)
        .lit("instances_peak_early", report.instances_peak_early)
        .lit("instances_peak_late", report.instances_peak_late)
        .lit("pending_peak_early", report.pending_peak_early)
        .lit("pending_peak_late", report.pending_peak_late)
        .lit("plateau_ok", report.plateau_ok)
        .lit("snapshot_bytes", report.snapshot_bytes)
        .lit("snapshot_chunks", report.snapshot_chunks)
        .lit("cold_catchup_ms", report.cold_catchup_ms)
        .lit("cold_applied", report.cold_applied)
        .lit("converged", report.converged)
        .lit("nemesis_runs", report.nemesis_runs)
        .lit("nemesis_violations", report.nemesis_violations)
        .lit("validators_green", report.validators_green)
        .render()
}

/// The markdown table header matching [`format_row`].
pub fn table_header() -> String {
    [
        "| system | n | completed | tps | mean µs | p50 µs | p99 µs | messages |",
        "|---|---|---|---|---|---|---|---|",
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        eval_scenario(4, 2, 1, NetProfile::Lan)
    }

    fn t5_report() -> T5Report {
        T5Report {
            backend: "echo".into(),
            n: 4,
            batch: 128,
            window_us: 1000,
            pipeline: 256,
            duration_ms: 10_000,
            submitted: 123_456,
            committed: 123_000,
            rejected: 0,
            throughput_tps: 12_300.0,
            latency_p50_us: 2_500,
            latency_p99_us: 9_000,
            converged: true,
            balance_digest: 42,
            dropped_frames: 0,
        }
    }

    fn t7_fixture_json() -> String {
        let headline = T5Report {
            pipeline: 1024,
            submitted: 3_000_000,
            committed: 3_000_000,
            throughput_tps: 300_000.0,
            latency_p99_us: 8_000,
            ..t5_report()
        };
        let serial = T7AuthRow {
            throughput_tps: 20_000.0,
            sign_mean_us: 120,
            verify_mean_us: 200,
            sign_count: 10_000,
            verify_count: 40_000,
        };
        let batched = T7AuthRow {
            throughput_tps: 60_000.0,
            sign_mean_us: 120,
            verify_mean_us: 40,
            sign_count: 30_000,
            verify_count: 120_000,
        };
        t7_json(false, &headline, 30_000.0, 104_000, &serial, &batched)
    }

    fn t6_fixture_json() -> String {
        let rows = vec![
            T6Report {
                backend: "echo".into(),
                transport: "tcp".into(),
                runs: 50,
                distinct_schedules: 50,
                submitted: 12_000,
                committed: 12_000,
                unresolved: 0,
                events: 77_000,
                unknown: 0,
                violations: 0,
                wall_ms: 40_000,
            },
            T6Report {
                backend: "bracha".into(),
                transport: "mesh".into(),
                runs: 1,
                distinct_schedules: 1,
                submitted: 100,
                committed: 100,
                unresolved: 0,
                events: 644,
                unknown: 0,
                violations: 0,
                wall_ms: 200,
            },
        ];
        t6_json(true, 0xC4A0, &rows)
    }

    fn t9_fixture_json() -> String {
        let report = T9Report {
            backend: "echo".into(),
            n: 4,
            accounts: 1_000_000,
            windows: 24,
            transfers_per_window: 200,
            submitted: 4_800,
            committed: 4_800,
            rejected: 0,
            warm_restarts: 24,
            pruned_total: 9_000,
            overflow_dropped: 0,
            instances_peak_early: 120,
            instances_peak_late: 110,
            pending_peak_early: 40,
            pending_peak_late: 35,
            plateau_ok: true,
            snapshot_bytes: 12_000_000,
            snapshot_chunks: 12,
            cold_catchup_ms: 850,
            cold_applied: 30,
            converged: true,
            nemesis_runs: 10,
            nemesis_violations: 0,
            validators_green: true,
        };
        t9_json(&report, false)
    }

    fn t4_fixture_json() -> String {
        let scenario = t4_scenario(4, 1, 1, 3);
        t4_json(3, 0, &[(4, eval_t4(&scenario, 0, false))])
    }

    /// The keys of a rendered report in order of first appearance (a
    /// key is a quoted string followed by a colon; no report value
    /// contains `":`).
    fn keys(json: &str) -> Vec<&str> {
        let parts: Vec<&str> = json.split('"').collect();
        let mut keys = Vec::new();
        for pair in parts.windows(2).skip(1).step_by(2) {
            if pair[1].starts_with(':') && !keys.contains(&pair[0]) {
                keys.push(pair[0]);
            }
        }
        keys
    }

    #[test]
    fn t5_json_is_well_formed() {
        let json = t5_json(&t5_report(), false);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T5 real-cluster loadgen"));
        assert!(json.contains("\"throughput_tps\": 12300.0"));
        assert!(json.contains("\"converged\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn t7_json_is_well_formed_and_computes_speedups() {
        let json = t7_fixture_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T7 hot-path"));
        assert!(json.contains("\"speedup_vs_t5\": 10.00"));
        assert!(json.contains("\"p99_improvement\": 13.00"));
        assert!(json.contains("\"verify_mean_speedup\": 5.00"));
        assert!(json.contains("\"batch_verify_enabled\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn t6_json_is_well_formed() {
        let json = t6_fixture_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T6 chaos soak"));
        assert!(json.contains("\"backend\": \"echo\""));
        assert!(json.contains("\"transport\": \"mesh\""));
        assert!(json.contains("\"distinct_schedules\": 50"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn t9_json_is_well_formed() {
        let json = t9_fixture_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T9 million-account scale soak"));
        assert!(json.contains("\"accounts\": 1000000"));
        assert!(json.contains("\"plateau_ok\": true"));
        assert!(json.contains("\"validators_green\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn t4_json_keys_match_the_committed_report() {
        assert_eq!(
            keys(&t4_fixture_json()),
            keys(include_str!("../../../BENCH_t4.json"))
        );
    }

    #[test]
    fn t5_json_keys_match_the_committed_report() {
        let json = t5_json(&t5_report(), true);
        assert_eq!(keys(&json), keys(include_str!("../../../BENCH_t5.json")));
    }

    #[test]
    fn t6_json_keys_match_the_committed_report() {
        assert_eq!(
            keys(&t6_fixture_json()),
            keys(include_str!("../../../BENCH_t6.json"))
        );
    }

    #[test]
    fn t7_json_keys_match_the_committed_report() {
        assert_eq!(
            keys(&t7_fixture_json()),
            keys(include_str!("../../../BENCH_t7.json"))
        );
    }

    #[test]
    fn t9_json_keys_match_the_committed_report() {
        assert_eq!(
            keys(&t9_fixture_json()),
            keys(include_str!("../../../BENCH_t9.json"))
        );
    }

    #[test]
    fn bracha_run_completes_all_transfers() {
        let result = bracha_engine().run(&small());
        assert_eq!(result.completed, 8);
        assert!(result.throughput_tps > 0.0);
        assert!(result.latency_p50_us > 0);
        assert!(result.latency_p99_us >= result.latency_p50_us);
    }

    #[test]
    fn echo_run_completes_all_transfers() {
        let result = echo_engine().run(&small());
        assert_eq!(result.completed, 8);
        // Echo (linear) uses fewer messages than Bracha (quadratic).
        let bracha = bracha_engine().run(&small());
        assert!(result.messages_sent < bracha.messages_sent);
    }

    #[test]
    fn baseline_run_completes_all_transfers() {
        let result = BaselineEngine::new(8).run(&small());
        assert_eq!(result.completed, 8);
    }

    #[test]
    fn kshared_run_completes() {
        let result = eval_kshared(&small(), 2);
        assert_eq!(result.completed, 4);
        assert!(result.agreed && result.supply_ok);
    }

    #[test]
    fn runs_are_deterministic() {
        assert_eq!(echo_engine().run(&small()), echo_engine().run(&small()));
        assert_eq!(eval_kshared(&small(), 2), eval_kshared(&small(), 2));
    }

    #[test]
    fn t3_sharded_batched_beats_or_matches_unsharded_at_16() {
        // The acceptance bar of the engine subsystem: at n ≥ 16 the
        // sharded+batched engine's throughput is at least the unsharded
        // consensusless engine's (batching amortizes the O(n²) broadcast).
        let scenario = t3_scenario(16, 2, 4, 21);
        let reports = eval_t3(&scenario);
        assert_eq!(reports.len(), 3);
        let unsharded = &reports[0];
        let sharded = &reports[1];
        assert_eq!(unsharded.engine, "consensusless");
        assert_eq!(sharded.engine, "consensusless-s4b8");
        assert_eq!(unsharded.completed, sharded.completed);
        assert!(unsharded.completed > 0);
        assert!(
            sharded.throughput_tps >= unsharded.throughput_tps,
            "sharded+batched {} tps < unsharded {} tps",
            sharded.throughput_tps,
            unsharded.throughput_tps
        );
        assert!(sharded.messages_sent < unsharded.messages_sent);
        for report in &reports {
            assert!(report.agreed && report.supply_ok);
            assert_eq!(report.conflicts, 0);
        }
    }

    #[test]
    fn t3_runs_are_deterministic() {
        let scenario = t3_scenario(8, 2, 2, 9);
        assert_eq!(eval_t3(&scenario), eval_t3(&scenario));
    }

    #[test]
    fn t4_signed_echo_halves_brachas_message_count_at_16() {
        // The acceptance bar of the backend ablation: at n ≥ 16 the
        // signed-echo backend spends at most half of Bracha's messages
        // per transfer (O(n) sender cost vs O(n²)).
        let scenario = t4_scenario(16, 2, 1, 21);
        let reports = eval_t4(&scenario, 0, false);
        assert_eq!(reports.len(), 3);
        let bracha = &reports[0];
        let echo = &reports[1];
        let account = &reports[2];
        assert_eq!(bracha.engine, "consensusless");
        assert_eq!(echo.engine, "consensusless-echo");
        assert_eq!(account.engine, "consensusless-acctorder");
        for report in &reports {
            assert_eq!(report.completed, 32, "{}", report.engine);
            assert!(report.agreed, "{}", report.engine);
            assert_eq!(report.conflicts, 0, "{}", report.engine);
        }
        assert!(
            messages_per_transfer(echo) * 2.0 <= messages_per_transfer(bracha),
            "echo {:.1} vs bracha {:.1} msgs/transfer",
            messages_per_transfer(echo),
            messages_per_transfer(bracha)
        );
        assert!(
            messages_per_transfer(account) * 2.0 <= messages_per_transfer(bracha),
            "account-order {:.1} vs bracha {:.1} msgs/transfer",
            messages_per_transfer(account),
            messages_per_transfer(bracha)
        );
    }

    #[test]
    fn t4_sig_cost_slows_only_the_signed_backends() {
        let scenario = t4_scenario(8, 2, 1, 5);
        let free = eval_t4(&scenario, 0, false);
        let costly = eval_t4(&scenario, 200, false);
        // Bracha is signature-free: identical duration either way.
        assert_eq!(free[0].duration_us, costly[0].duration_us);
        // The signed backends pay the modelled CPU in virtual time.
        assert!(costly[1].latency_p50_us > free[1].latency_p50_us);
        assert!(costly[2].latency_p50_us > free[2].latency_p50_us);
    }

    #[test]
    fn t4_json_is_well_formed() {
        let json = t4_fixture_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"T4 broadcast-backend ablation\""));
        assert!(json.contains("\"engine\": \"consensusless-echo\""));
        assert!(json.contains("\"messages_per_transfer\""));
        // Balanced braces (cheap structural sanity without a parser).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn formatting_produces_markdown() {
        let result = echo_engine().run(&small());
        let row = format_row("echo", &result);
        assert!(row.starts_with("| echo | 4 |"));
        assert!(table_header().contains("| system |"));
    }
}
