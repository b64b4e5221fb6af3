//! The engine driver API: one trait, two engines, one report format.
//!
//! [`Engine::run`] executes a [`Scenario`] and produces a
//! [`ScenarioReport`]; benches, examples, and tests all drive systems
//! through this interface so their numbers are directly comparable.
//!
//! * [`ConsensuslessEngine`] — the paper's broadcast-based system as the
//!   sharded, batched [`crate::replica::ShardedReplica`] runtime
//!   (configure with [`EngineConfig::unsharded`] for the Figure 4
//!   deployment shape);
//! * [`BaselineEngine`] — the PBFT state-machine-replication baseline.
//!   PBFT has no notion of a tolerated-but-active Byzantine client, so
//!   adversarial processes degrade to crashed ones here; a crashed
//!   *leader* stalls the baseline entirely, which is precisely the
//!   availability contrast the paper draws.

use crate::adversary::EngineActor;
use crate::config::{AuthMode, BroadcastBackend, EngineConfig};
use crate::replica::{EngineEvent, EnginePayload};
use crate::scenario::{mean, percentiles, Adversary, Fault, Scenario, ScenarioReport};
use at_broadcast::auth::{EdAuth, NoAuth};
use at_broadcast::bracha::BrachaBroadcast;
use at_broadcast::echo::EchoBroadcast;
use at_broadcast::secure::{AccountOrderBackend, SecureBroadcast};
use at_consensus::transfer_system::{BaselineEvent, BaselineReplica};
use at_model::{AccountId, Amount, Ledger, ProcessId, SeqNo, Transfer};
use at_net::{LinkFault, Simulation, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

/// A payment system that can execute scenarios.
pub trait Engine {
    /// The engine's display name (report key).
    fn name(&self) -> String;

    /// Runs `scenario` to quiescence and reports the outcome.
    fn run(&self, scenario: &Scenario) -> ScenarioReport;
}

/// Installs a scenario's static link faults on a simulation. Multiple
/// faults on the same directed link compose (drops and delay merge into
/// one [`LinkFault`]) rather than overwrite.
fn install_link_faults<A: at_net::Actor>(sim: &mut Simulation<A>, scenario: &Scenario) {
    let mut merged: BTreeMap<(ProcessId, ProcessId), LinkFault> = BTreeMap::new();
    for fault in &scenario.faults {
        let (link, add) = match fault {
            Fault::DropLink { from, to, count } => ((*from, *to), LinkFault::drop(*count)),
            Fault::DelayLink {
                from,
                to,
                extra_micros,
            } => (
                (*from, *to),
                LinkFault::delay(VirtualTime::from_micros(*extra_micros)),
            ),
            Fault::Partition { .. } => continue,
        };
        let entry = merged.entry(link).or_insert(LinkFault {
            drop_next: 0,
            extra_delay: VirtualTime::ZERO,
        });
        entry.drop_next += add.drop_next;
        entry.extra_delay += add.extra_delay;
    }
    for ((from, to), fault) in merged {
        sim.inject_link_fault(from, to, fault);
    }
}

/// Applies partition transitions scheduled for the start of `wave`.
fn apply_partitions<A: at_net::Actor>(sim: &mut Simulation<A>, scenario: &Scenario, wave: usize) {
    for fault in &scenario.faults {
        if let Fault::Partition {
            groups,
            from_wave,
            heal_wave,
        } = fault
        {
            if wave == *from_wave {
                let group_refs: Vec<&[ProcessId]> =
                    groups.iter().map(|group| group.as_slice()).collect();
                // Buffered: the paper assumes reliable authenticated
                // channels, so a partition delays cross-group messages
                // rather than destroying them — they are re-injected at
                // heal time and the protocols converge without their own
                // retransmission. (Injected `DropLink` faults stay lossy.)
                sim.set_partition_buffered(&group_refs);
            } else if wave == *heal_wave {
                sim.heal_partition();
            }
        }
    }
}

/// Folds one batch of engine events into the run counters.
/// `latency_anchor` is the submitting wave's start; pass `None` for the
/// end-of-run drain, where the submitting wave is no longer known —
/// those completions are counted but contribute no latency sample
/// (anchoring them to the last wave would understate the very delays
/// the buffered-partition model introduces).
fn tally_engine_events(
    events: Vec<(VirtualTime, ProcessId, EngineEvent)>,
    scenario: &Scenario,
    latency_anchor: Option<VirtualTime>,
    completed: &mut usize,
    rejected: &mut usize,
    applied_total: &mut u64,
    latencies: &mut Vec<u64>,
) {
    for (at, from, event) in events {
        if !scenario.is_correct(from) {
            continue;
        }
        match event {
            EngineEvent::Completed { .. } => {
                *completed += 1;
                if let Some(anchor) = latency_anchor {
                    latencies.push(at.saturating_sub(anchor).as_micros());
                }
            }
            EngineEvent::Rejected { .. } => *rejected += 1,
            EngineEvent::Applied { .. } => *applied_total += 1,
            EngineEvent::BatchBroadcast { .. }
            | EngineEvent::Submitted { .. }
            | EngineEvent::BackendDelivery { .. }
            | EngineEvent::ReadObserved { .. } => {}
        }
    }
}

/// [`tally_engine_events`]'s counterpart for the PBFT baseline.
fn tally_baseline_events(
    events: Vec<(VirtualTime, ProcessId, BaselineEvent)>,
    scenario: &Scenario,
    latency_anchor: Option<VirtualTime>,
    completed: &mut usize,
    rejected: &mut usize,
    latencies: &mut Vec<u64>,
) {
    for (at, from, event) in events {
        if !scenario.is_correct(from) {
            continue;
        }
        let BaselineEvent::Completed { success, .. } = event;
        if success {
            *completed += 1;
            if let Some(anchor) = latency_anchor {
                latencies.push(at.saturating_sub(anchor).as_micros());
            }
        } else {
            *rejected += 1;
        }
    }
}

/// The broadcast-based engine (no consensus anywhere), over the
/// secure-broadcast backend selected by
/// [`EngineConfig::backend`](crate::config::EngineConfig).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsensuslessEngine {
    /// Backend, sharding, and batching configuration of every replica.
    pub config: EngineConfig,
}

impl ConsensuslessEngine {
    /// An engine with the given runtime configuration.
    pub fn new(config: EngineConfig) -> Self {
        ConsensuslessEngine { config }
    }

    /// The scenario loop, generic over the broadcast backend; `make`
    /// builds each process's endpoint (sharing key stores etc. as the
    /// backend requires).
    fn run_backend<B, F>(&self, scenario: &Scenario, make: F) -> ScenarioReport
    where
        B: SecureBroadcast<EnginePayload> + 'static,
        F: Fn(ProcessId) -> B,
    {
        let n = scenario.n;
        let config = self.config;
        let actors: Vec<EngineActor<B>> = ProcessId::all(n)
            .map(|p| match scenario.adversary_of(p) {
                None => EngineActor::honest(p, n, scenario.initial, config, make(p)),
                Some(Adversary::Equivocate) => {
                    EngineActor::equivocator(p, n, scenario.initial, config, make(p))
                }
                Some(Adversary::Overspend) => {
                    EngineActor::overspender(p, n, scenario.initial, config, make(p))
                }
                Some(Adversary::Silent) => EngineActor::Silent,
            })
            .collect();
        let mut sim = Simulation::new(actors, scenario.net.config(scenario.seed));
        install_link_faults(&mut sim, scenario);

        let mut latencies = Vec::new();
        let mut completed = 0usize;
        let mut rejected = 0usize;
        let mut applied_total = 0u64;

        for wave in 0..scenario.waves {
            apply_partitions(&mut sim, scenario, wave);
            let wave_start = sim.now();
            for i in 0..n {
                let process = ProcessId::new(i as u32);
                match scenario.adversary_of(process) {
                    Some(Adversary::Silent) => {}
                    Some(_) => {
                        sim.schedule(wave_start, process, move |actor, ctx| {
                            actor.attack(wave, ctx);
                        });
                    }
                    None => {
                        for slot in 0..scenario.transfers_per_wave {
                            // Fold the slot into the workload's wave
                            // coordinate so every slot gets its own
                            // deterministic destination.
                            let virtual_wave = wave * scenario.transfers_per_wave + slot;
                            let Some(dest) =
                                scenario
                                    .workload
                                    .destination(scenario.seed, virtual_wave, i, n)
                            else {
                                continue;
                            };
                            let amount = scenario.amount;
                            sim.schedule(wave_start, process, move |actor, ctx| {
                                actor.submit(dest, amount, ctx);
                            });
                        }
                    }
                }
            }
            sim.run_until_quiet(u64::MAX);
            tally_engine_events(
                sim.take_events(),
                scenario,
                Some(wave_start),
                &mut completed,
                &mut rejected,
                &mut applied_total,
                &mut latencies,
            );
        }

        // Reliable channels hold to the end of the run: a partition whose
        // heal wave lies beyond the last wave still releases its parked
        // traffic before the report is cut — buffered messages are
        // delayed, never lost. (A no-op when everything already healed.)
        sim.heal_partition();
        sim.run_until_quiet(u64::MAX);
        tally_engine_events(
            sim.take_events(),
            scenario,
            None,
            &mut completed,
            &mut rejected,
            &mut applied_total,
            &mut latencies,
        );
        debug_assert_eq!(sim.parked_count(), 0, "parked messages at end of run");

        // Convergence, conflicts, conservation over the correct replicas.
        let correct: Vec<ProcessId> = scenario.correct_processes().collect();
        let digests: Vec<u64> = correct
            .iter()
            .map(|p| sim.actor(*p).as_honest().expect("correct").digest())
            .collect();
        let agreed = digests.windows(2).all(|w| w[0] == w[1]);
        let expected_supply = Amount::new(scenario.initial.units() * n as u64);
        let supply_ok = correct.iter().all(|p| {
            sim.actor(*p)
                .as_honest()
                .expect("correct")
                .ledger()
                .total_supply()
                == expected_supply
        });

        let mut conflicts = 0usize;
        for source in ProcessId::all(n) {
            let mut by_seq: BTreeMap<u64, BTreeSet<Transfer>> = BTreeMap::new();
            for p in &correct {
                let replica = sim.actor(*p).as_honest().expect("correct");
                for (seq, transfer) in replica.applied_from(source) {
                    by_seq.entry(*seq).or_default().insert(*transfer);
                }
            }
            conflicts += by_seq.values().filter(|set| set.len() > 1).count();
        }

        let (p50, p99) = percentiles(&mut latencies);
        let duration = sim.now();
        ScenarioReport {
            scenario: scenario.name.clone(),
            engine: self.name(),
            n,
            correct: correct.len(),
            completed,
            rejected,
            applied_total,
            duration_us: duration.as_micros(),
            throughput_tps: completed as f64 / duration.as_secs_f64().max(f64::MIN_POSITIVE),
            latency_mean_us: mean(&latencies),
            latency_p50_us: p50,
            latency_p99_us: p99,
            messages_sent: sim.stats().messages_sent,
            messages_dropped: sim.stats().messages_dropped,
            agreed,
            conflicts,
            supply_ok,
            balance_digest: digests.first().copied().unwrap_or(0),
        }
    }
}

impl Engine for ConsensuslessEngine {
    fn name(&self) -> String {
        let base = match self.config.backend {
            BroadcastBackend::Bracha => "consensusless".to_string(),
            backend => format!("consensusless-{}", backend.label()),
        };
        if self.config.batch.is_immediate() && self.config.shards == 1 {
            base
        } else {
            format!(
                "{base}-s{}b{}",
                self.config.shards, self.config.batch.max_size
            )
        }
    }

    fn run(&self, scenario: &Scenario) -> ScenarioReport {
        let n = scenario.n;
        match self.config.backend {
            BroadcastBackend::Bracha => {
                self.run_backend(scenario, |me| BrachaBroadcast::new(me, n))
            }
            BroadcastBackend::SignedEcho {
                auth: AuthMode::None,
                forward_final,
            } => self.run_backend(scenario, |me| {
                let mut backend = EchoBroadcast::new(me, n, NoAuth);
                backend.set_forward_final(forward_final);
                backend
            }),
            BroadcastBackend::SignedEcho {
                auth: AuthMode::Ed25519,
                forward_final,
            } => {
                // One deterministic key store per run, shared by every
                // process — each signs with its own key, verifies with
                // everyone's public keys.
                let auth = EdAuth::deterministic(n, scenario.seed);
                self.run_backend(scenario, move |me| {
                    let mut backend = EchoBroadcast::new(me, n, auth.clone());
                    backend.set_forward_final(forward_final);
                    backend
                })
            }
            BroadcastBackend::AccountOrder {
                auth: AuthMode::None,
                forward_final,
            } => self.run_backend(scenario, |me| {
                let mut backend = AccountOrderBackend::new(me, n, NoAuth);
                backend.set_forward_final(forward_final);
                backend
            }),
            BroadcastBackend::AccountOrder {
                auth: AuthMode::Ed25519,
                forward_final,
            } => {
                let auth = EdAuth::deterministic(n, scenario.seed);
                self.run_backend(scenario, move |me| {
                    let mut backend = AccountOrderBackend::new(me, n, auth.clone());
                    backend.set_forward_final(forward_final);
                    backend
                })
            }
        }
    }
}

/// Digest over a [`Ledger`], comparable with
/// [`crate::shard::ShardedLedger::digest`] (both delegate to
/// [`crate::shard::digest_balances`]).
fn ledger_digest(ledger: &Ledger) -> u64 {
    crate::shard::digest_balances(ledger.iter())
}

/// The consensus-based (PBFT) baseline engine.
#[derive(Clone, Copy, Debug)]
pub struct BaselineEngine {
    /// PBFT leader batch size.
    pub batch_size: usize,
}

impl Default for BaselineEngine {
    fn default() -> Self {
        BaselineEngine { batch_size: 8 }
    }
}

impl BaselineEngine {
    /// A baseline engine with the given PBFT batch size.
    pub fn new(batch_size: usize) -> Self {
        BaselineEngine { batch_size }
    }
}

impl Engine for BaselineEngine {
    fn name(&self) -> String {
        format!("pbft-b{}", self.batch_size)
    }

    fn run(&self, scenario: &Scenario) -> ScenarioReport {
        let n = scenario.n;
        let initial = Ledger::uniform(n, scenario.initial);
        let actors: Vec<BaselineReplica> = ProcessId::all(n)
            .map(|me| BaselineReplica::new(me, n, initial.clone(), self.batch_size))
            .collect();
        let mut sim = Simulation::new(actors, scenario.net.config(scenario.seed));
        install_link_faults(&mut sim, scenario);
        // PBFT models Byzantine processes as crashed (see the type docs).
        for (process, _) in &scenario.adversaries {
            sim.crash(*process);
        }

        let mut latencies = Vec::new();
        let mut completed = 0usize;
        let mut rejected = 0usize;
        let mut next_seq = vec![SeqNo::ZERO; n];

        for wave in 0..scenario.waves {
            apply_partitions(&mut sim, scenario, wave);
            let wave_start = sim.now();
            for (i, seq) in next_seq.iter_mut().enumerate() {
                let process = ProcessId::new(i as u32);
                if !scenario.is_correct(process) {
                    continue;
                }
                for slot in 0..scenario.transfers_per_wave {
                    let virtual_wave = wave * scenario.transfers_per_wave + slot;
                    let Some(dest) =
                        scenario
                            .workload
                            .destination(scenario.seed, virtual_wave, i, n)
                    else {
                        continue;
                    };
                    *seq = seq.next();
                    let tx = Transfer::new(
                        AccountId::new(i as u32),
                        dest,
                        scenario.amount,
                        process,
                        *seq,
                    );
                    sim.schedule(wave_start, process, move |replica, ctx| {
                        replica.submit(tx, ctx);
                    });
                }
            }
            // Flush any partially filled leader batch shortly after the
            // submissions land (mirrors the T1/T2 harness).
            for i in 0..n {
                let process = ProcessId::new(i as u32);
                if scenario.is_correct(process) {
                    sim.schedule(
                        wave_start + VirtualTime::from_millis(2),
                        process,
                        |replica, ctx| replica.flush_now(ctx),
                    );
                }
            }
            sim.run_until_quiet(u64::MAX);
            tally_baseline_events(
                sim.take_events(),
                scenario,
                Some(wave_start),
                &mut completed,
                &mut rejected,
                &mut latencies,
            );
        }

        // Release any still-parked partition traffic before reporting
        // (see the consensusless engine's end-of-run drain).
        sim.heal_partition();
        sim.run_until_quiet(u64::MAX);
        tally_baseline_events(
            sim.take_events(),
            scenario,
            None,
            &mut completed,
            &mut rejected,
            &mut latencies,
        );

        let correct: Vec<ProcessId> = scenario.correct_processes().collect();
        let digests: Vec<u64> = correct
            .iter()
            .map(|p| ledger_digest(sim.actor(*p).ledger()))
            .collect();
        let agreed = digests.windows(2).all(|w| w[0] == w[1]);
        let expected_supply = Amount::new(scenario.initial.units() * n as u64);
        let supply_ok = correct
            .iter()
            .all(|p| sim.actor(*p).ledger().total_supply() == expected_supply);
        let applied_total: u64 = correct.iter().map(|p| sim.actor(*p).executed_count()).sum();

        let (p50, p99) = percentiles(&mut latencies);
        let duration = sim.now();
        ScenarioReport {
            scenario: scenario.name.clone(),
            engine: self.name(),
            n,
            correct: correct.len(),
            completed,
            rejected,
            applied_total,
            duration_us: duration.as_micros(),
            throughput_tps: completed as f64 / duration.as_secs_f64().max(f64::MIN_POSITIVE),
            latency_mean_us: mean(&latencies),
            latency_p50_us: p50,
            latency_p99_us: p99,
            messages_sent: sim.stats().messages_sent,
            messages_dropped: sim.stats().messages_dropped,
            agreed,
            conflicts: 0,
            supply_ok,
            balance_digest: digests.first().copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{NetProfile, Workload};

    fn uniform(name: &str, n: usize) -> Scenario {
        Scenario::new(name, n).waves(2).seed(5)
    }

    #[test]
    fn consensusless_engine_completes_uniform_waves() {
        let engine = ConsensuslessEngine::new(EngineConfig::unsharded());
        let report = engine.run(&uniform("uniform", 4));
        assert_eq!(report.engine, "consensusless");
        assert_eq!(report.completed, 8);
        assert_eq!(report.rejected, 0);
        assert!(report.agreed);
        assert!(report.supply_ok);
        assert_eq!(report.conflicts, 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn sharded_batched_engine_uses_fewer_messages() {
        // Four transfers per process per wave: batches actually fill.
        let scenario = uniform("uniform", 8).transfers_per_wave(4);
        let plain = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
        let tuned = ConsensuslessEngine::new(EngineConfig::sharded_batched(
            4,
            8,
            VirtualTime::from_micros(300),
        ))
        .run(&scenario);
        assert_eq!(plain.completed, tuned.completed);
        assert!(
            tuned.messages_sent < plain.messages_sent,
            "batched {} vs plain {}",
            tuned.messages_sent,
            plain.messages_sent
        );
        assert!(tuned.agreed && tuned.supply_ok);
    }

    #[test]
    fn engine_runs_are_deterministic() {
        let scenario = uniform("det", 5).workload(Workload::HotSpot {
            hot: AccountId::new(0),
            percent_hot: 50,
        });
        let engine = ConsensuslessEngine::new(EngineConfig::standard());
        assert_eq!(engine.run(&scenario), engine.run(&scenario));
    }

    #[test]
    fn baseline_engine_completes_and_agrees() {
        let engine = BaselineEngine::default();
        let report = engine.run(&uniform("uniform", 4));
        assert_eq!(report.engine, "pbft-b8");
        assert_eq!(report.completed, 8);
        assert!(report.agreed);
        assert!(report.supply_ok);
    }

    #[test]
    fn baseline_with_crashed_leader_stalls_but_reports() {
        let scenario = uniform("leader-crash", 4)
            .adversary(ProcessId::new(0), Adversary::Silent)
            .net(NetProfile::Instant);
        let report = BaselineEngine::default().run(&scenario);
        // Leader (p0) crashed: nothing commits, but the report is sound.
        assert_eq!(report.completed, 0);
        assert_eq!(report.correct, 3);
        assert!(report.supply_ok);
    }

    #[test]
    fn equivocation_scenario_yields_zero_conflicts_on_every_backend() {
        let scenario = uniform("equivocate", 4).adversary(ProcessId::new(0), Adversary::Equivocate);
        for backend in [
            BroadcastBackend::Bracha,
            BroadcastBackend::signed_echo(),
            BroadcastBackend::account_order(),
        ] {
            let report = ConsensuslessEngine::new(EngineConfig::standard().with_backend(backend))
                .run(&scenario);
            assert_eq!(report.conflicts, 0, "{backend:?}");
            assert!(report.supply_ok, "{backend:?}");
            assert!(report.agreed, "{backend:?}");
            // The three correct processes still complete their transfers.
            assert_eq!(report.completed, 3 * scenario.waves, "{backend:?}");
        }
    }

    #[test]
    fn unhealed_partition_still_drains_at_end_of_run() {
        // heal_wave beyond the last wave: the end-of-run drain must
        // release the parked traffic anyway — buffered partitions delay
        // messages, never lose them.
        let scenario = uniform("unhealed", 5).fault(Fault::Partition {
            groups: vec![
                vec![ProcessId::new(4)],
                (0..4).map(ProcessId::new).collect(),
            ],
            from_wave: 1,
            heal_wave: 99,
        });
        let report = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
        assert_eq!(report.completed, 5 * scenario.waves);
        assert!(report.agreed, "diverged despite end-of-run drain");
        assert_eq!(report.messages_dropped, 0);
        assert!(report.supply_ok);
    }

    #[test]
    fn signed_backends_match_bracha_balances() {
        let scenario = uniform("uniform", 5);
        let reference = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
        for backend in [
            BroadcastBackend::signed_echo(),
            BroadcastBackend::account_order(),
        ] {
            let report = ConsensuslessEngine::new(EngineConfig::unsharded().with_backend(backend))
                .run(&scenario);
            assert_eq!(report.completed, reference.completed, "{backend:?}");
            assert_eq!(
                report.balance_digest, reference.balance_digest,
                "{backend:?}: backends disagree on final balances"
            );
            assert!(report.agreed && report.supply_ok, "{backend:?}");
            assert_eq!(report.conflicts, 0, "{backend:?}");
        }
    }

    #[test]
    fn signed_echo_without_forwarding_is_linear_in_messages() {
        let scenario = uniform("uniform", 16);
        let bracha = ConsensuslessEngine::new(EngineConfig::unsharded()).run(&scenario);
        let echo_config = EngineConfig::unsharded().with_backend(BroadcastBackend::SignedEcho {
            auth: AuthMode::None,
            forward_final: false,
        });
        let echo = ConsensuslessEngine::new(echo_config).run(&scenario);
        assert_eq!(echo.completed, bracha.completed);
        assert!(
            echo.messages_sent * 2 <= bracha.messages_sent,
            "echo {} vs bracha {}",
            echo.messages_sent,
            bracha.messages_sent
        );
    }

    #[test]
    fn ed25519_backend_round_trips_certificates() {
        // Small on purpose: the vendored Ed25519 is slow in debug builds.
        let scenario = Scenario::new("ed", 3).waves(1).seed(2);
        let engine = ConsensuslessEngine::new(
            EngineConfig::unsharded().with_backend(BroadcastBackend::signed_echo_ed()),
        );
        assert_eq!(engine.name(), "consensusless-echo-ed25519");
        let report = engine.run(&scenario);
        assert_eq!(report.completed, 3);
        assert!(report.agreed && report.supply_ok);
        assert_eq!(report.conflicts, 0);
    }

    #[test]
    fn engine_names_key_the_backend() {
        let tuned = EngineConfig::standard();
        assert_eq!(ConsensuslessEngine::new(tuned).name(), "consensusless-s4b8");
        assert_eq!(
            ConsensuslessEngine::new(tuned.with_backend(BroadcastBackend::signed_echo())).name(),
            "consensusless-echo-s4b8"
        );
        assert_eq!(
            ConsensuslessEngine::new(
                EngineConfig::unsharded().with_backend(BroadcastBackend::account_order())
            )
            .name(),
            "consensusless-acctorder"
        );
    }
}
