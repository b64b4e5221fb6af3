//! The engine-specific model-checking harness: scenarios, invariant
//! probes, and the top-level [`explore`] entry point.
//!
//! A [`CheckScenario`] is a *small, closed* system description — a few
//! processes, a handful of client transfers, optionally one Byzantine
//! process or one crash/restart victim. All client commands are scheduled
//! at virtual time zero, so the explorer (not wall-clock accidents)
//! decides how operations, protocol messages, and attacks interleave.
//!
//! After every explored schedule the harness drains the simulation to
//! quiescence, injects one sequential read of every account at a correct
//! replica, and checks four invariants:
//!
//! 1. **Linearizability** — the reconstructed history
//!    ([`at_engine::probe::history_from_events`]) linearizes against the
//!    sequential asset-transfer specification
//!    ([`at_model::linearizable_bounded`]). Negative admission responses
//!    are justified by the replica's *local* prefix (Figure 4 line 2)
//!    rather than the real-time order — the explorer reaches executions
//!    proving the distinction — so they are checked separately
//!    ([`at_engine::probe::rejections_locally_justified`]) instead of
//!    being forced into the history;
//! 2. **Broadcast contract** — every backend delivery stream is
//!    per-source FIFO-exactly-once
//!    ([`at_engine::probe::check_fifo_contract`]);
//! 3. **Convergence** — correct replicas (minus a crash/restart victim,
//!    which may have missed in-flight messages for good) agree on the
//!    ledger digest, and no `(source, seq)` resolves to two different
//!    transfers anywhere;
//! 4. **Conservation** — every correct replica preserves the total
//!    supply.
//!
//! Any violation is reported as a [`Counterexample`] carrying the
//! scenario, backend, failure detail, and the replayable [`Schedule`].

use crate::explorer::{dfs_schedules, format_schedule, random_schedule, CrashPlan, Schedule};
use at_broadcast::auth::NoAuth;
use at_broadcast::bracha::BrachaBroadcast;
use at_broadcast::echo::EchoBroadcast;
use at_broadcast::secure::{AccountOrderBackend, SecureBroadcast};
use at_engine::probe::{
    check_fifo_contract, history_from_events, rejections_locally_justified, TimedEvent,
};
use at_engine::{EngineActor, EngineConfig, EnginePayload};
use at_model::{
    linearizable_bounded, AccountId, Amount, BoundedOutcome, CheckBudget, Ledger, ProcessId,
    Transfer,
};
use at_net::{NetConfig, Simulation, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The Byzantine behaviour a scenario assigns to one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckAdversary {
    /// Split-broadcasts conflicting batches (double-spend attempts).
    Equivocate,
    /// Broadcasts transfers it cannot fund.
    Overspend,
}

/// A small closed system for the explorer to model-check.
#[derive(Clone, Debug)]
pub struct CheckScenario {
    /// Scenario name (report key).
    pub name: String,
    /// System size (keep small: the schedule space is explored).
    pub n: usize,
    /// Initial balance of every account.
    pub initial: u64,
    /// Client transfers `(submitting process, destination account,
    /// amount)`, all scheduled at time zero.
    pub transfers: Vec<(u32, u32, u64)>,
    /// At most one Byzantine process (it launches two attacks).
    pub adversary: Option<(u32, CheckAdversary)>,
    /// A process the random walk crashes and later restarts at
    /// rng-chosen points.
    pub crash_restart: Option<u32>,
}

impl CheckScenario {
    /// A benign scenario over `n` processes.
    pub fn new(
        name: impl Into<String>,
        n: usize,
        initial: u64,
        transfers: Vec<(u32, u32, u64)>,
    ) -> Self {
        assert!(n >= 2, "need at least two processes");
        CheckScenario {
            name: name.into(),
            n,
            initial,
            transfers,
            adversary: None,
            crash_restart: None,
        }
    }

    /// Assigns a Byzantine behaviour to `process`.
    pub fn with_adversary(mut self, process: u32, adversary: CheckAdversary) -> Self {
        assert!((process as usize) < self.n, "adversary out of range");
        self.adversary = Some((process, adversary));
        self
    }

    /// Marks `process` as the crash/restart victim of random walks.
    pub fn with_crash_restart(mut self, process: u32) -> Self {
        assert!((process as usize) < self.n, "crash victim out of range");
        self.crash_restart = Some(process);
        self
    }

    /// Whether `process` follows the protocol (crash/restart victims
    /// do — they are faulty, not Byzantine).
    pub fn is_correct(&self, process: ProcessId) -> bool {
        self.adversary != Some((process.index(), CheckAdversary::Equivocate))
            && self.adversary != Some((process.index(), CheckAdversary::Overspend))
    }

    /// Whether `process` participates in the convergence (digest)
    /// comparison: correct and never crashed — a restarted process may
    /// have permanently missed messages (the channel model has no
    /// retransmission), so its divergence is expected, not a bug.
    pub fn in_agreement_set(&self, process: ProcessId) -> bool {
        self.is_correct(process) && self.crash_restart != Some(process.index())
    }
}

/// The scenarios the standard exploration battery runs — the explorer
/// counterpart of `at_engine::standard_suite`.
pub fn standard_check_scenarios() -> Vec<CheckScenario> {
    vec![
        // Independent and re-converging transfers across every account.
        CheckScenario::new(
            "concurrent-transfers",
            3,
            10,
            vec![(0, 1, 3), (1, 2, 4), (2, 0, 5), (0, 2, 6)],
        ),
        // p1's transfer is only funded once p0's credit lands: depending
        // on the schedule it is admitted or rejected — both must
        // linearize.
        CheckScenario::new(
            "causal-chain",
            3,
            10,
            vec![(0, 1, 10), (1, 2, 15), (2, 0, 2)],
        ),
        // A double-spending equivocator among three correct processes.
        CheckScenario::new("equivocator", 4, 20, vec![(1, 2, 5), (2, 3, 5), (3, 1, 5)])
            .with_adversary(0, CheckAdversary::Equivocate),
        // An overspender: delivered everywhere, must validate nowhere.
        CheckScenario::new("overspender", 4, 10, vec![(0, 1, 2), (1, 2, 3), (2, 0, 4)])
            .with_adversary(3, CheckAdversary::Overspend),
        // One process crashes mid-protocol and restarts with its state.
        CheckScenario::new(
            "crash-restart",
            4,
            10,
            vec![(0, 1, 3), (1, 0, 2), (3, 0, 1), (2, 3, 1)],
        )
        .with_crash_restart(2),
    ]
}

/// The secure-broadcast backend an exploration runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckBackend {
    /// Bracha reliable broadcast (signature-free `O(n²)`).
    Bracha,
    /// Signed-echo broadcast under authenticated channels.
    SignedEcho,
    /// The Section 6 account-order broadcast.
    AccountOrder,
    /// Seeded mutation: signed echo with its quorum one below the
    /// intersection threshold (`broken` feature).
    #[cfg(feature = "broken")]
    BrokenQuorum,
    /// Seeded mutation: Bracha behind a delivery-reordering wrapper that
    /// violates per-source FIFO (`broken` feature).
    #[cfg(feature = "broken")]
    BrokenFifo,
}

impl CheckBackend {
    /// The three production backends.
    pub fn all() -> Vec<CheckBackend> {
        vec![
            CheckBackend::Bracha,
            CheckBackend::SignedEcho,
            CheckBackend::AccountOrder,
        ]
    }

    /// A short label for report keys.
    pub fn label(&self) -> &'static str {
        match self {
            CheckBackend::Bracha => "bracha",
            CheckBackend::SignedEcho => "echo",
            CheckBackend::AccountOrder => "acctorder",
            #[cfg(feature = "broken")]
            CheckBackend::BrokenQuorum => "broken-quorum",
            #[cfg(feature = "broken")]
            CheckBackend::BrokenFifo => "broken-fifo",
        }
    }
}

/// How much schedule space one [`explore`] call covers.
#[derive(Clone, Copy, Debug)]
pub struct ExploreBudget {
    /// Seeded random-walk schedules to run.
    pub random_schedules: usize,
    /// Base seed of the random walks (walk `i` uses `random_seed + i`).
    pub random_seed: u64,
    /// Scheduling decisions the bounded DFS enumerates exhaustively.
    pub dfs_depth: usize,
    /// Cap on DFS-visited schedules.
    pub dfs_schedules: usize,
    /// Cap on explorer-chosen steps per execution (the remainder runs in
    /// default order).
    pub max_steps: usize,
    /// Node budget of each linearizability check.
    pub check_nodes: usize,
}

impl ExploreBudget {
    /// The CI smoke budget: enough schedules that 3 scenarios × 3
    /// backends clear 500 distinct interleavings comfortably.
    pub fn smoke() -> Self {
        ExploreBudget {
            random_schedules: 40,
            random_seed: 0xA7,
            dfs_depth: 3,
            dfs_schedules: 24,
            max_steps: 20_000,
            check_nodes: 200_000,
        }
    }

    /// A tiny budget for unit and doc tests.
    pub fn quick() -> Self {
        ExploreBudget {
            random_schedules: 6,
            random_seed: 1,
            dfs_depth: 2,
            dfs_schedules: 6,
            max_steps: 20_000,
            check_nodes: 200_000,
        }
    }
}

/// The invariant class a counterexample violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The reconstructed history admits no legal linearization.
    NotLinearizable,
    /// Correct replicas ended in different ledger states.
    Divergence,
    /// One `(source, seq)` resolved to two different transfers.
    Conflict,
    /// A backend broke the FIFO-exactly-once delivery contract.
    Contract,
    /// A replica rejected a submission it could actually fund (negative
    /// responses must be justified by the local balance).
    UnjustifiedRejection,
    /// A correct replica's total supply changed.
    Supply,
    /// The execution failed to quiesce within the step cap.
    Incomplete,
    /// A transport gave up on frames (`dropped_frames() > 0` or
    /// discarded ingest), so the reliable-channel regime the protocols
    /// assume did not hold — live-cluster runs (`at-chaos`) must end
    /// with every injected fault healed *and* zero real loss.
    FrameLoss,
}

/// One invariant violation with its human-readable evidence.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The invariant class.
    pub kind: FailureKind,
    /// Evidence (history dump, digests, the offending delivery, …).
    pub detail: String,
}

/// A replayable counterexample: everything needed to reproduce one
/// violating execution.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Scenario name.
    pub scenario: String,
    /// Backend label.
    pub backend: &'static str,
    /// The violating schedule (replay with
    /// [`crate::explorer::replay`] on the same scenario + backend).
    pub schedule: Schedule,
    /// What broke, with evidence.
    pub failure: Failure,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample: {:?} in scenario `{}` on backend `{}`",
            self.failure.kind, self.scenario, self.backend
        )?;
        writeln!(f, "schedule: {}", format_schedule(&self.schedule))?;
        write!(f, "{}", self.failure.detail)
    }
}

/// The outcome of exploring one `(scenario, backend)` pair.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend label.
    pub backend: &'static str,
    /// Executions run (including re-drawn duplicate schedules).
    pub executions: usize,
    /// Distinct schedules among them.
    pub distinct_schedules: usize,
    /// Executions whose linearizability check exhausted its node budget
    /// (neither pass nor violation; should be zero).
    pub unknown: usize,
    /// Invariant violations found.
    pub violations: Vec<Counterexample>,
}

impl ExplorationReport {
    /// One markdown table row (pairs with
    /// [`ExplorationReport::table_header`]).
    pub fn table_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {} | {} |",
            self.scenario,
            self.backend,
            self.executions,
            self.distinct_schedules,
            self.unknown,
            self.violations.len(),
        )
    }

    /// The markdown header matching [`ExplorationReport::table_row`].
    pub fn table_header() -> String {
        [
            "| scenario | backend | executions | distinct | unknown | violations |",
            "|---|---|---|---|---|---|",
        ]
        .join("\n")
    }
}

/// Explores `scenario` on `backend` under `budget` (see the
/// [module docs](self) for the invariants checked per execution).
pub fn explore(
    scenario: &CheckScenario,
    backend: CheckBackend,
    budget: &ExploreBudget,
) -> ExplorationReport {
    match backend {
        CheckBackend::Bracha => explore_with(scenario, backend.label(), budget, |me, n| {
            BrachaBroadcast::new(me, n)
        }),
        CheckBackend::SignedEcho => explore_with(scenario, backend.label(), budget, |me, n| {
            EchoBroadcast::new(me, n, NoAuth)
        }),
        CheckBackend::AccountOrder => explore_with(scenario, backend.label(), budget, |me, n| {
            AccountOrderBackend::new(me, n, NoAuth)
        }),
        #[cfg(feature = "broken")]
        CheckBackend::BrokenQuorum => explore_with(scenario, backend.label(), budget, |me, n| {
            crate::broken::broken_quorum_echo(me, n)
        }),
        #[cfg(feature = "broken")]
        CheckBackend::BrokenFifo => explore_with(scenario, backend.label(), budget, |me, n| {
            crate::broken::FifoBreaker::new(BrachaBroadcast::new(me, n))
        }),
    }
}

/// Builds the scenario's simulation over backend endpoints from `make`.
/// Every client command sits at time zero; the explorer owns the order.
fn build_sim<B, F>(scenario: &CheckScenario, make: &F) -> Simulation<EngineActor<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    F: Fn(ProcessId, usize) -> B,
{
    let n = scenario.n;
    let initial = Amount::new(scenario.initial);
    let config = EngineConfig::unsharded();
    let actors: Vec<EngineActor<B>> = ProcessId::all(n)
        .map(|p| match scenario.adversary {
            Some((process, CheckAdversary::Equivocate)) if process == p.index() => {
                EngineActor::equivocator(p, n, initial, config, make(p, n))
            }
            Some((process, CheckAdversary::Overspend)) if process == p.index() => {
                EngineActor::overspender(p, n, initial, config, make(p, n))
            }
            _ => EngineActor::honest(p, n, initial, config, make(p, n)),
        })
        .collect();
    let mut sim = Simulation::new(actors, NetConfig::instant(0));
    for &(from, to, amount) in &scenario.transfers {
        sim.schedule(
            VirtualTime::ZERO,
            ProcessId::new(from),
            move |actor, ctx| {
                actor.submit(AccountId::new(to), Amount::new(amount), ctx);
            },
        );
    }
    if let Some((process, _)) = scenario.adversary {
        for wave in 0..2usize {
            sim.schedule(
                VirtualTime::ZERO,
                ProcessId::new(process),
                move |actor, ctx| {
                    actor.attack(wave, ctx);
                },
            );
        }
    }
    sim
}

/// One finished execution reduced to what the invariants need — the
/// common denominator of a simulator run and a recorded live-cluster
/// run (`at-chaos` builds one from an `at_node::EventProbe` recording
/// plus the cluster's final reports; `evaluate` builds one from a
/// drained simulation).
#[derive(Clone, Debug)]
pub struct RecordedRun {
    /// System size (processes == accounts).
    pub n: usize,
    /// Initial balance of every account.
    pub initial: u64,
    /// The merged engine event stream, in a real-time-consistent order.
    pub events: Vec<TimedEvent>,
    /// Final ledger digest of every replica in the agreement set.
    pub digests: Vec<(ProcessId, u64)>,
    /// Final total supply of every correct replica.
    pub supplies: Vec<(ProcessId, u64)>,
}

/// Checks every safety invariant of one [`RecordedRun`] — the same
/// battery [`explore`] applies per simulated schedule, over artifacts
/// any runtime can produce. Returns `(failure, unknown)` where
/// `unknown` marks a linearizability check that exhausted its node
/// budget (neither verdict).
///
/// The battery, in order: negative admission responses are justified by
/// the rejecting replica's local balance
/// ([`at_engine::probe::rejections_locally_justified`]); every backend
/// delivery stream is per-source FIFO-exactly-once
/// ([`at_engine::probe::check_fifo_contract`]); no `(source, seq)`
/// resolves to two different transfers at correct observers (from the
/// `Applied` event streams); agreement-set digests agree; every correct
/// replica conserves the supply; and the reconstructed client history
/// linearizes ([`at_model::linearizable_bounded`]).
pub fn validate_recorded(
    run: &RecordedRun,
    is_correct: impl Fn(ProcessId) -> bool,
    check_nodes: usize,
) -> (Option<Failure>, bool) {
    let n = run.n;
    // Negative responses stay out of the real-time history (see
    // `at_engine::probe`) but must each be justified by the rejecting
    // replica's local balance.
    if let Err((_, observer, event)) =
        rejections_locally_justified(&run.events, &is_correct, |account| {
            (account.index() as usize) < n
        })
    {
        return (
            Some(Failure {
                kind: FailureKind::UnjustifiedRejection,
                detail: format!("replica {observer} rejected a fundable submission: {event:?}"),
            }),
            false,
        );
    }

    // The backend delivery contract, observed at every correct replica
    // (including a crash/restart victim: loss shortens its delivered
    // prefix but never reorders it).
    if let Err(violation) = check_fifo_contract(&run.events, &is_correct) {
        return (
            Some(Failure {
                kind: FailureKind::Contract,
                detail: violation.to_string(),
            }),
            false,
        );
    }

    // Agreement: conflicting applications anywhere, digest divergence
    // within the agreement set.
    let mut by_seq: BTreeMap<(ProcessId, u64), BTreeSet<Transfer>> = BTreeMap::new();
    for (_, observer, event) in &run.events {
        if let at_engine::replica::EngineEvent::Applied { transfer } = event {
            if is_correct(*observer) {
                by_seq
                    .entry((transfer.originator, transfer.seq.value()))
                    .or_default()
                    .insert(*transfer);
            }
        }
    }
    if let Some(((source, seq), transfers)) = by_seq.iter().find(|(_, set)| set.len() > 1) {
        return (
            Some(Failure {
                kind: FailureKind::Conflict,
                detail: format!(
                    "({source}, seq {seq}) resolved to {} different transfers: {transfers:?}",
                    transfers.len()
                ),
            }),
            false,
        );
    }
    if run.digests.windows(2).any(|w| w[0].1 != w[1].1) {
        return (
            Some(Failure {
                kind: FailureKind::Divergence,
                detail: format!("correct replicas diverged: digests {:?}", run.digests),
            }),
            false,
        );
    }

    // Conservation at every correct replica.
    let expected_supply = run.initial * n as u64;
    for (p, supply) in &run.supplies {
        if *supply != expected_supply {
            return (
                Some(Failure {
                    kind: FailureKind::Supply,
                    detail: format!("replica {p}: supply {supply} != {expected_supply}"),
                }),
                false,
            );
        }
    }

    // Linearizability of the reconstructed history.
    let history = history_from_events(&run.events, &is_correct);
    let initial = Ledger::uniform(n, Amount::new(run.initial));
    match linearizable_bounded(&history, &initial, CheckBudget::nodes(check_nodes)) {
        BoundedOutcome::Linearizable { .. } => (None, false),
        BoundedOutcome::NotLinearizable => (
            Some(Failure {
                kind: FailureKind::NotLinearizable,
                detail: format!("history:\n{history}"),
            }),
            false,
        ),
        // Exhaustion is always "unchecked", even at explored == 0 (a
        // zero-node budget must not silently certify executions).
        BoundedOutcome::BudgetExhausted { .. } => (None, true),
    }
}

/// Drains the execution, injects the final reads, reduces the simulation
/// to a [`RecordedRun`], and applies [`validate_recorded`]. Returns
/// `(failure, unknown)`.
fn evaluate<B: SecureBroadcast<EnginePayload>>(
    scenario: &CheckScenario,
    mut sim: Simulation<EngineActor<B>>,
    check_nodes: usize,
) -> (Option<Failure>, bool) {
    let n = scenario.n;
    // A crash victim still down when the explored prefix ends would sit
    // on its pending entries forever; restart it so the drain completes
    // (random walks restart explicitly mid-schedule, this is the
    // safety net for walks whose restart step was past the end).
    if let Some(process) = scenario.crash_restart {
        sim.restart(ProcessId::new(process));
    }
    if !sim.run_until_quiet(2_000_000) {
        return (
            Some(Failure {
                kind: FailureKind::Incomplete,
                detail: format!(
                    "{} entries still pending after the drain cap",
                    sim.queue_len()
                ),
            }),
            false,
        );
    }

    // One sequential read of every account at the lowest-id replica of
    // the agreement set: pins the final state to the transfer history.
    let observer = ProcessId::all(n)
        .find(|p| scenario.in_agreement_set(*p))
        .expect("at least one correct, never-crashed process");
    for account in 0..n as u32 {
        sim.schedule(sim.now(), observer, move |actor, ctx| {
            actor.read_op(AccountId::new(account), ctx);
        });
    }
    assert!(sim.run_until_quiet(100_000), "reads must not enqueue work");
    let events = sim.take_events();

    // Reduce the finished simulation to runtime-agnostic artifacts and
    // hand them to the shared validator battery. The per-(source, seq)
    // conflict check reads the correct observers' `Applied` event
    // streams — the applications themselves, as any runtime records
    // them — instead of reaching into simulator replica internals.
    let honest: Vec<(ProcessId, &at_engine::ShardedReplica<B>)> = ProcessId::all(n)
        .filter(|p| scenario.is_correct(*p))
        .map(|p| (p, sim.actor(p).as_honest().expect("correct actor")))
        .collect();
    let run = RecordedRun {
        n,
        initial: scenario.initial,
        events,
        digests: honest
            .iter()
            .filter(|(p, _)| scenario.in_agreement_set(*p))
            .map(|(p, replica)| (*p, replica.digest()))
            .collect(),
        supplies: honest
            .iter()
            .map(|(p, replica)| (*p, replica.ledger().total_supply().units()))
            .collect(),
    };
    validate_recorded(&run, |p| scenario.is_correct(p), check_nodes)
}

/// The generic exploration loop: random walks, then the bounded DFS.
fn explore_with<B, F>(
    scenario: &CheckScenario,
    backend: &'static str,
    budget: &ExploreBudget,
    make: F,
) -> ExplorationReport
where
    B: SecureBroadcast<EnginePayload> + 'static,
    F: Fn(ProcessId, usize) -> B,
{
    let build = || build_sim(scenario, &make);
    let mut distinct: BTreeSet<Schedule> = BTreeSet::new();
    let mut report = ExplorationReport {
        scenario: scenario.name.clone(),
        backend,
        executions: 0,
        distinct_schedules: 0,
        unknown: 0,
        violations: Vec::new(),
    };

    let mut consider =
        |schedule: &Schedule, sim: Simulation<EngineActor<B>>, report: &mut ExplorationReport| {
            report.executions += 1;
            if !distinct.insert(schedule.clone()) {
                return; // an identical execution was already checked
            }
            let (failure, unknown) = evaluate(scenario, sim, budget.check_nodes);
            if unknown {
                report.unknown += 1;
            }
            if let Some(failure) = failure {
                report.violations.push(Counterexample {
                    scenario: scenario.name.clone(),
                    backend,
                    schedule: schedule.clone(),
                    failure,
                });
            }
        };

    for i in 0..budget.random_schedules {
        let crash_plan: Option<CrashPlan> = scenario.crash_restart.map(|process| {
            let crash_step = 2 + i % 9;
            (process, crash_step, crash_step + 2 + i % 7)
        });
        let (schedule, sim) = random_schedule(
            &build,
            budget.random_seed + i as u64,
            budget.max_steps,
            crash_plan,
        );
        consider(&schedule, sim, &mut report);
    }
    dfs_schedules(
        &build,
        budget.dfs_depth,
        budget.dfs_schedules,
        &mut |prefix, sim| {
            consider(&prefix.to_vec(), sim, &mut report);
        },
    );

    report.distinct_schedules = distinct.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scenarios_have_the_required_shape() {
        let scenarios = standard_check_scenarios();
        assert!(scenarios.len() >= 3);
        let adversarial = scenarios.iter().filter(|s| s.adversary.is_some()).count();
        assert!(adversarial >= 2);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
        for scenario in &scenarios {
            assert!(
                scenario.n <= 4,
                "{}: keep explored systems small",
                scenario.name
            );
        }
    }

    #[test]
    fn clean_backends_survive_a_quick_exploration() {
        let budget = ExploreBudget::quick();
        for scenario in &standard_check_scenarios()[..2] {
            for backend in CheckBackend::all() {
                let report = explore(scenario, backend, &budget);
                assert!(
                    report.violations.is_empty(),
                    "{} on {}: {}",
                    scenario.name,
                    backend.label(),
                    report.violations[0]
                );
                assert_eq!(report.unknown, 0);
                assert!(
                    report.distinct_schedules >= 4,
                    "{}",
                    report.distinct_schedules
                );
                assert!(report.executions >= report.distinct_schedules);
            }
        }
    }

    #[test]
    fn equivocator_scenario_is_safe_on_real_backends() {
        let scenario = &standard_check_scenarios()[2];
        assert_eq!(scenario.name, "equivocator");
        let budget = ExploreBudget::quick();
        for backend in CheckBackend::all() {
            let report = explore(scenario, backend, &budget);
            assert!(
                report.violations.is_empty(),
                "{}: {}",
                backend.label(),
                report.violations[0]
            );
        }
    }

    #[test]
    fn crash_restart_scenario_is_safe() {
        let scenario = standard_check_scenarios()
            .into_iter()
            .find(|s| s.crash_restart.is_some())
            .expect("crash scenario");
        let report = explore(&scenario, CheckBackend::Bracha, &ExploreBudget::quick());
        assert!(report.violations.is_empty(), "{}", report.violations[0]);
        // Crash choices actually entered the schedules.
        assert!(report.executions > 0);
    }

    #[test]
    fn report_table_renders() {
        let report = ExplorationReport {
            scenario: "s".into(),
            backend: "bracha",
            executions: 10,
            distinct_schedules: 9,
            unknown: 0,
            violations: vec![],
        };
        assert!(report.table_row().starts_with("| s | bracha | 10 | 9 |"));
        assert!(ExplorationReport::table_header().contains("violations"));
    }

    #[test]
    fn validate_recorded_flags_synthetic_violations() {
        use at_engine::replica::EngineEvent;
        use at_model::{AccountId, SeqNo};
        use at_net::VirtualTime;
        let p = ProcessId::new;
        let a = AccountId::new;
        let clean = RecordedRun {
            n: 3,
            initial: 10,
            events: vec![],
            digests: vec![(p(0), 7), (p(1), 7), (p(2), 7)],
            supplies: vec![(p(0), 30), (p(1), 30), (p(2), 30)],
        };
        let (failure, unknown) = validate_recorded(&clean, |_| true, 1000);
        assert!(failure.is_none() && !unknown);

        // Digest divergence.
        let mut diverged = clean.clone();
        diverged.digests[2].1 = 8;
        let (failure, _) = validate_recorded(&diverged, |_| true, 1000);
        assert_eq!(failure.unwrap().kind, FailureKind::Divergence);

        // Supply loss.
        let mut leaky = clean.clone();
        leaky.supplies[1].1 = 29;
        let (failure, _) = validate_recorded(&leaky, |_| true, 1000);
        assert_eq!(failure.unwrap().kind, FailureKind::Supply);

        // Conflicting applications of one (source, seq) — straight from
        // the Applied event streams, no replica internals involved.
        let mut conflicted = clean.clone();
        let t1 = Transfer::new(a(0), a(1), Amount::new(5), p(0), SeqNo::new(1));
        let t2 = Transfer::new(a(0), a(2), Amount::new(5), p(0), SeqNo::new(1));
        conflicted.events = vec![
            (
                VirtualTime::ZERO,
                p(1),
                EngineEvent::Applied { transfer: t1 },
            ),
            (
                VirtualTime::ZERO,
                p(2),
                EngineEvent::Applied { transfer: t2 },
            ),
        ];
        let (failure, _) = validate_recorded(&conflicted, |_| true, 1000);
        assert_eq!(failure.unwrap().kind, FailureKind::Conflict);
        // The same stream at a Byzantine observer is exempt.
        let (failure, _) = validate_recorded(&conflicted, |q| q == p(1), 1000);
        assert!(failure.is_none());
    }

    #[test]
    fn counterexamples_render_replayably() {
        let example = Counterexample {
            scenario: "demo".into(),
            backend: "bracha",
            schedule: vec![crate::explorer::Choice::Execute(7)],
            failure: Failure {
                kind: FailureKind::Divergence,
                detail: "digests differ".into(),
            },
        };
        let text = example.to_string();
        assert!(text.contains("Divergence"));
        assert!(text.contains("[7]"));
        assert!(text.contains("digests differ"));
    }
}
