//! Integration tests for the message-passing system (experiment F4): the
//! engine replica in Figure 4's deployment shape (unsharded, one
//! transfer per broadcast) over both secure broadcasts in the simulator
//! — convergence, crash tolerance, causality, and linearizability of the
//! successful sub-history (property 1 of Definition 1).

use at_broadcast::auth::{EdAuth, NoAuth};
use at_broadcast::bracha::BrachaBroadcast;
use at_broadcast::echo::EchoBroadcast;
use at_broadcast::secure::SecureBroadcast;
use at_core::figure4::TransferState;
use at_engine::probe::history_from_events;
use at_engine::{EngineConfig, EngineEvent, EnginePayload, ShardedReplica};
use at_model::{AccountId, Amount, Ledger, OwnerMap, ProcessId, Transfer};
use at_net::{NetConfig, Simulation, VirtualTime};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn a(i: u32) -> AccountId {
    AccountId::new(i)
}

fn amt(x: u64) -> Amount {
    Amount::new(x)
}

/// `n` unsharded replicas over the backends `make` builds.
fn system<B, F>(n: usize, initial: u64, seed: u64, make: F) -> Simulation<ShardedReplica<B>>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    F: Fn(ProcessId) -> B,
{
    let replicas = ProcessId::all(n)
        .map(|me| {
            ShardedReplica::with_backend(me, n, amt(initial), EngineConfig::unsharded(), make(me))
        })
        .collect();
    Simulation::new(replicas, NetConfig::lan(seed))
}

fn bracha_system(n: usize, initial: u64, seed: u64) -> Simulation<ShardedReplica> {
    system(n, initial, seed, |me| BrachaBroadcast::new(me, n))
}

fn completed(events: &[(VirtualTime, ProcessId, EngineEvent)]) -> Vec<Transfer> {
    events
        .iter()
        .filter_map(|(_, _, e)| match e {
            EngineEvent::Completed { transfer } => Some(*transfer),
            _ => None,
        })
        .collect()
}

/// Schedules a round-robin workload; returns the completions.
fn run_workload<B>(sim: &mut Simulation<ShardedReplica<B>>, n: usize, waves: usize) -> Vec<Transfer>
where
    B: SecureBroadcast<EnginePayload> + 'static,
{
    for wave in 0..waves {
        for i in 0..n {
            let dest = a(((i + wave + 1) % n) as u32);
            sim.schedule(
                VirtualTime::from_millis((wave * 10) as u64),
                p(i as u32),
                move |replica, ctx| replica.submit(dest, amt(3), ctx),
            );
        }
    }
    assert!(sim.run_until_quiet(50_000_000));
    completed(&sim.take_events())
}

#[test]
fn all_replicas_converge_to_identical_balances() {
    let n = 6;
    let mut sim = bracha_system(n, 100, 3);
    let completed = run_workload(&mut sim, n, 4);
    assert_eq!(completed.len(), n * 4);

    let reference: Vec<Amount> = (0..n as u32)
        .map(|j| sim.actor(p(0)).balance(a(j)))
        .collect();
    for i in 1..n as u32 {
        let view: Vec<Amount> = (0..n as u32)
            .map(|j| sim.actor(p(i)).balance(a(j)))
            .collect();
        assert_eq!(view, reference, "replica {i} diverged");
        assert_eq!(sim.actor(p(i)).digest(), sim.actor(p(0)).digest());
    }
    let total: Amount = reference.into_iter().sum();
    assert_eq!(total, amt(100 * n as u64));
}

/// Property 1 of Definition 1: the successful transfers of the execution
/// form a linearizable sub-history. The probe rebuilds the concurrent
/// history (submission opens an operation, completion closes it) from
/// the event stream, and the checker matches it against `Δ`.
#[test]
fn successful_transfers_linearize() {
    let n = 4;
    let mut sim = bracha_system(n, 20, 17);

    // Interleaved, causally dependent transfers.
    sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
        replica.submit(a(1), amt(20), ctx);
    });
    sim.schedule(VirtualTime::from_millis(30), p(1), |replica, ctx| {
        replica.submit(a(2), amt(35), ctx); // needs p0's 20
    });
    sim.schedule(VirtualTime::from_millis(60), p(2), |replica, ctx| {
        replica.submit(a(3), amt(50), ctx); // needs p1's 35
    });
    assert!(sim.run_until_quiet(10_000_000));

    let events = sim.take_events();
    assert_eq!(completed(&events).len(), 3);
    let history = history_from_events(&events, |_| true);
    assert_eq!(history.op_count(), 3);
    let initial = Ledger::new(
        (0..n as u32).map(|i| (a(i), amt(20))),
        OwnerMap::one_account_per_process(n),
    );
    assert!(at_model::linearizable(&history, &initial).is_linearizable());
}

#[test]
fn echo_and_bracha_agree_on_final_state() {
    let n = 5;
    let waves = 3;

    let mut bracha = bracha_system(n, 60, 23);
    let completed_bracha = run_workload(&mut bracha, n, waves);

    let mut echo = system(n, 60, 23, |me| EchoBroadcast::new(me, n, NoAuth));
    let completed_echo = run_workload(&mut echo, n, waves);

    assert_eq!(completed_bracha.len(), completed_echo.len());
    assert_eq!(bracha.actor(p(0)).digest(), echo.actor(p(0)).digest());
    for j in 0..n as u32 {
        assert_eq!(
            bracha.actor(p(0)).balance(a(j)),
            echo.actor(p(0)).balance(a(j)),
            "account {j}"
        );
    }
}

#[test]
fn real_signatures_end_to_end() {
    // Small system with actual Ed25519 signing in the echo broadcast.
    let n = 4;
    let auth = EdAuth::deterministic(n, 99);
    let mut sim = system(n, 30, 2, |me| EchoBroadcast::new(me, n, auth.clone()));
    sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
        replica.submit(a(3), amt(12), ctx);
    });
    assert!(sim.run_until_quiet(1_000_000));
    assert_eq!(completed(&sim.take_events()).len(), 1);
    for i in 0..n as u32 {
        assert_eq!(sim.actor(p(i)).balance(a(3)), amt(42));
    }
}

#[test]
fn f_crashes_do_not_block_survivors() {
    let n = 7; // f = 2
    let mut sim = bracha_system(n, 100, 31);
    sim.crash(p(5));
    sim.crash(p(6));
    for i in 0..5u32 {
        sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
            replica.submit(a((i + 1) % 5), amt(10), ctx);
        });
    }
    assert!(sim.run_until_quiet(10_000_000));
    assert_eq!(completed(&sim.take_events()).len(), 5);
}

#[test]
fn read_reflects_own_account_immediately() {
    // The paper's read: p's own view of its account includes incoming
    // deps as soon as they are applied locally.
    let mut states: Vec<TransferState> = (0..2u32)
        .map(|i| TransferState::new(p(i), 2, amt(10)))
        .collect();
    let msg = states[0].submit(a(1), amt(7)).unwrap();
    states[1].on_deliver(p(0), msg.clone());
    assert_eq!(states[1].read(a(1)), amt(17));
    // And p0's own outgoing debits immediately after self-delivery.
    states[0].on_deliver(p(0), msg);
    assert_eq!(states[0].read(a(0)), amt(3));
}

#[test]
fn deterministic_replay_of_whole_system() {
    let run = |seed: u64| {
        let n = 5;
        let mut sim = bracha_system(n, 40, seed);
        let completed = run_workload(&mut sim, n, 2);
        (completed.len(), sim.now(), sim.stats())
    };
    assert_eq!(run(77), run(77));
    let (c1, t1, _) = run(77);
    let (c2, t2, _) = run(78);
    assert_eq!(c1, c2);
    assert_ne!(t1, t2, "different seeds produce different schedules");
}
