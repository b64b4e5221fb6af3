//! A payment network under attack: 10 processes, one of which attempts a
//! classic double spend by equivocating at the broadcast layer.
//!
//! The paper's point: no consensus is needed — the secure broadcast's
//! quorum intersection alone makes the double spend impossible, while
//! honest payments keep flowing.
//!
//! Run with `cargo run -p at-examples --example payment_network`.

use at_broadcast::bracha::BrachaBroadcast;
use at_engine::{EngineActor, EngineConfig, EngineEvent};
use at_examples::banner;
use at_model::{AccountId, Amount, ProcessId};
use at_net::{NetConfig, Simulation, VirtualTime};

fn main() {
    const N: usize = 10;
    const EVE: u32 = 9;
    // Every account holds 5: Eve can afford one of her two 5-unit legs,
    // never both.
    let initial = Amount::new(5);

    banner("Payment network: 9 honest processes + 1 double spender");
    let actors: Vec<EngineActor> = ProcessId::all(N)
        .map(|me| {
            let make = if me.index() == EVE {
                EngineActor::equivocator
            } else {
                EngineActor::honest
            };
            make(
                me,
                N,
                initial,
                EngineConfig::unsharded(),
                BrachaBroadcast::new(me, N),
            )
        })
        .collect();
    let mut sim = Simulation::new(actors, NetConfig::lan(2024));

    // Eve tries to pay her whole balance to BOTH account 0 and account 1.
    println!("Eve equivocates: 5 to acct0 AND 5 to acct1, same seq");
    sim.schedule(VirtualTime::ZERO, ProcessId::new(EVE), |actor, ctx| {
        actor.attack(0, ctx);
    });
    // Meanwhile honest processes trade normally.
    for i in 0..8u32 {
        sim.schedule(
            VirtualTime::from_millis(1),
            ProcessId::new(i),
            move |actor, ctx| {
                actor.submit(AccountId::new((i + 1) % 9), Amount::new(5), ctx);
            },
        );
    }
    sim.run_until_quiet(10_000_000);

    let honest_completed = sim
        .take_events()
        .iter()
        .filter(|(_, process, event)| {
            process.index() != EVE && matches!(event, EngineEvent::Completed { .. })
        })
        .count();
    let honest: Vec<_> = (0..EVE)
        .map(|i| sim.actor(ProcessId::new(i)).as_honest().expect("honest"))
        .collect();
    let eve_legs: Vec<usize> = honest
        .iter()
        .map(|replica| replica.applied_from(ProcessId::new(EVE)).len())
        .collect();
    println!("honest transfers completed: {honest_completed}/8");
    println!(
        "legs of Eve's double spend applied per honest replica: {eve_legs:?} (2 would be a double spend)"
    );
    let observer = honest[0];
    println!(
        "acct0={}, acct1={}, Eve's acct9={}",
        observer.balance(AccountId::new(0)),
        observer.balance(AccountId::new(1)),
        observer.balance(AccountId::new(EVE)),
    );
    assert_eq!(honest_completed, 8, "every honest transfer completes");
    assert!(
        eve_legs.iter().all(|&legs| legs <= 1),
        "a double spend was applied"
    );
    assert!(
        honest
            .iter()
            .all(|replica| replica.digest() == observer.digest()),
        "honest replicas diverged"
    );
    println!("=> double-spend prevented without any consensus; all 9 honest replicas agree");
}
