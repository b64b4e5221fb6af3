//! Concurrent workload harness: drives any [`SharedAssetTransfer`] object
//! from multiple threads, records the [`History`], and hands it to the
//! linearizability checker.
//!
//! This is the machinery behind experiment **F1** (Figure 1's correctness)
//! and **F3** (Figure 3's correctness), run by `tests/tests/shared_memory.rs`.

use crate::object::SharedAssetTransfer;
use at_model::history::{Operation, Recorder, Response};
use at_model::{AccountId, Amount, CheckOutcome, History, Ledger, OwnerMap, ProcessId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::thread;

/// Configuration of a randomized concurrent workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of threads (= processes).
    pub processes: usize,
    /// Operations per process.
    pub ops_per_process: usize,
    /// Initial balance of each account.
    pub initial_balance: Amount,
    /// Maximum single-transfer amount.
    pub max_amount: u64,
    /// Fraction (0–100) of operations that are reads.
    pub read_percent: u8,
    /// RNG seed (per-process streams derive from it).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            processes: 3,
            ops_per_process: 6,
            initial_balance: Amount::new(20),
            max_amount: 10,
            read_percent: 30,
            seed: 0,
        }
    }
}

/// Runs a random single-owner workload against `object` and returns the
/// recorded history together with the initial ledger used.
///
/// Accounts follow the uniform topology: account `i` owned by process `i`.
pub fn run_uniform_workload<O>(object: Arc<O>, config: &WorkloadConfig) -> (History, Ledger)
where
    O: SharedAssetTransfer + 'static,
{
    let n = config.processes;
    let initial = Ledger::new(
        AccountId::all(n).map(|a| (a, config.initial_balance)),
        OwnerMap::one_account_per_process(n),
    );
    let recorder = Recorder::new();

    let threads: Vec<_> = (0..n)
        .map(|i| {
            let object = Arc::clone(&object);
            let recorder = recorder.clone();
            let config = config.clone();
            thread::spawn(move || {
                let process = ProcessId::new(i as u32);
                let mut rng = StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37));
                for _ in 0..config.ops_per_process {
                    if rng.gen_range(0..100u8) < config.read_percent {
                        let account = AccountId::new(rng.gen_range(0..n) as u32);
                        let id = recorder.invoke(process, Operation::Read { account });
                        let balance = object.read(account);
                        recorder.respond(id, Response::Read(balance));
                    } else {
                        let source = AccountId::new(i as u32);
                        let mut dest_index = rng.gen_range(0..n);
                        if dest_index == i && n > 1 {
                            dest_index = (dest_index + 1) % n;
                        }
                        let destination = AccountId::new(dest_index as u32);
                        let amount = Amount::new(rng.gen_range(0..=config.max_amount));
                        let id = recorder.invoke(
                            process,
                            Operation::Transfer {
                                source,
                                destination,
                                amount,
                            },
                        );
                        let ok = object.transfer(process, source, destination, amount);
                        recorder.respond(id, Response::Transfer(ok));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("workload thread panicked");
    }
    (recorder.into_history(), initial)
}

/// Runs a random workload on a `k`-shared account: `k` owner processes all
/// debit account 0; account 1 is the sink.
pub fn run_shared_account_workload<O>(
    object: Arc<O>,
    k: usize,
    ops_per_process: usize,
    initial_balance: Amount,
    seed: u64,
) -> (History, Ledger)
where
    O: SharedAssetTransfer + 'static,
{
    let shared = AccountId::new(0);
    let sink = AccountId::new(1);
    let mut owners = OwnerMap::new();
    for process in ProcessId::all(k) {
        owners.add_owner(shared, process);
    }
    owners.add_unowned(sink);
    let initial = Ledger::new([(shared, initial_balance), (sink, Amount::ZERO)], owners);
    let recorder = Recorder::new();

    let threads: Vec<_> = (0..k)
        .map(|i| {
            let object = Arc::clone(&object);
            let recorder = recorder.clone();
            thread::spawn(move || {
                let process = ProcessId::new(i as u32);
                let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xC0FFEE));
                for _ in 0..ops_per_process {
                    if rng.gen_bool(0.25) {
                        let account = if rng.gen_bool(0.5) { shared } else { sink };
                        let id = recorder.invoke(process, Operation::Read { account });
                        let balance = object.read(account);
                        recorder.respond(id, Response::Read(balance));
                    } else {
                        let amount = Amount::new(rng.gen_range(1..=5));
                        let id = recorder.invoke(
                            process,
                            Operation::Transfer {
                                source: shared,
                                destination: sink,
                                amount,
                            },
                        );
                        let ok = object.transfer(process, shared, sink, amount);
                        recorder.respond(id, Response::Transfer(ok));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("workload thread panicked");
    }
    (recorder.into_history(), initial)
}

/// Asserts that the recorded history linearizes; panics with the history
/// text otherwise.
///
/// # Panics
///
/// Panics when the history is not linearizable (that is the point).
pub fn assert_linearizable(history: &History, initial: &Ledger) {
    match at_model::linearizable(history, initial) {
        CheckOutcome::Linearizable { .. } => {}
        CheckOutcome::NotLinearizable => {
            panic!("history is not linearizable:\n{history}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::SnapshotAssetTransfer;
    use crate::figure3::KSharedAssetTransfer;
    use crate::object::MutexAssetTransfer;

    #[test]
    fn mutex_object_linearizes() {
        for seed in 0..8 {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let object = Arc::new(MutexAssetTransfer::new(Ledger::uniform(
                config.processes,
                config.initial_balance,
            )));
            let (history, initial) = run_uniform_workload(object, &config);
            assert_linearizable(&history, &initial);
        }
    }

    #[test]
    fn figure1_wait_free_linearizes() {
        for seed in 0..8 {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let object = Arc::new(SnapshotAssetTransfer::wait_free_uniform(
                config.processes,
                config.initial_balance,
            ));
            let (history, initial) = run_uniform_workload(object, &config);
            assert_linearizable(&history, &initial);
        }
    }

    #[test]
    fn figure1_blocking_linearizes() {
        for seed in 0..8 {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let object = Arc::new(SnapshotAssetTransfer::blocking_uniform(
                config.processes,
                config.initial_balance,
            ));
            let (history, initial) = run_uniform_workload(object, &config);
            assert_linearizable(&history, &initial);
        }
    }

    #[test]
    fn figure3_shared_account_linearizes() {
        for seed in 0..8 {
            let k = 3;
            let shared = AccountId::new(0);
            let sink = AccountId::new(1);
            let mut owners = OwnerMap::new();
            for process in ProcessId::all(k) {
                owners.add_owner(shared, process);
            }
            owners.add_unowned(sink);
            let object = Arc::new(KSharedAssetTransfer::new(
                k,
                [(shared, Amount::new(15))],
                owners,
            ));
            let (history, initial) =
                run_shared_account_workload(object, k, 5, Amount::new(15), seed);
            assert_linearizable(&history, &initial);
        }
    }

    #[test]
    fn workload_config_default_is_sane() {
        let config = WorkloadConfig::default();
        assert!(config.processes >= 2);
        assert!(config.read_percent <= 100);
    }
}
