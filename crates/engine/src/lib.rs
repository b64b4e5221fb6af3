//! # at-engine — the sharded, batched payment-engine runtime
//!
//! The paper ("The Consensus Number of a Cryptocurrency", PODC 2019)
//! proves asset transfer has consensus number 1: transfers debiting
//! different accounts need no mutual ordering. This crate turns that
//! result into a production-shaped runtime above `at-broadcast`/`at-core`
//! and below `at-bench`, with three pillars:
//!
//! * **a sharded account-state engine over pluggable broadcast
//!   backends** ([`shard`], [`replica`], [`config`]) — the ledger is
//!   partitioned by account, validation is a shard-local balance lookup
//!   instead of a history recomputation, submitted transfers ship in
//!   [`at_broadcast::Batch`]es that amortize the secure-broadcast cost,
//!   and the broadcast itself is selectable per Section 5's observation
//!   that the abstraction, not the implementation, carries the result:
//!   Bracha (`O(n²)`, signature-free), signed echo (`O(n)` sender cost,
//!   optionally with real Ed25519 certificates), or the Section 6
//!   account-order broadcast — see [`BroadcastBackend`];
//! * **a scenario DSL** ([`scenario`], [`suite`]) — workloads (uniform,
//!   hot-spot, many-to-one, mixes) composed with adversaries
//!   (equivocating double-spenders, overspenders, silent processes) and
//!   network faults (partitions, lossy and slow links) on top of
//!   [`at_net::Simulation`], all fully deterministic per seed;
//! * **an engine driver API** ([`driver`]) — the [`Engine`] trait with
//!   [`ConsensuslessEngine`] and [`BaselineEngine`] implementations, so
//!   benches, examples, and tests drive the same code path and produce
//!   comparable [`ScenarioReport`]s.
//!
//! # Example
//!
//! The same scenario runs unchanged on every broadcast backend; only the
//! cost profile moves:
//!
//! ```
//! use at_engine::{BroadcastBackend, ConsensuslessEngine, Engine, EngineConfig, Scenario};
//!
//! let scenario = Scenario::new("quick", 4).waves(2).seed(1);
//! let mut digests = Vec::new();
//! for backend in [
//!     BroadcastBackend::Bracha,          // 3 delays, O(n²) msgs, no signatures
//!     BroadcastBackend::signed_echo(),   // 2 round trips, O(n) sender msgs
//!     BroadcastBackend::account_order(), // Section 6, per-account sequencing
//! ] {
//!     let engine = ConsensuslessEngine::new(EngineConfig::standard().with_backend(backend));
//!     let report = engine.run(&scenario);
//!     assert_eq!(report.completed, 8); // 4 processes × 2 waves
//!     assert_eq!(report.conflicts, 0);
//!     assert!(report.agreed);
//!     digests.push(report.balance_digest);
//! }
//! // All backends converge to the same balances.
//! assert!(digests.windows(2).all(|w| w[0] == w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod driver;
pub mod probe;
pub mod replica;
pub mod scenario;
pub mod shard;
pub mod snapshot;
pub mod suite;

pub use adversary::EngineActor;
pub use config::{AuthMode, BatchPolicy, BroadcastBackend, EngineConfig};
pub use driver::{BaselineEngine, ConsensuslessEngine, Engine};
pub use probe::{
    check_fifo_contract, history_from_events, rejections_locally_justified, ContractViolation,
    TimedEvent,
};
pub use replica::{
    DefaultEngineBroadcast, DropDiagnostic, DropReason, EngineEvent, EngineMsg, EnginePayload,
    ShardedReplica,
};
pub use scenario::{
    mean, percentiles, Adversary, Fault, NetProfile, Scenario, ScenarioReport, Workload,
};
pub use shard::{ShardError, ShardMap, ShardStats, ShardedLedger};
pub use snapshot::LedgerSnapshot;
pub use suite::{format_reports, run_suite, standard_suite};
