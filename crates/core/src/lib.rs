//! # at-core — the paper's message-passing state machines
//!
//! The practical contribution of *The Consensus Number of a
//! Cryptocurrency* (Sections 5–6): a Byzantine fault-tolerant asset
//! transfer system built on secure broadcast instead of consensus.
//!
//! * [`figure4`] — the paper's Figure 4 state machine (`seq`/`rec`/
//!   `hist`/`deps`/`toValidate` and the `Valid` predicate), independent
//!   of any particular broadcast. It is the reference the deployed
//!   replica (`at_engine::ShardedReplica`) is tested against, and its
//!   [`TransferMsg`] is the payload every broadcast backend carries;
//! * [`kshared`] — the Section 6 extension: per-account owner-group BFT
//!   sequencing plus account-order broadcast, giving `k`-shared accounts
//!   whose compromise can block only themselves.
//!
//! # Example
//!
//! ```
//! use at_core::figure4::{Applied, TransferState};
//! use at_model::{AccountId, Amount, ProcessId};
//!
//! // Four processes, each owning account i with 100 units.
//! let mut processes: Vec<TransferState> = (0..4)
//!     .map(|i| TransferState::new(ProcessId::new(i), 4, Amount::new(100)))
//!     .collect();
//!
//! // Process 0 pays 25 to account 1 — no consensus involved: the message
//! // only has to reach every process through a secure broadcast.
//! let msg = processes[0]
//!     .submit(AccountId::new(1), Amount::new(25))
//!     .expect("funded");
//! let mut completed = 0;
//! for process in &mut processes {
//!     for applied in process.on_deliver(ProcessId::new(0), msg.clone()) {
//!         completed += matches!(applied, Applied::OwnCompleted(_)) as usize;
//!     }
//! }
//! assert_eq!(completed, 1); // the transfer returns true at its issuer
//! let observer = &processes[2];
//! assert_eq!(observer.observed_balance(AccountId::new(1)), Amount::new(125));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure4;
pub mod kshared;

pub use figure4::{Applied, TransferMsg, TransferState};
pub use kshared::{KEvent, KMsg, KPayload, KSharedReplica};
