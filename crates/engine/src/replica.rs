//! The engine replica: sharded account state over a batched, pluggable
//! secure broadcast.
//!
//! Semantically this is the Figure 4 protocol with three production
//! optimisations, all justified by the paper's consensus-number-1
//! result:
//!
//! * **sharding** — the materialized ledger is partitioned by account
//!   ([`crate::shard::ShardedLedger`]), so validating a transfer costs a
//!   shard-local balance lookup instead of recomputing `balance(a,
//!   hist[a])` over the account's full history;
//! * **batching** — submitted transfers accumulate in a
//!   [`at_broadcast::Batcher`] and ship as one
//!   [`at_broadcast::Batch`] per secure-broadcast instance, amortizing
//!   the per-instance message cost across the batch;
//! * **backend choice** — the replica is generic over any
//!   [`SecureBroadcast`] implementation (Section 5's observation that
//!   the broadcast layer is swappable), trading signature CPU for
//!   message complexity: Bracha's signature-free `O(n²)` protocol, the
//!   `O(n)`-sender signed-echo broadcast, or the Section 6 account-order
//!   broadcast. Select with [`crate::config::BroadcastBackend`].
//!
//! The replica relies on the backend's delivery contract (per-source
//! FIFO, gapless, exactly-once — see [`at_broadcast::secure`]) and on
//! the backend's own instance bookkeeping for broadcast-level dedup and
//! equivocation suppression; it keeps no parallel "seen" state of its
//! own. The only per-source sequencing the replica tracks is Figure 4's
//! `rec[q]`/`seq[q]` over *transfer* sequence numbers, which live inside
//! batch payloads and are invisible to the broadcast layer.
//!
//! Two deliberate semantic deviations from the literal Figure 4, recorded
//! here as the module contract:
//!
//! 1. balances reflect *every* applied transfer immediately (the
//!    "eventually included" view of Definition 1; Figure 4's `read` keeps
//!    a remote account's incoming credits invisible until its owner folds
//!    them into an outgoing transfer), and validation carries no `deps`:
//!    a delivered transfer applies once it is next in its source's
//!    sequence, its destination exists and its source account covers it.
//!    Submissions send `deps` empty and received ones are ignored. Only
//!    an account's owner debits it (well-formedness binds `t.source` to
//!    the delivering process), in its own sequence order; every other
//!    applied transfer only credits it. So a funded head of a source's
//!    stream stays funded: validity is monotone, and Figure 4's `deps`
//!    could only delay application. The protocol's two properties follow:
//!    * **Agreement.** Validity is monotone, so every correct replica
//!      applies the same per-source prefix. By induction over one correct
//!      replica's application order, every transfer it applies was funded
//!      by credits it applied earlier; every other correct replica is
//!      delivered the same streams, eventually applies those credits
//!      too, and then the transfer, which stays valid from then on.
//!    * **Linearizability.** Each transfer is linearized at its first
//!      application at a correct replica. Every credit that funded it
//!      there was applied, and so linearized, earlier; the only debits of
//!      its account are its source's earlier transfers, applied before
//!      it everywhere. So the sequential specification accepts it at that
//!      point, which lies between its submission and its completion.
//! 2. admission (`transfer` line 2) additionally subtracts the amounts of
//!    this replica's own in-flight (submitted, not yet validated)
//!    transfers, so a batch can never contain transfers that jointly
//!    overdraw the account — a hazard Figure 4 avoids only because its
//!    clients are sequential.
//!
//! Delivered transfers wait in one FIFO queue per source. Well-formedness
//! keeps each queue in sequence order, so only heads can apply, and an
//! application can change only two heads' validity: its own source's
//! (debited) and its destination owner's (credited; account `i` belongs
//! to process `i` for `i < n`). Draining re-examines exactly those.

use crate::config::{BatchPolicy, EngineConfig};
use crate::shard::{ShardStats, ShardedLedger};
use crate::snapshot::LedgerSnapshot;
use at_broadcast::bracha::BrachaBroadcast;
use at_broadcast::secure::SecureBroadcast;
use at_broadcast::types::{Delivery, Outgoing, Step};
use at_broadcast::{Batch, Batcher};
use at_core::figure4::TransferMsg;
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
use at_net::{Actor, Context, VirtualTime};
use at_obs::{Recorder, Stage, TraceCtx, TraceEventKind, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The payload every engine backend carries: a batch of transfers.
pub type EnginePayload = Batch<TransferMsg>;

/// The default backend — Bracha reliable broadcast over transfer
/// batches, the paper's deployed configuration.
pub type DefaultEngineBroadcast = BrachaBroadcast<EnginePayload>;

/// The wire message of the engine over backend `B` (defaults to the
/// Bracha backend's messages).
pub type EngineMsg<B = DefaultEngineBroadcast> = <B as SecureBroadcast<EnginePayload>>::Msg;

/// Timer id used for the batch-window flush.
const FLUSH_TIMER: u64 = 0xBA7C;

/// Cap on delivered-but-unvalidated transfers buffered *per source*.
/// Well-formedness already forces per-source sequential receipt, so an
/// honest sender can only accumulate pending entries while awaiting
/// credits — far fewer than this. A Byzantine sender spamming
/// never-valid transfers hits the cap and is dropped instead of growing
/// every correct replica's memory without bound. The drop decision
/// depends on this replica's own validation progress, so a Byzantine
/// source that outruns it can leave correct replicas with different
/// prefixes of its stream; bounded memory without that divergence needs
/// backpressure in the broadcast layer.
const MAX_PENDING_PER_SOURCE: usize = 1_024;

/// Cap on retained drop diagnostics ([`DropDiagnostic`]). A sustained
/// Byzantine sender produces one diagnostic per dropped item; retaining
/// them all would be exactly the unbounded growth the cap on `pending`
/// prevents. Oldest entries are evicted first and counted.
const MAX_DROP_DIAGNOSTICS: usize = 256;

/// Why a delivered transfer was dropped instead of buffered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Well-formedness violation: wrong originator/source binding or a
    /// non-consecutive sequence number (Figure 4 lines 9–12).
    Malformed,
    /// The per-source delivered-but-unvalidated buffer was full
    /// (`MAX_PENDING_PER_SOURCE`); the source is too far ahead of
    /// validation to be honest.
    PendingOverflow,
}

/// A retained diagnostic for one dropped transfer, kept in a bounded
/// ring for operators (see [`ShardedReplica::drop_diagnostics`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DropDiagnostic {
    /// The process whose batch carried the dropped item.
    pub source: ProcessId,
    /// The transfer sequence number the item claimed.
    pub seq: SeqNo,
    /// Why it was dropped.
    pub reason: DropReason,
}

/// Events surfaced by the engine replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// Our own transfer passed admission and was handed to the batcher —
    /// the *invocation* point of the operation. Paired with the later
    /// [`EngineEvent::Completed`] by `(originator, seq)`, this is what
    /// lets [`crate::probe`] reconstruct an `at_model::History` from the
    /// event stream.
    Submitted {
        /// The transfer.
        transfer: Transfer,
    },
    /// Our own transfer validated everywhere it needs to (locally) — the
    /// `return true` of Figure 4.
    Completed {
        /// The transfer.
        transfer: Transfer,
    },
    /// A submission failed admission (insufficient available balance or
    /// unknown destination).
    Rejected {
        /// The destination requested.
        destination: AccountId,
        /// The amount requested.
        amount: Amount,
        /// The available balance at admission time (balance minus
        /// in-flight reservations).
        available: Amount,
    },
    /// A validated transfer (any process's) was applied locally.
    Applied {
        /// The transfer.
        transfer: Transfer,
    },
    /// A batch was handed to the secure broadcast.
    BatchBroadcast {
        /// Number of transfers in the batch.
        size: usize,
    },
    /// The secure-broadcast backend delivered one payload to this
    /// replica. Emitted *before* well-formedness filtering, so the
    /// stream of these events per `(observer, source)` is exactly the
    /// backend's delivery sequence — the probe that checks the
    /// per-source FIFO-exactly-once contract ([`at_broadcast::secure`])
    /// reads it directly.
    BackendDelivery {
        /// The broadcast instance's source.
        source: ProcessId,
        /// The source's broadcast sequence number.
        seq: SeqNo,
    },
    /// A harness-injected read observed a balance
    /// ([`ShardedReplica::read_op`]) — an instantaneous read operation
    /// for history reconstruction.
    ReadObserved {
        /// The account read.
        account: AccountId,
        /// The balance observed.
        balance: Amount,
    },
}

/// Pre-resolved observability handles (attached by real runtimes via
/// [`ShardedReplica::set_recorder`]; absent under the simulator, so the
/// simulated hot loop never reads the wall clock).
struct EngineObs {
    recorder: Recorder,
    /// `engine_batch_size` — occupancy of each broadcast batch.
    batch_size: Arc<at_obs::Histogram>,
    /// `engine_rejected_total` — submissions failing admission.
    rejected: Arc<at_obs::Counter>,
}

/// One process of the sharded, batched consensusless payment engine,
/// generic over the secure-broadcast backend `B`.
pub struct ShardedReplica<B: SecureBroadcast<EnginePayload> = DefaultEngineBroadcast> {
    me: ProcessId,
    n: usize,
    policy: BatchPolicy,
    /// Virtual CPU charged per backend signature operation.
    sig_cost: VirtualTime,
    /// Backend signature operations already charged.
    charged_ops: u64,
    ledger: ShardedLedger,
    broadcast: B,
    batcher: Batcher<TransferMsg>,
    flush_armed: bool,
    /// `seq[q]` of Figure 4: last *validated* outgoing sequence number
    /// per process.
    validated_seq: Vec<SeqNo>,
    /// `rec[q]` of Figure 4: last *received* (well-formed) sequence
    /// number per process.
    received_seq: Vec<SeqNo>,
    /// Per source: applied outgoing transfers by sequence number, back to
    /// the last prune (used by the scenario subsystem for cross-replica
    /// conflict detection).
    applied_from: Vec<BTreeMap<u64, Transfer>>,
    /// Per source: delivered, well-formed, not-yet-valid transfers
    /// (`toValidate`) in sequence order, each with the trace context of
    /// the batch that carried it, bounded by [`MAX_PENDING_PER_SOURCE`].
    pending: Vec<VecDeque<(Transfer, Option<TraceCtx>)>>,
    /// Our next outgoing sequence number (pre-assigned at submission).
    next_own_seq: SeqNo,
    /// Sum of our submitted-but-not-yet-validated outgoing amounts.
    reserved: Amount,
    /// Batches delivered whose items failed well-formedness (diagnostics).
    malformed_dropped: u64,
    /// Well-formed transfers dropped because the per-source pending
    /// buffer was full — surfaced separately from `malformed_dropped` so
    /// a wedged validation pipeline is diagnosable instead of looking
    /// like frame loss.
    pending_overflow_dropped: u64,
    /// Bounded ring of per-drop diagnostics (evict-oldest).
    drop_diagnostics: VecDeque<DropDiagnostic>,
    /// Diagnostics evicted from the ring to stay within
    /// [`MAX_DROP_DIAGNOSTICS`].
    diagnostics_dropped: u64,
    /// Highest broadcast-*instance* sequence number delivered per source
    /// (the backend floor a snapshot cut carries).
    backend_seen: Vec<SeqNo>,
    /// Total entries pruned from the applied history and the backend.
    pruned_total: u64,
    /// Observability handles, when a runtime attached a recorder.
    obs: Option<EngineObs>,
    /// Causal tracer, when a runtime attached one.
    tracer: Option<Tracer>,
    /// Trace context for the *next* submission (set by the runtime's
    /// ingress path, consumed by [`ShardedReplica::submit`]).
    next_trace: Option<TraceCtx>,
}

impl ShardedReplica<DefaultEngineBroadcast> {
    /// A replica for process `me` of `n` over the default Bracha backend,
    /// each account starting with `initial`, configured by `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.backend` selects anything but
    /// [`BroadcastBackend::Bracha`](crate::config::BroadcastBackend) —
    /// this constructor builds the Bracha endpoint itself; other backends
    /// need [`ShardedReplica::with_backend`] (the driver-level factory,
    /// [`crate::driver::ConsensuslessEngine`], does this per
    /// `config.backend`).
    pub fn new(me: ProcessId, n: usize, initial: Amount, config: EngineConfig) -> Self {
        assert!(
            matches!(config.backend, crate::config::BroadcastBackend::Bracha),
            "ShardedReplica::new builds the Bracha backend; use with_backend (or the \
             ConsensuslessEngine driver) for {:?}",
            config.backend
        );
        ShardedReplica::with_backend(me, n, initial, config, BrachaBroadcast::new(me, n))
    }
}

impl<B: SecureBroadcast<EnginePayload>> ShardedReplica<B> {
    /// A replica for process `me` of `n` over an explicit broadcast
    /// backend.
    pub fn with_backend(
        me: ProcessId,
        n: usize,
        initial: Amount,
        config: EngineConfig,
        backend: B,
    ) -> Self {
        ShardedReplica {
            me,
            n,
            policy: config.batch,
            sig_cost: VirtualTime::from_micros(config.sig_cost_us),
            charged_ops: 0,
            ledger: ShardedLedger::uniform(config.account_count(n), initial, config.shards),
            broadcast: backend,
            batcher: Batcher::new(config.batch.max_size),
            flush_armed: false,
            validated_seq: vec![SeqNo::ZERO; n],
            received_seq: vec![SeqNo::ZERO; n],
            applied_from: vec![BTreeMap::new(); n],
            pending: vec![VecDeque::new(); n],
            next_own_seq: SeqNo::ZERO,
            reserved: Amount::ZERO,
            malformed_dropped: 0,
            pending_overflow_dropped: 0,
            drop_diagnostics: VecDeque::new(),
            diagnostics_dropped: 0,
            backend_seen: vec![SeqNo::ZERO; n],
            pruned_total: 0,
            obs: None,
            tracer: None,
            next_trace: None,
        }
    }

    /// Reconstructs a replica from a verified [`LedgerSnapshot`]: the
    /// ledger is materialized from the snapshot balances, the per-source
    /// transfer frontiers seed `seq[q]`/`rec[q]` (and this process's own
    /// next sequence number), and the backend's delivery floors are
    /// raised to the snapshot's instance floors so stale replayed frames
    /// are discarded and fresh instances resume gaplessly. This is the
    /// cold catch-up path: snapshot + short log suffix instead of full
    /// history replay.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot fails [`LedgerSnapshot::verify`] or its
    /// frontier vectors don't cover `n` processes — a caller must only
    /// pass quorum-attested, digest-checked snapshots.
    pub fn from_snapshot(
        me: ProcessId,
        n: usize,
        config: EngineConfig,
        mut backend: B,
        snapshot: &LedgerSnapshot,
    ) -> Self {
        assert!(snapshot.verify(), "snapshot digest mismatch");
        assert_eq!(
            snapshot.frontier.len(),
            n,
            "frontier must cover n processes"
        );
        assert_eq!(
            snapshot.backend_floor.len(),
            n,
            "backend floor must cover n processes"
        );
        for (q, floor) in snapshot.backend_floor.iter().enumerate() {
            backend.set_delivery_floor(ProcessId::new(q as u32), *floor);
        }
        let mut replica = ShardedReplica {
            me,
            n,
            policy: config.batch,
            sig_cost: VirtualTime::from_micros(config.sig_cost_us),
            charged_ops: 0,
            ledger: ShardedLedger::new(snapshot.balances.iter().copied(), config.shards),
            broadcast: backend,
            batcher: Batcher::new(config.batch.max_size),
            flush_armed: false,
            validated_seq: snapshot.frontier.clone(),
            received_seq: snapshot.frontier.clone(),
            applied_from: vec![BTreeMap::new(); n],
            pending: vec![VecDeque::new(); n],
            next_own_seq: SeqNo::ZERO,
            reserved: Amount::ZERO,
            malformed_dropped: 0,
            pending_overflow_dropped: 0,
            drop_diagnostics: VecDeque::new(),
            diagnostics_dropped: 0,
            backend_seen: snapshot.backend_floor.clone(),
            pruned_total: 0,
            obs: None,
            tracer: None,
            next_trace: None,
        };
        replica.next_own_seq = snapshot.frontier[me.as_usize()];
        replica
    }

    /// Cuts a [`LedgerSnapshot`] of the current applied state: balances,
    /// the per-source validated-seq frontier, and the backend's
    /// delivered-instance floors. The cut is always self-consistent
    /// (application is gapless per source), so the snapshot verifies by
    /// construction; whether it is *stable* (quorum-acknowledged) is the
    /// caller's concern — the node layer cross-checks digests from `f+1`
    /// peers before trusting one.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot::new(
            self.ledger.iter().collect(),
            self.validated_seq.clone(),
            self.backend_seen.clone(),
        )
    }

    /// This replica's stability-frontier contribution: the per-source
    /// last-validated transfer sequence numbers. A quorum-wide frontier
    /// is the element-wise minimum over `n − f` replicas' vectors.
    pub fn stability_frontier(&self) -> Vec<SeqNo> {
        self.validated_seq.clone()
    }

    /// Prunes the applied history at or below `frontier` (clamped per
    /// source to what this replica has actually validated), plus the
    /// broadcast backend's delivered instances behind its release floors.
    /// Returns the number of entries pruned.
    ///
    /// Soundness: validation reads balances, never history (see the
    /// module contract), and a pruned transfer is already folded into
    /// them; only the cross-replica conflict check reads
    /// [`ShardedReplica::applied_from`], which keeps everything past the
    /// floor.
    pub fn prune_through(&mut self, frontier: &[SeqNo]) -> u64 {
        let mut pruned = 0u64;
        for (q, &advertised) in frontier.iter().enumerate().take(self.n) {
            let floor = advertised.min(self.validated_seq[q]);
            let keep = self.applied_from[q].split_off(&(floor.value() + 1));
            pruned += std::mem::replace(&mut self.applied_from[q], keep).len() as u64;
        }
        pruned += self.broadcast.prune_delivered() as u64;
        self.pruned_total += pruned;
        pruned
    }

    /// Attaches an [`at_obs`] recorder: batch occupancy, admission
    /// rejections, and [`Stage::Apply`] drain latency feed its registry
    /// from here on. Real runtimes (`at_node`) call this once before
    /// driving the replica; the simulator leaves it unset, keeping the
    /// simulated hot loop free of wall-clock reads.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        let registry = recorder.registry();
        self.obs = Some(EngineObs {
            batch_size: registry.histogram("engine_batch_size"),
            rejected: registry.counter("engine_rejected_total"),
            recorder,
        });
    }

    /// Attaches a causal [`Tracer`]: the replica records batch joins and
    /// applies for traced transfers, and the broadcast backend records
    /// its protocol steps (send/echo/ready/deliver, verify spans) for
    /// batches carrying a [`TraceCtx`]. Like [`ShardedReplica::set_recorder`],
    /// only real runtimes call this.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.broadcast
            .set_tracer(tracer.clone(), |batch: &EnginePayload| batch.trace);
        self.tracer = Some(tracer);
    }

    /// Arms `ctx` as the trace context of the next [`ShardedReplica::submit`]
    /// (the runtime mints it at gateway ingress). Consumed — or discarded,
    /// when the submission is rejected — by that one submission.
    pub fn set_next_trace(&mut self, ctx: Option<TraceCtx>) {
        self.next_trace = ctx;
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The account owned by this process (paper topology: account `i`
    /// belongs to process `i`).
    pub fn my_account(&self) -> AccountId {
        AccountId::new(self.me.index())
    }

    /// The balance of `account` over every locally applied transfer.
    pub fn balance(&self, account: AccountId) -> Amount {
        self.ledger.balance(account)
    }

    /// The balance available for new submissions: current balance minus
    /// in-flight reservations.
    pub fn available(&self) -> Amount {
        self.ledger
            .balance(self.my_account())
            .saturating_sub(self.reserved)
    }

    /// The sharded ledger (for end-of-run assertions).
    pub fn ledger(&self) -> &ShardedLedger {
        &self.ledger
    }

    /// Counters of shard `index`.
    pub fn shard_stats(&self, index: usize) -> ShardStats {
        self.ledger.shard_stats(index)
    }

    /// Applied outgoing transfers of process `q`, by sequence number.
    pub fn applied_from(&self, q: ProcessId) -> &BTreeMap<u64, Transfer> {
        &self.applied_from[q.as_usize()]
    }

    /// Number of delivered-but-unvalidated transfers.
    pub fn pending_count(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Number of well-formedness-violating transfers dropped.
    pub fn malformed_dropped(&self) -> u64 {
        self.malformed_dropped
    }

    /// Number of well-formed transfers dropped because the per-source
    /// pending buffer overflowed (see [`DropReason::PendingOverflow`]).
    pub fn pending_overflow_dropped(&self) -> u64 {
        self.pending_overflow_dropped
    }

    /// The retained drop diagnostics, oldest first (bounded ring; see
    /// [`ShardedReplica::diagnostics_dropped`] for evictions).
    pub fn drop_diagnostics(&self) -> impl Iterator<Item = &DropDiagnostic> {
        self.drop_diagnostics.iter()
    }

    /// Number of diagnostics evicted from the bounded ring.
    pub fn diagnostics_dropped(&self) -> u64 {
        self.diagnostics_dropped
    }

    /// Total entries pruned so far by [`ShardedReplica::prune_through`].
    pub fn pruned_total(&self) -> u64 {
        self.pruned_total
    }

    /// Records a drop diagnostic, evicting the oldest past the cap.
    fn record_drop(&mut self, source: ProcessId, seq: SeqNo, reason: DropReason) {
        self.drop_diagnostics.push_back(DropDiagnostic {
            source,
            seq,
            reason,
        });
        if self.drop_diagnostics.len() > MAX_DROP_DIAGNOSTICS {
            self.drop_diagnostics.pop_front();
            self.diagnostics_dropped += 1;
        }
    }

    /// A deterministic digest of the ledger state (see
    /// [`ShardedLedger::digest`]).
    pub fn digest(&self) -> u64 {
        self.ledger.digest()
    }

    /// Submits `transfer(my-account, destination, amount)`. Admission
    /// checks the *available* balance (see the module docs); admitted
    /// transfers join the current batch and complete when the broadcast
    /// round-trips and validates.
    pub fn submit(
        &mut self,
        destination: AccountId,
        amount: Amount,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        let trace = self.next_trace.take();
        let available = self.available();
        if amount > available || !self.ledger.contains(destination) {
            if let Some(obs) = &self.obs {
                obs.rejected.inc();
            }
            ctx.emit(EngineEvent::Rejected {
                destination,
                amount,
                available,
            });
            return;
        }
        self.next_own_seq = self.next_own_seq.next();
        let transfer = Transfer::new(
            self.my_account(),
            destination,
            amount,
            self.me,
            self.next_own_seq,
        );
        // Invocation point: emitted before any broadcast effect, so in
        // the reconstructed history the operation's interval opens here.
        ctx.emit(EngineEvent::Submitted { transfer });
        self.reserved = self.reserved.saturating_add(amount);
        // Attach before the push: a cap-triggered flush must already
        // carry the context.
        if let (Some(tracer), Some(ctx)) = (&self.tracer, trace) {
            if self.batcher.attach_trace(ctx) {
                // First traced member claims the batch; arg = occupancy
                // the batch will have once this transfer joins.
                tracer.record(
                    ctx,
                    TraceEventKind::BatchJoin,
                    self.batcher.pending() as u64 + 1,
                );
            } else if let Some(owner) = self.batcher.trace() {
                // A later traced member rides a batch another transfer
                // claimed; arg = the carrying trace's id so the two
                // timelines can be cross-referenced.
                tracer.record(ctx, TraceEventKind::BatchJoin, owner.id);
            }
        }

        // Figure 4's `deps` ride empty: validation never reads them.
        let msg = TransferMsg {
            transfer,
            deps: Vec::new(),
        };
        if let Some(batch) = self.batcher.push(msg) {
            self.broadcast_batch(batch, ctx);
        } else if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(self.policy.window, FLUSH_TIMER);
        }
    }

    /// Hands a batch to the secure broadcast, bypassing admission. Public
    /// for the adversarial actors ([`crate::adversary`]), which broadcast
    /// protocol-conformant but *invalid* payloads; honest code paths go
    /// through [`ShardedReplica::submit`].
    pub fn broadcast_batch(
        &mut self,
        batch: Batch<TransferMsg>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        ctx.emit(EngineEvent::BatchBroadcast { size: batch.len() });
        if let Some(obs) = &self.obs {
            obs.batch_size.record(batch.len() as u64);
        }
        let mut step = Step::new();
        self.broadcast.broadcast(batch, &mut step);
        self.absorb(step, ctx);
    }

    /// *Byzantine harness only*: hands two conflicting batches to the
    /// backend's split-broadcast (one instance, `left` to the lower half
    /// of the system, `right` to the upper half) — the double-spend
    /// attempt. The backend's own equivocation state is the single source
    /// of truth here; the replica keeps no instance counter of its own.
    pub fn broadcast_split(
        &mut self,
        left: Batch<TransferMsg>,
        right: Batch<TransferMsg>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        let mut step = Step::new();
        self.broadcast.broadcast_split(left, right, &mut step);
        self.absorb(step, ctx);
    }

    /// The secure-broadcast backend (quorum/instance/crypto
    /// introspection).
    pub fn backend(&self) -> &B {
        &self.broadcast
    }

    /// Flushes any window-batched transfers immediately and clears the
    /// armed-timer latch.
    ///
    /// Recovery hook for real runtimes: `flush_armed` assumes the armed
    /// `FLUSH_TIMER` will always fire, which the simulator guarantees
    /// but a warm restart does not — a resumed replica whose timer died
    /// with the old process would otherwise never flush (or re-arm for)
    /// the batch it was accumulating. `at_node::Node::resume` calls this
    /// once on startup; the simulator never needs it.
    pub fn flush_pending(&mut self, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        self.flush_armed = false;
        if let Some(batch) = self.batcher.flush() {
            self.broadcast_batch(batch, ctx);
        }
    }

    fn absorb(
        &mut self,
        step: Step<B::Msg, EnginePayload>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        // Charge modelled CPU for the signature work the backend just
        // performed (see `EngineConfig::sig_cost_us`).
        if self.sig_cost > VirtualTime::ZERO {
            let ops = self.broadcast.crypto_ops().total();
            let delta = ops.saturating_sub(self.charged_ops);
            if delta > 0 {
                ctx.charge(VirtualTime::from_micros(self.sig_cost.as_micros() * delta));
                self.charged_ops = ops;
            }
        }
        let Step {
            outgoing,
            deliveries,
        } = step;
        for Outgoing { to, msg } in outgoing {
            ctx.send(to, msg);
        }
        for Delivery {
            source,
            seq,
            payload,
        } in deliveries
        {
            ctx.emit(EngineEvent::BackendDelivery { source, seq });
            if let Some(seen) = self.backend_seen.get_mut(source.as_usize()) {
                if seq.value() > seen.value() {
                    *seen = seq;
                }
            }
            self.on_batch(source, payload, ctx);
        }
    }

    /// *Harness hook*: records the current local balance of `account` as
    /// an instantaneous read operation ([`EngineEvent::ReadObserved`]).
    /// Reads in this engine are local (Figure 4's `read`), so the
    /// observation is complete the moment it is made.
    pub fn read_op(&self, account: AccountId, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        ctx.emit(EngineEvent::ReadObserved {
            account,
            balance: self.ledger.balance(account),
        });
    }

    /// Processes one delivered batch: per-item well-formedness (Figure 4
    /// lines 9–12 over the flattened stream), then validity-driven
    /// application.
    fn on_batch(
        &mut self,
        q: ProcessId,
        batch: Batch<TransferMsg>,
        ctx: &mut Context<'_, B::Msg, EngineEvent>,
    ) {
        let index = q.as_usize();
        if index >= self.n {
            return;
        }
        let trace = batch.trace;
        for TransferMsg { transfer: t, .. } in batch.items {
            let well_formed = t.originator == q
                && t.source.index() == q.index()
                && t.seq == self.received_seq[index].next();
            if !well_formed {
                self.malformed_dropped += 1;
                self.record_drop(q, t.seq, DropReason::Malformed);
                continue;
            }
            self.received_seq[index] = t.seq;
            if self.pending[index].len() >= MAX_PENDING_PER_SOURCE {
                // A source this far ahead of validation is Byzantine (an
                // honest sender's transfers validate in receipt order
                // once their funding lands). Drop instead of buffering
                // without bound.
                self.pending_overflow_dropped += 1;
                self.record_drop(q, t.seq, DropReason::PendingOverflow);
                continue;
            }
            self.pending[index].push_back((t, trace));
        }
        self.drain(index, ctx);
    }

    /// Applies the head of source `q`'s queue if it is valid: next in
    /// sequence, destination known, source funded. The sequence check
    /// fails only behind a transfer dropped on overflow, which no later
    /// transfer of `q` can pass. `ShardedLedger::apply` checks the rest
    /// before it mutates anything.
    fn apply_head(&mut self, q: usize) -> Option<(Transfer, Option<TraceCtx>)> {
        let (t, _) = self.pending[q].front()?;
        if t.seq != self.validated_seq[q].next() || self.ledger.apply(t).is_err() {
            return None;
        }
        self.pending[q].pop_front()
    }

    /// Applies every valid queue head until none is left — Figure 4 line
    /// 13. Starts from source `from`, the only queue that just grew; an
    /// application re-examines its own source and the owner of its
    /// destination account, the only two heads whose validity it can
    /// change (see the module docs).
    fn drain(&mut self, from: usize, ctx: &mut Context<'_, B::Msg, EngineEvent>) {
        let started = self.obs.as_ref().map(|_| Instant::now());
        let mut wake = vec![from];
        while let Some(q) = wake.pop() {
            while let Some((t, trace)) = self.apply_head(q) {
                if let (Some(tracer), Some(ctx)) = (&self.tracer, trace) {
                    let ctx = if t.originator != self.me {
                        ctx.hopped()
                    } else {
                        ctx
                    };
                    tracer.record(ctx, TraceEventKind::Apply, t.seq.value());
                }
                self.validated_seq[q] = t.seq;
                self.applied_from[q].insert(t.seq.value(), t);
                ctx.emit(EngineEvent::Applied { transfer: t });
                if t.originator == self.me {
                    self.reserved = self.reserved.saturating_sub(t.amount);
                    ctx.emit(EngineEvent::Completed { transfer: t });
                }
                let owner = t.destination.as_usize();
                if owner < self.n && owner != q && !self.pending[owner].is_empty() {
                    wake.push(owner);
                }
            }
        }
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            obs.recorder.record(Stage::Apply, started.elapsed());
        }
    }
}

impl<B: SecureBroadcast<EnginePayload>> Actor for ShardedReplica<B> {
    type Msg = B::Msg;
    type Event = EngineEvent;

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        let mut step = Step::new();
        self.broadcast.on_message(from, msg, &mut step);
        self.absorb(step, ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, Self::Msg, Self::Event>) {
        if timer == FLUSH_TIMER {
            self.flush_pending(ctx);
        }
    }
}

impl<B: SecureBroadcast<EnginePayload>> std::fmt::Debug for ShardedReplica<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedReplica(me={}, shards={}, applied={}, pending={})",
            self.me,
            self.ledger.shard_count(),
            self.applied_from.iter().map(BTreeMap::len).sum::<usize>(),
            self.pending_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_core::figure4::{Applied, TransferState};
    use at_net::{NetConfig, Simulation, VirtualTime};
    use std::collections::BTreeSet;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn a(i: u32) -> AccountId {
        AccountId::new(i)
    }

    fn amt(x: u64) -> Amount {
        Amount::new(x)
    }

    fn system(n: usize, initial: u64, config: EngineConfig) -> Simulation<ShardedReplica> {
        let replicas = (0..n as u32)
            .map(|i| ShardedReplica::new(p(i), n, amt(initial), config))
            .collect();
        Simulation::new(replicas, NetConfig::lan(3))
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

    #[test]
    fn transfer_completes_unsharded_unbatched() {
        let mut sim = system(4, 100, EngineConfig::unsharded());
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(25), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 1);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(75));
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(125));
        }
    }

    #[test]
    fn batched_submissions_share_one_broadcast() {
        let config = EngineConfig::sharded_batched(2, 4, VirtualTime::from_micros(400));
        let mut sim = system(4, 100, config);
        // Three quick submissions at p0 inside one window.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(5), ctx);
            replica.submit(a(2), amt(6), ctx);
            replica.submit(a(3), amt(7), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        let batches: Vec<usize> = events
            .iter()
            .filter_map(|(_, _, e)| match e {
                EngineEvent::BatchBroadcast { size } => Some(*size),
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![3], "one flush carrying all three");
        assert_eq!(completed(&events).len(), 3);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(82));
        }
    }

    #[test]
    fn batch_size_cap_flushes_without_timer() {
        let config = EngineConfig::sharded_batched(2, 2, VirtualTime::from_millis(100));
        let mut sim = system(4, 100, config);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(1), ctx);
            replica.submit(a(2), amt(1), ctx);
        });
        // The cap (2) is hit synchronously: both transfers complete long
        // before the 100ms window would have flushed. (The armed timer
        // still fires later — uncancellable in the simulator — so
        // quiescence itself lands after the window; completion must not.)
        assert!(sim.run_until_quiet(1_000_000));
        let completions: Vec<VirtualTime> = sim
            .take_events()
            .into_iter()
            .filter(|(_, _, e)| matches!(e, EngineEvent::Completed { .. }))
            .map(|(at, _, _)| at)
            .collect();
        assert_eq!(completions.len(), 2);
        assert!(completions
            .iter()
            .all(|at| *at < VirtualTime::from_millis(100)));
        assert_eq!(sim.actor(p(3)).balance(a(0)), amt(98));
    }

    #[test]
    fn admission_reserves_in_flight_amounts() {
        let config = EngineConfig::sharded_batched(1, 8, VirtualTime::from_micros(200));
        let mut sim = system(3, 10, config);
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(7), ctx);
            // 7 reserved: only 3 available, so 4 must be rejected even
            // though the ledger still shows 10.
            replica.submit(a(2), amt(4), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let events = sim.take_events();
        assert_eq!(completed(&events).len(), 1);
        let rejected: Vec<_> = events
            .iter()
            .filter(|(_, _, e)| matches!(e, EngineEvent::Rejected { .. }))
            .collect();
        assert_eq!(rejected.len(), 1);
        assert_eq!(sim.actor(p(1)).balance(a(0)), amt(3));
    }

    #[test]
    fn causal_chain_funds_downstream_transfer() {
        let mut sim = system(4, 10, EngineConfig::standard());
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(10), ctx);
        });
        sim.schedule(VirtualTime::from_millis(50), p(1), |replica, ctx| {
            replica.submit(a(2), amt(15), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 2);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(0));
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(5));
            assert_eq!(sim.actor(p(i)).balance(a(2)), amt(25));
        }
    }

    #[test]
    fn replicas_converge_to_identical_digests() {
        let mut sim = system(5, 100, EngineConfig::standard());
        for i in 0..5u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a((i + 1) % 5), amt(10 + i as u64), ctx);
            });
        }
        assert!(sim.run_until_quiet(10_000_000));
        let digest = sim.actor(p(0)).digest();
        for i in 1..5 {
            assert_eq!(sim.actor(p(i)).digest(), digest, "replica {i}");
        }
        let total: Amount = (0..5).map(|j| sim.actor(p(0)).balance(a(j))).sum();
        assert_eq!(total, amt(500));
    }

    #[test]
    fn overdraft_broadcast_never_validates() {
        let mut sim = system(3, 10, EngineConfig::unsharded());
        // Bypass admission via broadcast_batch (a Byzantine submitter).
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let transfer = Transfer::new(a(0), a(1), amt(99), p(0), SeqNo::new(1));
            replica.broadcast_batch(
                Batch::single(TransferMsg {
                    transfer,
                    deps: vec![],
                }),
                ctx,
            );
        });
        assert!(sim.run_until_quiet(1_000_000));
        assert!(completed(&sim.take_events()).is_empty());
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(10));
            assert_eq!(sim.actor(p(i)).pending_count(), 1);
        }
    }

    #[test]
    fn malformed_transfers_are_dropped() {
        let mut sim = system(3, 10, EngineConfig::unsharded());
        // p0 broadcasts a transfer claiming to debit account 2.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let transfer = Transfer::new(a(2), a(1), amt(5), p(0), SeqNo::new(1));
            replica.broadcast_batch(
                Batch::single(TransferMsg {
                    transfer,
                    deps: vec![],
                }),
                ctx,
            );
        });
        assert!(sim.run_until_quiet(1_000_000));
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).balance(a(2)), amt(10));
            assert_eq!(sim.actor(p(i)).malformed_dropped(), 1);
            assert_eq!(sim.actor(p(i)).pending_count(), 0);
        }
    }

    #[test]
    fn forged_dependency_cannot_fund_an_overdraft() {
        let fake_dep = Transfer::new(a(2), a(0), amt(50), p(2), SeqNo::new(1));
        let forged = |amount: u64| {
            move |replica: &mut ShardedReplica, ctx: &mut Context<'_, _, EngineEvent>| {
                let transfer = Transfer::new(a(0), a(1), amt(amount), p(0), SeqNo::new(1));
                replica.broadcast_batch(
                    Batch::single(TransferMsg {
                        transfer,
                        deps: vec![fake_dep],
                    }),
                    ctx,
                );
            }
        };
        // Byzantine p0 claims a fabricated 50-unit credit and spends 15
        // of its 10: the dep funds nothing, so the transfer stays pending.
        let mut sim = system(3, 10, EngineConfig::unsharded());
        sim.schedule(VirtualTime::ZERO, p(0), forged(15));
        assert!(sim.run_until_quiet(1_000_000));
        for i in 1..3 {
            let replica = sim.actor(p(i));
            assert_eq!(replica.pending_count(), 1, "replica {i}");
            for j in 0..3 {
                assert_eq!(replica.balance(a(j)), amt(10), "replica {i}, account {j}");
            }
        }
        // A funded transfer carrying the same forged dep applies.
        let mut sim = system(3, 10, EngineConfig::unsharded());
        sim.schedule(VirtualTime::ZERO, p(0), forged(5));
        assert!(sim.run_until_quiet(1_000_000));
        for i in 1..3 {
            let replica = sim.actor(p(i));
            assert_eq!(replica.pending_count(), 0, "replica {i}");
            assert_eq!(replica.balance(a(0)), amt(5), "replica {i}");
            assert_eq!(replica.balance(a(1)), amt(15), "replica {i}");
        }
    }

    /// Delivers `transfers` of source `q` to `replica` as one batch and
    /// returns the transfers it applied in response.
    fn deliver(replica: &mut ShardedReplica, q: u32, transfers: Vec<Transfer>) -> Vec<Transfer> {
        let items = transfers
            .into_iter()
            .map(|transfer| TransferMsg {
                transfer,
                deps: vec![],
            })
            .collect();
        let mut events = Vec::new();
        let mut ctx = Context::detached(VirtualTime::ZERO, replica.me(), 4, &mut events);
        replica.on_batch(p(q), Batch::new(items), &mut ctx);
        events
            .into_iter()
            .filter_map(|(_, _, e)| match e {
                EngineEvent::Applied { transfer } => Some(transfer),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn reverse_delivered_credit_chain_applies_on_the_last_delivery() {
        let mut replica = ShardedReplica::new(p(3), 4, amt(10), EngineConfig::unsharded());
        // p0 spends 15 (needs p1's credit), p1 spends 20 (needs p2's).
        let t0 = Transfer::new(a(0), a(3), amt(15), p(0), SeqNo::new(1));
        let t1 = Transfer::new(a(1), a(0), amt(20), p(1), SeqNo::new(1));
        let t2 = Transfer::new(a(2), a(1), amt(10), p(2), SeqNo::new(1));
        assert!(deliver(&mut replica, 0, vec![t0]).is_empty());
        assert!(deliver(&mut replica, 1, vec![t1]).is_empty());
        assert_eq!(replica.pending_count(), 2);
        assert_eq!(deliver(&mut replica, 2, vec![t2]), vec![t2, t1, t0]);
        assert_eq!(replica.pending_count(), 0);
        let balances: Vec<Amount> = (0..4).map(|j| replica.balance(a(j))).collect();
        assert_eq!(balances, vec![amt(15), amt(0), amt(0), amt(25)]);
    }

    #[test]
    fn deep_backlog_drains_when_its_credit_arrives() {
        let mut replica = ShardedReplica::new(p(3), 4, amt(1_000), EngineConfig::unsharded());
        // p0's seq 1 spends 1,001 of its 1,000; seqs 2..=1000 spend one
        // unit each and queue behind it.
        let backlog: Vec<Transfer> = (1..=1_000u64)
            .map(|s| {
                let amount = if s == 1 { 1_001 } else { 1 };
                Transfer::new(a(0), a(2), amt(amount), p(0), SeqNo::new(s))
            })
            .collect();
        assert!(deliver(&mut replica, 0, backlog).is_empty());
        assert_eq!(replica.pending_count(), 1_000);
        let credit = Transfer::new(a(1), a(0), amt(1_000), p(1), SeqNo::new(1));
        assert_eq!(deliver(&mut replica, 1, vec![credit]).len(), 1_001);
        assert_eq!(replica.pending_count(), 0);
        assert_eq!(replica.balance(a(0)), amt(0));
        assert_eq!(replica.balance(a(2)), amt(3_000));
        assert_eq!(replica.applied_from(p(0)).len(), 1_000);
    }

    #[test]
    fn pending_queue_is_bounded_per_source() {
        let mut sim = system(3, 10, EngineConfig::unsharded());
        // A Byzantine p0 floods one well-formed batch of 1100 overdrafts
        // (consecutive seqs, none can ever validate).
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let items = (1..=1_100u64)
                .map(|s| TransferMsg {
                    transfer: Transfer::new(a(0), a(1), amt(99), p(0), SeqNo::new(s)),
                    deps: vec![],
                })
                .collect();
            replica.broadcast_batch(Batch::new(items), ctx);
        });
        assert!(sim.run_until_quiet(10_000_000));
        for i in 1..3 {
            let replica = sim.actor(p(i));
            assert_eq!(
                replica.pending_count(),
                MAX_PENDING_PER_SOURCE,
                "replica {i}"
            );
            assert_eq!(
                replica.pending_overflow_dropped(),
                1_100 - MAX_PENDING_PER_SOURCE as u64,
                "replica {i}"
            );
            assert_eq!(replica.malformed_dropped(), 0, "overflow is not malformed");
            assert_eq!(
                replica.drop_diagnostics().count() as u64,
                replica.pending_overflow_dropped(),
                "each overflow leaves a diagnostic (under the ring cap)"
            );
            assert!(replica
                .drop_diagnostics()
                .all(|d| d.reason == DropReason::PendingOverflow && d.source == p(0)));
            assert_eq!(replica.balance(a(1)), amt(10));
        }
    }

    #[test]
    fn drop_diagnostics_ring_is_bounded() {
        let mut sim = system(3, 10, EngineConfig::unsharded());
        // 300 malformed items (claiming to debit someone else's account):
        // every one is dropped and diagnosed, but only the latest
        // MAX_DROP_DIAGNOSTICS survive in the ring.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            let items = (1..=300u64)
                .map(|s| TransferMsg {
                    transfer: Transfer::new(a(2), a(1), amt(1), p(0), SeqNo::new(s)),
                    deps: vec![],
                })
                .collect();
            replica.broadcast_batch(Batch::new(items), ctx);
        });
        assert!(sim.run_until_quiet(10_000_000));
        for i in 1..3 {
            let replica = sim.actor(p(i));
            assert_eq!(replica.malformed_dropped(), 300, "replica {i}");
            assert_eq!(replica.drop_diagnostics().count(), MAX_DROP_DIAGNOSTICS);
            assert_eq!(
                replica.diagnostics_dropped(),
                300 - MAX_DROP_DIAGNOSTICS as u64
            );
            // Evict-oldest: the survivors are the most recent seqs.
            let first = replica.drop_diagnostics().next().expect("non-empty ring");
            assert_eq!(first.seq.value(), 300 - MAX_DROP_DIAGNOSTICS as u64 + 1);
        }
    }

    #[test]
    fn snapshot_restores_a_cold_replica() {
        let mut sim = system(4, 100, EngineConfig::standard());
        for i in 0..4u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a((i + 1) % 4), amt(10 + u64::from(i)), ctx);
            });
        }
        assert!(sim.run_until_quiet(10_000_000));
        let snap = sim.actor(p(0)).snapshot();
        assert!(snap.verify());
        assert_eq!(snap.frontier, vec![SeqNo::new(1); 4]);

        let restored: ShardedReplica = ShardedReplica::from_snapshot(
            p(0),
            4,
            EngineConfig::standard(),
            BrachaBroadcast::new(p(0), 4),
            &snap,
        );
        assert_eq!(restored.digest(), sim.actor(p(0)).digest());
        for j in 0..4 {
            assert_eq!(restored.balance(a(j)), sim.actor(p(0)).balance(a(j)));
        }
        // The restored replica's own stream continues past the frontier.
        let mut restored = restored;
        let mut events = Vec::new();
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        restored.submit(a(1), amt(1), &mut ctx);
        let submitted = events
            .iter()
            .find_map(|(_, _, e)| match e {
                EngineEvent::Submitted { transfer } => Some(*transfer),
                _ => None,
            })
            .expect("admission succeeded from snapshot balances");
        assert_eq!(submitted.seq, SeqNo::new(2), "resumes after the frontier");
    }

    #[test]
    fn pruning_behind_the_frontier_keeps_replicas_converging() {
        let mut sim = system(4, 100, EngineConfig::standard());
        // Wave 1 establishes applied history.
        for i in 0..4u32 {
            sim.schedule(VirtualTime::ZERO, p(i), move |replica, ctx| {
                replica.submit(a((i + 1) % 4), amt(10), ctx);
            });
        }
        assert!(sim.run_until_quiet(10_000_000));
        // Every replica prunes at its own frontier (all converged, so
        // the frontiers agree and the prune is quorum-safe).
        for i in 0..4u32 {
            sim.schedule(sim.now(), p(i), |replica, _ctx| {
                let frontier = replica.stability_frontier();
                let pruned = replica.prune_through(&frontier);
                assert!(pruned > 0, "applied history must shrink");
                assert_eq!(replica.applied_from(p(0)).len(), 0);
            });
        }
        // Wave 2 spends wave-1 credits: validation reads balances, which
        // pruning the applied history behind the frontier leaves intact.
        for i in 0..4u32 {
            sim.schedule(sim.now(), p(i), move |replica, ctx| {
                replica.submit(a((i + 2) % 4), amt(15), ctx);
            });
        }
        assert!(sim.run_until_quiet(20_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 8, "both waves complete everywhere");
        let digest = sim.actor(p(0)).digest();
        for i in 1..4 {
            assert_eq!(sim.actor(p(i)).digest(), digest, "replica {i}");
        }
        let total: Amount = (0..4).map(|j| sim.actor(p(0)).balance(a(j))).sum();
        assert_eq!(total, amt(400));
        assert!(sim.actor(p(0)).pruned_total() > 0);
    }

    #[test]
    fn more_accounts_than_processes() {
        let config = EngineConfig::standard().with_accounts(16);
        let replicas: Vec<ShardedReplica> = (0..3u32)
            .map(|i| ShardedReplica::new(p(i), 3, amt(50), config))
            .collect();
        let mut sim = Simulation::new(replicas, NetConfig::lan(3));
        // Transfers into accounts beyond the process range work; the
        // snapshot covers all 16.
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(11), amt(7), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        assert_eq!(completed(&sim.take_events()).len(), 1);
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).balance(a(11)), amt(57));
        }
        let snap = sim.actor(p(0)).snapshot();
        assert_eq!(snap.account_count(), 16);
        assert!(snap.verify());
    }

    #[test]
    fn transfer_completes_on_every_backend() {
        use at_broadcast::auth::NoAuth;
        use at_broadcast::echo::EchoBroadcast;
        use at_broadcast::secure::AccountOrderBackend;

        fn run_one<B, F>(make: F) -> u64
        where
            B: SecureBroadcast<EnginePayload> + 'static,
            F: Fn(ProcessId) -> B,
        {
            let n = 4;
            let config = EngineConfig::unsharded();
            let replicas: Vec<ShardedReplica<B>> = (0..n as u32)
                .map(|i| ShardedReplica::with_backend(p(i), n, amt(100), config, make(p(i))))
                .collect();
            let mut sim = Simulation::new(replicas, NetConfig::lan(3));
            sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
                replica.submit(a(1), amt(25), ctx);
            });
            assert!(sim.run_until_quiet(1_000_000));
            assert_eq!(completed(&sim.take_events()).len(), 1);
            for i in 0..4 {
                assert_eq!(sim.actor(p(i)).balance(a(0)), amt(75));
                assert_eq!(sim.actor(p(i)).balance(a(1)), amt(125));
                assert_eq!(sim.actor(p(i)).backend().delivered_count(), 1);
            }
            sim.actor(p(0)).digest()
        }

        let bracha = run_one(|me| BrachaBroadcast::new(me, 4));
        let echo = run_one(|me| EchoBroadcast::new(me, 4, NoAuth));
        let account = run_one(|me| AccountOrderBackend::new(me, 4, NoAuth));
        assert_eq!(bracha, echo);
        assert_eq!(bracha, account);
    }

    #[test]
    fn sig_cost_stretches_virtual_time_on_signed_backends() {
        use at_broadcast::auth::NoAuth;
        use at_broadcast::echo::EchoBroadcast;

        fn run_one(sig_cost_us: u64) -> VirtualTime {
            let n = 4;
            let config = EngineConfig::unsharded().with_sig_cost_us(sig_cost_us);
            let replicas: Vec<ShardedReplica<EchoBroadcast<EnginePayload, NoAuth>>> = (0..n as u32)
                .map(|i| {
                    ShardedReplica::with_backend(
                        p(i),
                        n,
                        amt(100),
                        config,
                        EchoBroadcast::new(p(i), n, NoAuth),
                    )
                })
                .collect();
            let mut sim = Simulation::new(replicas, NetConfig::lan(3));
            sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
                replica.submit(a(1), amt(5), ctx);
            });
            assert!(sim.run_until_quiet(1_000_000));
            assert_eq!(completed(&sim.take_events()).len(), 1);
            sim.now()
        }

        let free = run_one(0);
        let costly = run_one(400);
        assert!(
            costly > free,
            "modelled signature CPU must stretch the run: {costly:?} vs {free:?}"
        );
    }

    /// Regression (found wiring the real event loop in at-node): an
    /// armed flush window is replica state, but the timer itself lives
    /// in the runtime — a warm restart loses it, and without recovery
    /// the accumulating batch would be stranded forever (`flush_armed`
    /// stays true, so submissions never re-arm). `flush_pending` is the
    /// recovery hook; driven here exactly the way a real runtime drives
    /// it, through a detached context.
    #[test]
    fn flush_pending_recovers_a_lost_window_timer() {
        let config = EngineConfig::sharded_batched(2, 8, VirtualTime::from_millis(1));
        let mut replica = ShardedReplica::new(p(0), 4, amt(100), config);
        let mut events = Vec::new();
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        replica.submit(a(1), amt(5), &mut ctx);
        let outputs = ctx.into_outputs();
        // The submission armed the window: nothing broadcast yet.
        assert!(outputs.outbox.is_empty());
        assert_eq!(outputs.timers.len(), 1);
        assert!(!events
            .iter()
            .any(|(_, _, e)| matches!(e, EngineEvent::BatchBroadcast { .. })));

        // The runtime restarts: the armed timer is gone. Recovery must
        // flush the stranded batch.
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        replica.flush_pending(&mut ctx);
        let outputs = ctx.into_outputs();
        assert!(!outputs.outbox.is_empty(), "stranded batch never flushed");
        assert!(events
            .iter()
            .any(|(_, _, e)| matches!(e, EngineEvent::BatchBroadcast { size: 1 })));

        // And the latch is clear: the next submission arms a fresh
        // window instead of relying on the dead timer.
        let mut ctx = Context::detached(VirtualTime::ZERO, p(0), 4, &mut events);
        replica.submit(a(2), amt(5), &mut ctx);
        let outputs = ctx.into_outputs();
        assert_eq!(
            outputs.timers.len(),
            1,
            "window not re-armed after recovery"
        );
    }

    #[test]
    #[should_panic(expected = "use with_backend")]
    fn new_rejects_non_bracha_backend_selection() {
        use crate::config::BroadcastBackend;
        let config = EngineConfig::unsharded().with_backend(BroadcastBackend::signed_echo());
        let _ = ShardedReplica::new(p(0), 3, amt(10), config);
    }

    #[test]
    fn transfer_completes_over_bracha() {
        let mut sim = system(4, 100, EngineConfig::unsharded());
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(25), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].amount, amt(25));
        // One broadcast instance per transfer: n SENDs, n² ECHOs, n² READYs.
        assert_eq!(sim.stats().messages_sent, 4 + 2 * 16);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(75), "replica {i}");
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(125), "replica {i}");
        }
    }

    #[test]
    fn transfer_completes_over_echo() {
        use at_broadcast::auth::NoAuth;
        use at_broadcast::echo::EchoBroadcast;

        let n = 4;
        let replicas: Vec<ShardedReplica<EchoBroadcast<EnginePayload, NoAuth>>> = (0..n as u32)
            .map(|i| {
                let backend = EchoBroadcast::new(p(i), n, NoAuth);
                ShardedReplica::with_backend(p(i), n, amt(50), EngineConfig::unsharded(), backend)
            })
            .collect();
        let mut sim = Simulation::new(replicas, NetConfig::lan(6));
        sim.schedule(VirtualTime::ZERO, p(2), |replica, ctx| {
            replica.submit(a(0), amt(10), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        assert_eq!(completed(&sim.take_events()).len(), 1);
        for i in 0..n as u32 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(60));
        }
    }

    #[test]
    fn insufficient_balance_rejected_without_network_traffic() {
        let mut sim = system(4, 10, EngineConfig::unsharded());
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(11), ctx);
        });
        assert!(sim.run_until_quiet(1_000));
        let events = sim.take_events();
        assert!(matches!(
            events[0].2,
            EngineEvent::Rejected { amount, .. } if amount == amt(11)
        ));
        assert_eq!(sim.stats().messages_sent, 0);
    }

    #[test]
    fn causal_chain_across_processes() {
        let mut sim = system(4, 10, EngineConfig::unsharded());
        // p0 pays p1 everything; later p1 spends 15 (needs the incoming).
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(10), ctx);
        });
        sim.schedule(VirtualTime::from_millis(50), p(1), |replica, ctx| {
            replica.submit(a(2), amt(15), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        let done = completed(&sim.take_events());
        assert_eq!(done.len(), 2);
        for i in 0..4 {
            assert_eq!(sim.actor(p(i)).balance(a(0)), amt(0));
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(5));
            assert_eq!(sim.actor(p(i)).balance(a(2)), amt(25));
        }
    }

    #[test]
    fn concurrent_transfers_conserve_supply() {
        let n = 7;
        let mut sim = system(n, 100, EngineConfig::unsharded());
        for i in 0..n as u32 {
            for round in 0..3u64 {
                let dest = a((i + 1) % n as u32);
                let amount = amt(7 + round);
                sim.schedule(
                    VirtualTime::from_millis(round),
                    p(i),
                    move |replica, ctx| {
                        replica.submit(dest, amount, ctx);
                    },
                );
            }
        }
        assert!(sim.run_until_quiet(10_000_000));
        assert_eq!(completed(&sim.take_events()).len(), n * 3);
        for i in 0..n as u32 {
            let total: Amount = (0..n as u32).map(|j| sim.actor(p(i)).balance(a(j))).sum();
            assert_eq!(total, amt(100 * n as u64), "replica {i}");
        }
    }

    #[test]
    fn crashed_process_does_not_block_others() {
        let mut sim = system(4, 100, EngineConfig::unsharded());
        sim.crash(p(3));
        sim.schedule(VirtualTime::ZERO, p(0), |replica, ctx| {
            replica.submit(a(1), amt(5), ctx);
        });
        assert!(sim.run_until_quiet(1_000_000));
        assert_eq!(completed(&sim.take_events()).len(), 1);
        for i in 0..3 {
            assert_eq!(sim.actor(p(i)).balance(a(1)), amt(105));
        }
    }

    #[test]
    fn sequential_transfers_from_one_owner() {
        let mut sim = system(4, 100, EngineConfig::unsharded());
        for round in 0..5u64 {
            sim.schedule(
                VirtualTime::from_millis(round * 20),
                p(0),
                move |replica, ctx| {
                    replica.submit(a(1), amt(10), ctx);
                },
            );
        }
        assert!(sim.run_until_quiet(10_000_000));
        let done = completed(&sim.take_events());
        let seqs: Vec<u64> = done.iter().map(|t| t.seq.value()).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.actor(p(2)).balance(a(0)), amt(50));
    }

    #[test]
    fn state_accessor_and_debug() {
        let replica = ShardedReplica::new(p(0), 3, amt(10), EngineConfig::unsharded());
        assert_eq!(replica.balance(a(2)), amt(10));
        assert_eq!(replica.pending_count(), 0);
        assert_eq!(replica.backend().delivered_count(), 0);
        assert_eq!(replica.stability_frontier(), vec![SeqNo::ZERO; 3]);
        let rendered = format!("{replica:?}");
        assert!(rendered.contains("me=p0") && rendered.contains("shards=1"));
    }

    /// SplitMix64: the deterministic coin of the differential test.
    struct Coin(u64);

    impl Coin {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// Per-source streams of honest `TransferMsg`s, built by `n`
    /// sequential Figure 4 clients that submit (with `deps`) and deliver
    /// one another's messages in a random FIFO order. Amounts are drawn
    /// up to the full balance, so exact-balance and credit-funded
    /// transfers are common.
    fn honest_streams(
        n: usize,
        initial: u64,
        per_source: usize,
        coin: &mut Coin,
    ) -> Vec<Vec<TransferMsg>> {
        let mut clients: Vec<TransferState> = (0..n as u32)
            .map(|i| TransferState::new(p(i), n, amt(initial)))
            .collect();
        let mut streams: Vec<Vec<TransferMsg>> = vec![Vec::new(); n];
        // delivered[i][j]: how much of stream j client i has delivered.
        let mut delivered = vec![vec![0usize; n]; n];
        let mut outstanding = vec![false; n];
        for _ in 0..n * per_source * (n + 2) * 2 {
            let i = coin.below(n);
            if !outstanding[i] && streams[i].len() < per_source && coin.below(2) == 0 {
                let balance = clients[i].read(a(i as u32)).units();
                if balance > 0 {
                    let dest = a(((i + 1 + coin.below(n - 1)) % n) as u32);
                    let amount = 1 + coin.below(balance as usize) as u64;
                    let amount = if coin.below(3) == 0 { balance } else { amount };
                    let msg = clients[i].submit(dest, amt(amount)).expect("funded");
                    streams[i].push(msg);
                    outstanding[i] = true;
                }
                continue;
            }
            let j = coin.below(n);
            if let Some(msg) = streams[j].get(delivered[i][j]).cloned() {
                delivered[i][j] += 1;
                let applied = clients[i].on_deliver(p(j as u32), msg);
                if applied
                    .iter()
                    .any(|e| matches!(e, Applied::OwnCompleted(_)))
                {
                    outstanding[i] = false;
                }
            }
        }
        streams
    }

    /// Figure 4 (`at_core::figure4::TransferState`) is the reference
    /// oracle for the replica's validation. Over random per-source-FIFO
    /// interleavings of honest streams, deviation 1 of the module
    /// contract must hold: after every delivery the replica, which
    /// ignores `deps`, has applied at least what Figure 4 applied, and at
    /// quiescence both applied the same transfers, each source's in
    /// sequence order, leaving the same balances.
    #[test]
    fn figure4_oracle_agrees_on_random_fifo_interleavings() {
        let initial = 10;
        for seed in 0..200u64 {
            let n = 2 + (seed % 4) as usize;
            let mut coin = Coin(seed);
            let streams = honest_streams(n, initial, 6, &mut coin);
            let observer = p((seed % n as u64) as u32);
            let mut oracle = TransferState::new(observer, n, amt(initial));
            let mut replica =
                ShardedReplica::new(observer, n, amt(initial), EngineConfig::unsharded());
            let mut next = vec![0usize; n];
            let mut oracle_order: Vec<Vec<u64>> = vec![Vec::new(); n];
            let mut replica_order: Vec<Vec<u64>> = vec![Vec::new(); n];
            let replica_applied = |replica: &ShardedReplica| -> BTreeSet<Transfer> {
                (0..n as u32)
                    .flat_map(|q| replica.applied_from(p(q)).values().copied())
                    .collect()
            };
            let oracle_applied = |oracle: &TransferState| -> BTreeSet<Transfer> {
                (0..n as u32)
                    .flat_map(|acct| oracle.history(a(acct)).copied().collect::<Vec<_>>())
                    .collect()
            };
            loop {
                let live: Vec<usize> = (0..n).filter(|&q| next[q] < streams[q].len()).collect();
                if live.is_empty() {
                    break;
                }
                let q = live[coin.below(live.len())];
                let msg = streams[q][next[q]].clone();
                next[q] += 1;
                let source = p(q as u32);
                for applied in oracle.on_deliver(source, msg.clone()) {
                    if let Applied::Transfer(t) = applied {
                        oracle_order[t.originator.as_usize()].push(t.seq.value());
                    }
                }
                let mut events = Vec::new();
                let mut ctx = Context::detached(VirtualTime::ZERO, observer, n, &mut events);
                replica.on_batch(source, Batch::single(msg), &mut ctx);
                for (_, _, event) in events {
                    if let EngineEvent::Applied { transfer: t } = event {
                        replica_order[t.originator.as_usize()].push(t.seq.value());
                    }
                }
                assert!(
                    oracle_applied(&oracle).is_subset(&replica_applied(&replica)),
                    "seed {seed}: the replica lags Figure 4 after delivering {source}#{}",
                    next[q]
                );
            }

            let everything: BTreeSet<Transfer> =
                streams.iter().flatten().map(|msg| msg.transfer).collect();
            assert_eq!(oracle_applied(&oracle), everything, "seed {seed}");
            assert_eq!(replica_applied(&replica), everything, "seed {seed}");
            for q in 0..n {
                let in_order: Vec<u64> = (1..=streams[q].len() as u64).collect();
                assert_eq!(oracle_order[q], in_order, "seed {seed}: oracle, source {q}");
                assert_eq!(
                    replica_order[q], in_order,
                    "seed {seed}: replica, source {q}"
                );
            }
            for acct in 0..n as u32 {
                assert_eq!(
                    replica.balance(a(acct)),
                    oracle.observed_balance(a(acct)),
                    "seed {seed}: account {acct}"
                );
            }
        }
    }

    #[test]
    fn accessors_render() {
        let replica = ShardedReplica::new(p(0), 3, amt(10), EngineConfig::standard());
        assert_eq!(replica.me(), p(0));
        assert_eq!(replica.my_account(), a(0));
        assert_eq!(replica.available(), amt(10));
        assert_eq!(replica.applied_from(p(1)).len(), 0);
        assert_eq!(replica.ledger().shard_count(), 4);
        assert_eq!(replica.shard_stats(0).debits, 0);
        assert!(format!("{replica:?}").contains("shards=4"));
    }
}
