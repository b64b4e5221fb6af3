//! Signed-echo secure broadcast (Malkhi–Reiter 1997, references [35, 36]
//! of the paper).
//!
//! The sender transmits its signed payload; receivers acknowledge with a
//! signed echo *to the sender only*; once the sender collects a quorum of
//! `⌈(n+f+1)/2⌉` echoes it sends the payload together with the quorum
//! certificate to all, and everyone delivers after verifying the
//! certificate. Two round trips and `O(n)` messages on the sender path
//! (plus an `O(n²)` certificate-forwarding step that guarantees totality
//! when the sender is Byzantine — disable with
//! [`EchoBroadcast::set_forward_final`] for the ablation study A1).
//!
//! A benign process echoes at most one payload per `(source, seq)`, so two
//! conflicting payloads can never both obtain certificates: this is the
//! *consistency* that prevents equivocation — and, one level up, double
//! spending.

use crate::auth::{Authenticator, BatchVerifyItem};
use crate::secure::TraceExtract;
use crate::types::{CryptoOps, SourceOrderBuffer, Step};
use at_model::codec::{encode, Writer};
use at_model::{Encode, ProcessId, SeqNo};
use at_obs::{TraceCtx, TraceEventKind, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Wire messages of the signed-echo broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum EchoMsg<P, S> {
    /// The sender's signed payload.
    Send {
        /// Sender's sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// Sender's signature over `(source, seq, payload)`.
        sig: S,
    },
    /// A receiver's signed acknowledgement, sent back to the source.
    Echo {
        /// The instance source.
        source: ProcessId,
        /// The instance sequence number.
        seq: SeqNo,
        /// The payload digest being acknowledged.
        digest: [u8; 32],
        /// The echoer's signature share.
        share: S,
    },
    /// The payload plus its echo-quorum certificate.
    Final {
        /// The instance source.
        source: ProcessId,
        /// The instance sequence number.
        seq: SeqNo,
        /// The payload.
        payload: P,
        /// Sender's original signature.
        sig: S,
        /// `(echoer, share)` pairs forming the quorum certificate.
        certificate: Vec<(ProcessId, S)>,
    },
}

struct SendState<S> {
    digest: [u8; 32],
    shares: BTreeMap<ProcessId, S>,
    finalized: bool,
}

/// One process's endpoint of the signed-echo broadcast.
pub struct EchoBroadcast<P, A: Authenticator> {
    me: ProcessId,
    n: usize,
    f: usize,
    auth: A,
    next_seq: SeqNo,
    /// Sender-side state for our own broadcasts.
    sending: HashMap<SeqNo, (P, SendState<A::Sig>)>,
    /// Sender-side state for the *second* payload of a split broadcast
    /// ([`EchoBroadcast::broadcast_split`]): the strongest attacker
    /// collects shares for both sides and would certify either the moment
    /// a quorum formed. With the correct quorum `⌈(n+f+1)/2⌉` this state
    /// never finalizes (quorum intersection), so keeping it live makes
    /// the tests exercise the defense — and makes a broken quorum
    /// (`broken` feature) actually observable as a double certificate.
    split_shadow: HashMap<SeqNo, (P, SendState<A::Sig>)>,
    /// Receiver-side: the digest we echoed per instance (one per
    /// instance — the anti-equivocation rule).
    echoed: HashMap<(ProcessId, SeqNo), [u8; 32]>,
    /// Instances already delivered (to forward and dedup).
    delivered: HashMap<(ProcessId, SeqNo), ()>,
    /// Monotone count of deliveries — survives pruning, unlike
    /// `delivered.len()`.
    delivered_total: usize,
    order: SourceOrderBuffer<P>,
    forward_final: bool,
    ops: CryptoOps,
    tracer: Option<(Tracer, TraceExtract<P>)>,
    /// Mutation-testing hook: overrides [`EchoBroadcast::quorum`].
    #[cfg(feature = "broken")]
    quorum_override: Option<usize>,
}

impl<P: Clone + Encode, A: Authenticator> EchoBroadcast<P, A> {
    /// Creates the endpoint for process `me` of `n`, using `auth` for
    /// signatures; tolerates `f = ⌊(n−1)/3⌋` Byzantine processes.
    pub fn new(me: ProcessId, n: usize, auth: A) -> Self {
        assert!(n >= 1, "at least one process");
        EchoBroadcast {
            me,
            n,
            f: (n - 1) / 3,
            auth,
            next_seq: SeqNo::ZERO,
            sending: HashMap::new(),
            split_shadow: HashMap::new(),
            echoed: HashMap::new(),
            delivered: HashMap::new(),
            delivered_total: 0,
            order: SourceOrderBuffer::new(),
            forward_final: true,
            ops: CryptoOps::default(),
            tracer: None,
            #[cfg(feature = "broken")]
            quorum_override: None,
        }
    }

    /// The fault threshold `f`.
    pub fn fault_threshold(&self) -> usize {
        self.f
    }

    /// Number of broadcast instances with local protocol state (one entry
    /// per `(source, seq)` this endpoint echoed).
    pub fn instance_count(&self) -> usize {
        self.echoed.len()
    }

    /// Cumulative signature operations performed by this endpoint.
    pub fn crypto_ops(&self) -> CryptoOps {
        self.ops
    }

    /// Enables/disables certificate forwarding on delivery (totality for
    /// Byzantine senders). On by default.
    pub fn set_forward_final(&mut self, forward: bool) {
        self.forward_final = forward;
    }

    /// Routes causal trace events into `tracer` for payloads `extract`
    /// maps to a [`TraceCtx`]. Untraced payloads cost one extractor call
    /// per protocol step and nothing else.
    pub fn set_tracer(&mut self, tracer: Tracer, extract: fn(&P) -> Option<TraceCtx>) {
        self.tracer = Some((tracer, extract));
    }

    /// The tracer handle and the payload's context, hop-adjusted: a
    /// message from another process arrives one causal hop later.
    fn trace_ctx(&self, payload: &P, from: ProcessId) -> Option<(&Tracer, TraceCtx)> {
        let (tracer, extract) = self.tracer.as_ref()?;
        let ctx = extract(payload)?;
        let ctx = if from != self.me { ctx.hopped() } else { ctx };
        Some((tracer, ctx))
    }

    fn trace(&self, payload: &P, from: ProcessId, kind: TraceEventKind, arg: u64) {
        if let Some((tracer, ctx)) = self.trace_ctx(payload, from) {
            tracer.record(ctx, kind, arg);
        }
    }

    /// The echo quorum `⌈(n+f+1)/2⌉`.
    pub fn quorum(&self) -> usize {
        #[cfg(feature = "broken")]
        if let Some(quorum) = self.quorum_override {
            return quorum;
        }
        (self.n + self.f) / 2 + 1
    }

    /// **Mutation-testing hook** (`broken` feature only): replaces the
    /// echo quorum with `quorum` on this endpoint — both for forming
    /// certificates as a sender and for accepting them as a receiver. An
    /// off-by-one below `⌈(n+f+1)/2⌉` breaks quorum intersection, which
    /// lets an equivocating sender certify *both* sides of a split
    /// broadcast; whether correct replicas then diverge depends on the
    /// delivery schedule — exactly the class of bug the `at-check`
    /// explorer exists to catch, and the seeded mutation CI requires it
    /// to keep catching.
    #[cfg(feature = "broken")]
    pub fn set_quorum_override(&mut self, quorum: usize) {
        self.quorum_override = Some(quorum);
    }

    /// Starts broadcasting `payload`; returns the sequence number used.
    pub fn broadcast(&mut self, payload: P, step: &mut Step<EchoMsg<P, A::Sig>, P>) -> SeqNo {
        self.next_seq = self.next_seq.next();
        let seq = self.next_seq;
        let digest = payload_digest(&payload);
        self.ops.signs += 1;
        let sig = self.auth.sign(self.me, &send_bytes(self.me, seq, digest));
        self.sending.insert(
            seq,
            (
                payload.clone(),
                SendState {
                    digest,
                    shares: BTreeMap::new(),
                    finalized: false,
                },
            ),
        );
        self.trace(&payload, self.me, TraceEventKind::Send, self.n as u64);
        step.send_all(self.n, EchoMsg::Send { seq, payload, sig });
        seq
    }

    /// *Byzantine harness only*: signs and sends conflicting `SEND`s for
    /// one instance — `left` to the lower half of the system, `right` to
    /// the upper half. The attacker owns its key, so both signatures are
    /// genuine, and it keeps live sender-side state for the instance: if
    /// either digest ever reached the echo quorum, the attacker *would*
    /// assemble and broadcast a certificate. The anti-equivocation rule
    /// (a benign process echoes one digest per instance) is therefore
    /// what actually denies the quorum — tests on this path exercise the
    /// defense, not a dead sender.
    pub fn broadcast_split(
        &mut self,
        left: P,
        right: P,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) -> SeqNo {
        self.next_seq = self.next_seq.next();
        let seq = self.next_seq;
        let left_digest = payload_digest(&left);
        self.ops.signs += 2;
        let left_sig = self
            .auth
            .sign(self.me, &send_bytes(self.me, seq, left_digest));
        let right_sig = self
            .auth
            .sign(self.me, &send_bytes(self.me, seq, payload_digest(&right)));
        // Collect echo shares for *both* payloads: the strongest attacker
        // would certify whichever side ever reached a quorum. With the
        // correct quorum ⌈(n+f+1)/2⌉ neither can (each half of the system
        // is below it, and any two quorums intersect in a benign
        // process), so this state is inert — unless the quorum itself is
        // broken, which is what the mutation tests seed.
        self.sending.insert(
            seq,
            (
                left.clone(),
                SendState {
                    digest: left_digest,
                    shares: BTreeMap::new(),
                    finalized: false,
                },
            ),
        );
        self.split_shadow.insert(
            seq,
            (
                right.clone(),
                SendState {
                    digest: payload_digest(&right),
                    shares: BTreeMap::new(),
                    finalized: false,
                },
            ),
        );
        for i in 0..self.n {
            let (payload, sig) = if i < self.n / 2 {
                (left.clone(), left_sig.clone())
            } else {
                (right.clone(), right_sig.clone())
            };
            step.send(
                ProcessId::new(i as u32),
                EchoMsg::Send { seq, payload, sig },
            );
        }
        seq
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: EchoMsg<P, A::Sig>,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) {
        match msg {
            EchoMsg::Send { seq, payload, sig } => self.on_send(from, seq, payload, sig, step),
            EchoMsg::Echo {
                source,
                seq,
                digest,
                share,
            } => self.on_echo(from, source, seq, digest, share, step),
            EchoMsg::Final {
                source,
                seq,
                payload,
                sig,
                certificate,
            } => self.on_final(source, seq, payload, sig, certificate, step),
        }
    }

    fn on_send(
        &mut self,
        from: ProcessId,
        seq: SeqNo,
        payload: P,
        sig: A::Sig,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) {
        if self.is_stale(from, seq) {
            return; // instance already released and pruned
        }
        let digest = payload_digest(&payload);
        self.ops.verifies += 1;
        if !self.auth.verify(from, &send_bytes(from, seq, digest), &sig) {
            return; // forged SEND
        }
        // Echo at most one digest per instance: the anti-equivocation rule.
        let entry = self.echoed.entry((from, seq));
        let previously = match &entry {
            std::collections::hash_map::Entry::Occupied(o) => Some(*o.get()),
            std::collections::hash_map::Entry::Vacant(_) => None,
        };
        match previously {
            Some(echoed) if echoed != digest => return, // equivocation: stay silent
            Some(_) => {} // duplicate SEND: re-echo (idempotent for the sender)
            None => {
                entry.or_insert(digest);
            }
        }
        self.ops.signs += 1;
        let share = self.auth.sign(self.me, &echo_bytes(from, seq, digest));
        self.trace(&payload, from, TraceEventKind::Echo, seq.value());
        step.send(
            from,
            EchoMsg::Echo {
                source: from,
                seq,
                digest,
                share,
            },
        );
    }

    fn on_echo(
        &mut self,
        from: ProcessId,
        source: ProcessId,
        seq: SeqNo,
        digest: [u8; 32],
        share: A::Sig,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) {
        if source != self.me {
            return; // echoes are addressed to the instance's sender
        }
        // The share may be for our primary payload or, after a split
        // broadcast, for the shadow side — each accumulates separately.
        // Resolve the slot before verifying, so a share that could not
        // be inserted (unknown or finished instance, certificate already
        // formed, signer already counted) costs no signature check.
        let primary_matches = self
            .sending
            .get(&seq)
            .is_some_and(|(_, state)| state.digest == digest);
        let slots = if primary_matches {
            &self.sending
        } else {
            &self.split_shadow
        };
        let wanted = slots.get(&seq).is_some_and(|(_, state)| {
            state.digest == digest && !state.finalized && !state.shares.contains_key(&from)
        });
        if !wanted {
            return;
        }
        self.ops.verifies += 1;
        if !self
            .auth
            .verify(from, &echo_bytes(source, seq, digest), &share)
        {
            return; // invalid share
        }
        let quorum = self.quorum();
        let n = self.n;
        let me = self.me;
        let slots = if primary_matches {
            &mut self.sending
        } else {
            &mut self.split_shadow
        };
        let (payload, state) = slots.get_mut(&seq).expect("slot resolved above");
        state.shares.insert(from, share);
        if state.shares.len() < quorum {
            return;
        }
        state.finalized = true;
        let certificate: Vec<(ProcessId, A::Sig)> = state
            .shares
            .iter()
            .map(|(process, sig)| (*process, sig.clone()))
            .collect();
        let payload = payload.clone();
        self.ops.signs += 1;
        let sig = self.auth.sign(me, &send_bytes(me, seq, digest));
        self.trace(
            &payload,
            me,
            TraceEventKind::Ready,
            certificate.len() as u64,
        );
        step.send_all(
            n,
            EchoMsg::Final {
                source: me,
                seq,
                payload,
                sig,
                certificate,
            },
        );
    }

    fn on_final(
        &mut self,
        source: ProcessId,
        seq: SeqNo,
        payload: P,
        sig: A::Sig,
        certificate: Vec<(ProcessId, A::Sig)>,
        step: &mut Step<EchoMsg<P, A::Sig>, P>,
    ) {
        if self.is_stale(source, seq) || self.delivered.contains_key(&(source, seq)) {
            return; // already delivered (possibly pruned since)
        }
        let digest = payload_digest(&payload);
        self.ops.verifies += 1;
        if !self
            .auth
            .verify(source, &send_bytes(source, seq, digest), &sig)
        {
            return;
        }
        // Validate the certificate: distinct signers, valid shares,
        // quorum. Every share signs the same echo bytes; `verify_batch`
        // checks them and names exactly the bad ones.
        let echo = echo_bytes(source, seq, digest);
        let items: Vec<BatchVerifyItem<'_, A::Sig>> = certificate
            .iter()
            .map(|(signer, share)| BatchVerifyItem {
                signer: *signer,
                bytes: &echo,
                sig: share,
            })
            .collect();
        self.ops.verifies += certificate.len() as u64;
        let span = self
            .trace_ctx(&payload, source)
            .map(|(tracer, ctx)| (tracer.clone(), ctx));
        if let Some((tracer, ctx)) = &span {
            tracer.record(*ctx, TraceEventKind::VerifyStart, items.len() as u64);
        }
        let mut signers = BTreeMap::new();
        match self.auth.verify_batch(&items) {
            Ok(()) => {
                for (signer, _) in &certificate {
                    signers.insert(*signer, ());
                }
            }
            Err(bad) => {
                for (index, (signer, _)) in certificate.iter().enumerate() {
                    if bad.binary_search(&index).is_err() {
                        signers.insert(*signer, ());
                    }
                }
            }
        }
        if let Some((tracer, ctx)) = &span {
            tracer.record(*ctx, TraceEventKind::VerifyEnd, signers.len() as u64);
        }
        if signers.len() < self.quorum() {
            return;
        }
        self.delivered.insert((source, seq), ());
        self.delivered_total += 1;
        if self.forward_final {
            step.send_all(
                self.n,
                EchoMsg::Final {
                    source,
                    seq,
                    payload: payload.clone(),
                    sig,
                    certificate,
                },
            );
        }
        for (released_seq, released) in self.order.offer(source, seq, payload) {
            self.trace(
                &released,
                source,
                TraceEventKind::Deliver,
                released_seq.value(),
            );
            step.deliver(source, released_seq, released);
        }
    }

    /// Number of instances delivered so far (monotone across pruning).
    pub fn delivered_count(&self) -> usize {
        self.delivered_total
    }

    /// Whether `(source, seq)` is behind the source's release floor —
    /// i.e. the instance was already handed up in order, so any echo or
    /// dedup state for it may have been pruned and any message for it is
    /// a replay.
    fn is_stale(&self, source: ProcessId, seq: SeqNo) -> bool {
        seq.value() < self.order.expected(source).value()
    }

    /// Drops per-instance state (echoed digests, delivery dedup entries,
    /// finalized sender state) for instances already released by the
    /// source-order buffer. Returns the number of instances pruned.
    /// Late `FINAL`s for a pruned instance are rejected by the release
    /// floor, so delivery stays irrevocable and exactly-once.
    pub fn prune_delivered(&mut self) -> usize {
        let order = &self.order;
        let before = self.echoed.len();
        self.echoed
            .retain(|(source, seq), _| seq.value() >= order.expected(*source).value());
        self.delivered
            .retain(|(source, seq), _| seq.value() >= order.expected(*source).value());
        let own_floor = order.expected(self.me).value();
        self.sending
            .retain(|seq, (_, state)| !(state.finalized && seq.value() < own_floor));
        self.split_shadow.retain(|seq, _| seq.value() >= own_floor);
        before - self.echoed.len()
    }

    /// Raises the delivery floor for `source` so instances `≤ floor` are
    /// treated as already delivered and the stream resumes gaplessly at
    /// `floor + 1`. When `source` is this endpoint, also fast-forwards
    /// its own next sequence number. Used by cold-started replicas
    /// bootstrapping from a snapshot.
    pub fn set_delivery_floor(&mut self, source: ProcessId, floor: SeqNo) {
        self.order.advance(source, floor);
        if source == self.me && floor.value() > self.next_seq.value() {
            self.next_seq = floor;
        }
        self.echoed
            .retain(|(s, seq), _| !(*s == source && seq.value() <= floor.value()));
        self.delivered
            .retain(|(s, seq), _| !(*s == source && seq.value() <= floor.value()));
        if source == self.me {
            self.sending.retain(|seq, _| seq.value() > floor.value());
            self.split_shadow
                .retain(|seq, _| seq.value() > floor.value());
        }
    }
}

impl<P: Clone + Encode, A: Authenticator> fmt::Debug for EchoBroadcast<P, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EchoBroadcast(me={}, n={}, f={}, delivered={})",
            self.me, self.n, self.f, self.delivered_total
        )
    }
}

fn payload_digest<P: Encode>(payload: &P) -> [u8; 32] {
    at_crypto::Sha256::digest(&encode(payload))
}

/// Domain-separated bytes the sender signs.
fn send_bytes(source: ProcessId, seq: SeqNo, digest: [u8; 32]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(b'S');
    source.encode(&mut w);
    seq.encode(&mut w);
    w.put_bytes(&digest);
    w.into_bytes()
}

/// Domain-separated bytes an echoer signs.
fn echo_bytes(source: ProcessId, seq: SeqNo, digest: [u8; 32]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(b'E');
    source.encode(&mut w);
    seq.encode(&mut w);
    w.put_bytes(&digest);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{EdAuth, NoAuth};
    use crate::types::Delivery;
    use std::collections::VecDeque;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn run_system<A: Authenticator>(
        n: usize,
        auth: impl Fn(ProcessId) -> A,
        broadcasts: Vec<(ProcessId, u64)>,
        drop_rule: impl Fn(ProcessId, ProcessId, &EchoMsg<u64, A::Sig>) -> bool,
    ) -> Vec<Vec<Delivery<u64>>> {
        let mut endpoints: Vec<EchoBroadcast<u64, A>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, auth(p(i as u32))))
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, EchoMsg<u64, A::Sig>)> = VecDeque::new();
        let mut delivered: Vec<Vec<Delivery<u64>>> = vec![Vec::new(); n];

        for (source, value) in broadcasts {
            let mut step = Step::new();
            endpoints[source.as_usize()].broadcast(value, &mut step);
            for out in step.outgoing {
                inflight.push_back((source, out.to, out.msg));
            }
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            if drop_rule(from, to, &msg) {
                continue;
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()].extend(step.deliveries);
        }
        delivered
    }

    #[test]
    fn all_deliver_with_no_auth() {
        let delivered = run_system(4, |_| NoAuth, vec![(p(0), 42)], |_, _, _| false);
        for deliveries in &delivered {
            assert_eq!(deliveries.len(), 1);
            assert_eq!(deliveries[0].payload, 42);
        }
    }

    #[test]
    fn all_deliver_with_real_signatures() {
        let auth = EdAuth::deterministic(4, 7);
        let delivered = run_system(4, |_| auth.clone(), vec![(p(1), 9)], |_, _, _| false);
        for deliveries in &delivered {
            assert_eq!(deliveries.len(), 1);
            assert_eq!(deliveries[0].payload, 9);
            assert_eq!(deliveries[0].source, p(1));
        }
    }

    #[test]
    fn source_order_is_fifo() {
        let delivered = run_system(
            4,
            |_| NoAuth,
            vec![(p(2), 1), (p(2), 2), (p(2), 3)],
            |_, _, _| false,
        );
        for deliveries in &delivered {
            let values: Vec<u64> = deliveries.iter().map(|d| d.payload).collect();
            assert_eq!(values, vec![1, 2, 3]);
        }
    }

    #[test]
    fn forged_send_is_ignored() {
        // p3 injects a SEND claiming to be from p0 (wrong signature).
        let auth = EdAuth::deterministic(4, 1);
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, EdAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, auth.clone()))
            .collect();
        // Craft a SEND with p3's signature but deliver it as "from p0" is
        // impossible in the sim (channels are authenticated); instead the
        // adversary sends from itself with a *bad* signature.
        let bad_sig = auth.sign(p(3), b"garbage");
        let mut step = Step::new();
        endpoints[1].on_message(
            p(3),
            EchoMsg::Send {
                seq: SeqNo::new(1),
                payload: 666,
                sig: bad_sig,
            },
            &mut step,
        );
        assert!(step.outgoing.is_empty(), "no echo for a forged SEND");
        assert!(step.deliveries.is_empty());
    }

    #[test]
    fn fake_certificate_rejected() {
        let auth = EdAuth::deterministic(4, 2);
        let mut endpoint: EchoBroadcast<u64, EdAuth> = EchoBroadcast::new(p(1), 4, auth.clone());
        let seq = SeqNo::new(1);
        let payload = 5u64;
        let digest = payload_digest(&payload);
        let sig = auth.sign(p(0), &send_bytes(p(0), seq, digest));
        // Certificate signed by only one process (quorum is 3), padded
        // with duplicates.
        let share = auth.sign(p(2), &echo_bytes(p(0), seq, digest));
        let cert = vec![(p(2), share), (p(2), share), (p(2), share)];
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq,
                payload,
                sig,
                certificate: cert,
            },
            &mut step,
        );
        assert!(step.deliveries.is_empty(), "duplicate-signer cert rejected");
        assert_eq!(endpoint.delivered_count(), 0);
    }

    #[test]
    fn final_with_q_shares_meters_exactly_q_share_verifies() {
        // Satellite check for the at-obs accounting: a fresh endpoint
        // receiving a valid FINAL with a q-share certificate performs
        // exactly 1 sender-signature verify plus q per-share verifies,
        // and the ObservedAuth decorator routes every one of them into
        // the registry (counter and Stage::Verify histogram agree).
        let ed = EdAuth::deterministic(4, 9);
        let registry = at_obs::Registry::new("node 3");
        let auth = crate::auth::ObservedAuth::new(ed.clone(), registry.recorder());
        let mut endpoint: EchoBroadcast<u64, _> = EchoBroadcast::new(p(3), 4, auth.clone());
        let q = endpoint.quorum();
        assert_eq!(q, 3);

        let seq = SeqNo::new(1);
        let payload = 11u64;
        let digest = payload_digest(&payload);
        let sig = ed.sign(p(0), &send_bytes(p(0), seq, digest));
        let certificate: Vec<(ProcessId, _)> = (0..q as u32)
            .map(|i| (p(i), ed.sign(p(i), &echo_bytes(p(0), seq, digest))))
            .collect();

        let before = auth.verifies();
        let mut step = Step::new();
        endpoint.on_message(
            p(0),
            EchoMsg::Final {
                source: p(0),
                seq,
                payload,
                sig,
                certificate,
            },
            &mut step,
        );
        assert_eq!(step.deliveries.len(), 1, "valid certificate delivers");
        let per_share = auth.verifies() - before - 1; // minus the sender-sig check
        assert_eq!(per_share, q as u64, "exactly q per-share verifies");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("auth_verifies_total"),
            Some(auth.verifies()),
            "counter matches the decorator's own tally"
        );
        let hist = snap.histogram("stage_verify_us").expect("registered");
        assert_eq!(
            hist.count,
            auth.verifies(),
            "one histogram sample per verify"
        );
    }

    #[test]
    fn echo_shares_are_verified_only_when_they_could_count() {
        // The sender verifies an echo share only if it would be inserted:
        // its instance is live, unfinished, and has no share from that
        // signer yet. Invalid shares for a live instance are still
        // checked and rejected.
        let ed = EdAuth::deterministic(4, 13);
        let registry = at_obs::Registry::new("node 0");
        let auth = crate::auth::ObservedAuth::new(ed.clone(), registry.recorder());
        let mut endpoint: EchoBroadcast<u64, _> = EchoBroadcast::new(p(0), 4, auth.clone());
        let seq = endpoint.broadcast(21, &mut Step::new());
        let digest = payload_digest(&21u64);
        let mut deliver = |from: u32, seq: SeqNo, signer: u32| {
            let share = ed.sign(p(signer), &echo_bytes(p(0), seq, digest));
            let mut step = Step::new();
            let msg = EchoMsg::Echo {
                source: p(0),
                seq,
                digest,
                share,
            };
            endpoint.on_message(p(from), msg, &mut step);
            (auth.verifies(), step.outgoing.len())
        };

        assert_eq!(deliver(1, seq, 2), (1, 0), "bad share is checked");
        assert_eq!(deliver(1, seq, 1), (2, 0), "bad share not kept");
        assert_eq!(deliver(1, seq, 1), (2, 0), "repeat not re-checked");
        assert_eq!(deliver(1, SeqNo::new(9), 1), (2, 0), "unknown instance");
        assert_eq!(deliver(2, seq, 2), (3, 0));
        let (verifies, sent) = deliver(3, seq, 3);
        assert_eq!(verifies, 4);
        assert!(sent > 0, "the third share forms the certificate");
        assert_eq!(deliver(0, seq, 0), (4, 0), "late share after the quorum");
        assert_eq!(endpoint.crypto_ops().verifies, 4);
    }

    #[test]
    fn equivocating_sender_cannot_get_two_certificates() {
        // A Byzantine sender sends payload 1 to half the processes and
        // payload 2 to the other half. Quorum is ⌈(4+1+1)/2⌉ = 3 > 2, so
        // neither digest can collect a certificate.
        let auth = EdAuth::deterministic(4, 3);
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, EdAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, auth.clone()))
            .collect();
        let seq = SeqNo::new(1);
        let mut echoes = Vec::new();
        for (to, value) in [(p(1), 1u64), (p(2), 1), (p(3), 2)] {
            let digest = payload_digest(&value);
            let sig = auth.sign(p(0), &send_bytes(p(0), seq, digest));
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(
                p(0),
                EchoMsg::Send {
                    seq,
                    payload: value,
                    sig,
                },
                &mut step,
            );
            echoes.extend(step.outgoing);
        }
        // 2 echoes for digest(1), 1 echo for digest(2): no quorum either
        // way, regardless of how the adversary combines the shares.
        assert_eq!(echoes.len(), 3);
        let digest1 = payload_digest(&1u64);
        let count1 = echoes
            .iter()
            .filter(|out| matches!(&out.msg, EchoMsg::Echo { digest, .. } if *digest == digest1))
            .count();
        assert_eq!(count1, 2);
        assert!(count1 < 3, "below quorum");
    }

    #[test]
    fn final_forwarding_gives_totality() {
        // The sender "selectively" finalizes: its FINAL reaches only p1.
        // With forwarding on, p1's re-broadcast completes delivery at
        // everyone.
        let delivered = run_system(
            4,
            |_| NoAuth,
            vec![(p(0), 8)],
            |from, to, msg| matches!(msg, EchoMsg::Final { .. }) && from == p(0) && to != p(1),
        );
        for (i, deliveries) in delivered.iter().enumerate() {
            assert_eq!(deliveries.len(), 1, "process {i}");
        }
    }

    #[test]
    fn without_forwarding_selective_final_splits_delivery() {
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| {
                let mut endpoint = EchoBroadcast::new(p(i as u32), n, NoAuth);
                endpoint.set_forward_final(false);
                endpoint
            })
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, EchoMsg<u64, ()>)> = VecDeque::new();
        let mut step = Step::new();
        endpoints[0].broadcast(3, &mut step);
        for out in step.outgoing {
            inflight.push_back((p(0), out.to, out.msg));
        }
        let mut delivered = vec![0usize; n];
        while let Some((from, to, msg)) = inflight.pop_front() {
            if matches!(msg, EchoMsg::Final { .. }) && from == p(0) && to != p(1) {
                continue;
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
            delivered[to.as_usize()] += step.deliveries.len();
        }
        assert_eq!(delivered, vec![0, 1, 0, 0]);
    }

    #[test]
    fn split_shadow_collects_but_never_finalizes_at_correct_quorum() {
        // Echoes for both sides of a split reach the attacker; with the
        // correct quorum neither side certifies, so no FINAL leaves.
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect();
        let mut step = Step::new();
        endpoints[0].broadcast_split(1, 2, &mut step);
        let mut finals = 0;
        for out in step.outgoing {
            let mut reply = Step::new();
            let from = p(0);
            endpoints[out.to.as_usize()].on_message(from, out.msg, &mut reply);
            // Feed every echo straight back to the attacker.
            for echo in reply.outgoing {
                assert_eq!(echo.to, p(0));
                let mut reaction = Step::new();
                endpoints[0].on_message(out.to, echo.msg, &mut reaction);
                finals += reaction.outgoing.len();
            }
        }
        assert_eq!(finals, 0, "a split side certified at the correct quorum");
    }

    #[cfg(feature = "broken")]
    #[test]
    fn broken_quorum_lets_a_split_certify_both_sides() {
        // With the quorum forced one below the intersection threshold,
        // the attacker assembles certificates for BOTH split payloads —
        // the seeded safety bug the schedule explorer must catch.
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| {
                let mut endpoint = EchoBroadcast::new(p(i as u32), n, NoAuth);
                endpoint.set_quorum_override(2);
                endpoint
            })
            .collect();
        assert_eq!(endpoints[0].quorum(), 2);
        let mut step = Step::new();
        endpoints[0].broadcast_split(1, 2, &mut step);
        let mut final_payloads = std::collections::BTreeSet::new();
        for out in step.outgoing {
            let mut reply = Step::new();
            endpoints[out.to.as_usize()].on_message(p(0), out.msg, &mut reply);
            for echo in reply.outgoing {
                let mut reaction = Step::new();
                endpoints[0].on_message(out.to, echo.msg, &mut reaction);
                for fin in reaction.outgoing {
                    if let EchoMsg::Final { payload, .. } = fin.msg {
                        final_payloads.insert(payload);
                    }
                }
            }
        }
        assert_eq!(
            final_payloads.into_iter().collect::<Vec<_>>(),
            vec![1, 2],
            "both sides must certify under the broken quorum"
        );
    }

    #[test]
    fn prune_drops_released_instances_and_suppresses_replays() {
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect();
        let mut inflight: VecDeque<(ProcessId, ProcessId, EchoMsg<u64, ()>)> = VecDeque::new();
        let mut step = Step::new();
        endpoints[0].broadcast(42, &mut step);
        let mut replay_final = None;
        for out in step.outgoing {
            inflight.push_back((p(0), out.to, out.msg));
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            if replay_final.is_none() {
                if let EchoMsg::Final { .. } = &msg {
                    replay_final = Some(msg.clone());
                }
            }
            let mut step = Step::new();
            endpoints[to.as_usize()].on_message(from, msg, &mut step);
            for out in step.outgoing {
                inflight.push_back((to, out.to, out.msg));
            }
        }
        for endpoint in &mut endpoints {
            assert_eq!(endpoint.instance_count(), 1);
            assert_eq!(endpoint.delivered_count(), 1);
            let pruned = endpoint.prune_delivered();
            assert_eq!(pruned, 1);
            assert_eq!(endpoint.instance_count(), 0);
            assert_eq!(endpoint.delivered_count(), 1, "monotone across pruning");
        }
        // A replayed FINAL for the pruned instance must not re-deliver
        // (the dedup map entry is gone; the release floor takes over).
        let replay = replay_final.expect("a FINAL circulated");
        let mut step = Step::new();
        endpoints[2].on_message(p(0), replay, &mut step);
        assert!(step.deliveries.is_empty(), "pruned instance re-delivered");
        assert_eq!(endpoints[2].delivered_count(), 1);
    }

    #[test]
    fn delivery_floor_resumes_a_stream_mid_sequence() {
        let n = 4;
        let mut endpoints: Vec<EchoBroadcast<u64, NoAuth>> = (0..n)
            .map(|i| EchoBroadcast::new(p(i as u32), n, NoAuth))
            .collect();
        // Endpoint 0 cold-starts knowing p1 delivered through seq 5 and
        // its own stream reached seq 3.
        endpoints[0].set_delivery_floor(p(1), SeqNo::new(5));
        endpoints[0].set_delivery_floor(p(0), SeqNo::new(3));
        let mut step = Step::new();
        let seq = endpoints[0].broadcast(7, &mut step);
        assert_eq!(seq, SeqNo::new(4), "own stream resumes after the floor");
        // Stale and fresh FINALs from p1 (NoAuth, so certificates are
        // trivially valid — quorum of distinct signers suffices).
        let mut delivered = Vec::new();
        for inst in [5u64, 6] {
            let certificate = vec![(p(1), ()), (p(2), ()), (p(3), ())];
            let mut step = Step::new();
            endpoints[0].on_message(
                p(1),
                EchoMsg::Final {
                    source: p(1),
                    seq: SeqNo::new(inst),
                    payload: inst,
                    sig: (),
                    certificate,
                },
                &mut step,
            );
            delivered.extend(step.deliveries);
        }
        assert_eq!(delivered.len(), 1, "only the post-floor instance lands");
        assert_eq!(delivered[0].seq, SeqNo::new(6));
        assert_eq!(delivered[0].payload, 6);
    }

    #[test]
    fn quorum_formula() {
        let endpoint: EchoBroadcast<u64, NoAuth> = EchoBroadcast::new(p(0), 4, NoAuth);
        assert_eq!(endpoint.quorum(), 3);
        let endpoint: EchoBroadcast<u64, NoAuth> = EchoBroadcast::new(p(0), 10, NoAuth);
        assert_eq!(endpoint.quorum(), 7);
        assert!(format!("{endpoint:?}").contains("n=10"));
    }
}
