//! The load generator: one thread per gateway connection, speaking the
//! client wire protocol directly on a non-blocking socket.
//!
//! Open-loop operations carry an *intended* send time from a schedule
//! fixed before the run; latency is measured from that time, so a stall
//! anywhere (node, socket or generator) is charged to every request due
//! during it. Sends are paced with `thread::sleep`, which wakes within
//! tens of microseconds; socket read timeouts are not used for pacing
//! because the kernel rounds them up to scheduler ticks (8 ms on a
//! `CONFIG_HZ=250` kernel), and `Client::recv_response` blocks for its
//! connection's fixed 50 ms read timeout.
//!
//! The closed-loop mode keeps a fixed window of transfers in flight and
//! refills it as acknowledgements arrive (the ladder's 4-node TCP rung
//! at saturation).

use crate::util::Rng;
use at_model::{AccountId, Amount};
use at_node::wire::encode_frame;
use at_node::{ClientOp, ClientRequest, Frame, FrameBuffer, ResponseBody};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest single sleep of an idle generator. It bounds how late an
/// acknowledgement is noticed, so it is kept well under the commit
/// latencies measured.
const SLEEP_CAP: Duration = Duration::from_micros(200);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Transfer,
    Read,
}

/// One scheduled operation: due time in µs since the run's origin.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub due_us: u64,
    pub kind: OpKind,
    /// Destination of a transfer, or the account a read reads.
    pub account: u32,
}

/// Transfer destinations: uniform over the `accounts` accounts other
/// than the connection's own account `own`.
#[derive(Clone, Copy, Debug)]
pub struct Dest {
    pub accounts: u32,
    pub own: u32,
}

impl Dest {
    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let pick = rng.below(self.accounts as u64 - 1) as u32;
        if pick >= self.own {
            pick + 1
        } else {
            pick
        }
    }
}

/// Everything one generator thread does.
pub struct Plan {
    /// Open-loop operations, ascending by due time.
    pub ops: Vec<Op>,
    /// Closed-loop transfers kept in flight (0: none).
    pub window: usize,
    pub dest: Dest,
    pub seed: u64,
    /// No operation is sent at or after this time (µs since origin).
    pub send_until_us: u64,
    /// Outstanding operations still unanswered at this time fail.
    pub drain_until_us: u64,
}

/// One answered or failed operation.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub kind: OpKind,
    pub due_us: u64,
    /// When the answer was read (µs since origin); `None` if none came.
    pub done_us: Option<u64>,
    /// A correct answer: `Committed` for a transfer, `Balance` for a read.
    pub ok: bool,
    /// Sent to refill the closed-loop window (its due time is its send
    /// time).
    pub closed: bool,
}

/// What a generator thread saw.
#[derive(Default)]
pub struct Tally {
    pub outcomes: Vec<Outcome>,
    /// `(due, lateness)` of every open-loop send, in µs.
    pub lag_us: Vec<(u64, u64)>,
    /// An I/O or protocol error that ended the connection early.
    pub error: Option<String>,
}

fn io_error(context: &str, err: impl std::fmt::Display) -> String {
    format!("{context}: {err}")
}

/// Connects and performs the client handshake on a blocking socket,
/// then switches it to non-blocking.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    (&stream).write_all(&encode_frame(&Frame::HelloClient))?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Runs `plan` against `stream` (already connected) with times measured
/// from `origin`.
pub fn run(stream: TcpStream, plan: Plan, origin: Instant) -> Tally {
    let mut tally = Tally::default();
    let mut rng = Rng::new(plan.seed);
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0usize;
    let mut frames = FrameBuffer::new();
    let mut chunk = vec![0u8; 64 * 1024];
    // Request ids index `tally.outcomes`.
    let mut next_op = 0usize;
    let mut outstanding = 0usize;
    let mut closed_in_flight = 0usize;
    let now_us = || origin.elapsed().as_micros() as u64;

    let send = |kind: OpKind,
                account: u32,
                due_us: u64,
                closed: bool,
                outcomes: &mut Vec<Outcome>,
                out: &mut Vec<u8>| {
        let id = outcomes.len() as u64;
        let op = match kind {
            OpKind::Transfer => ClientOp::Transfer {
                destination: AccountId::new(account),
                amount: Amount::new(1),
            },
            OpKind::Read => ClientOp::Read {
                account: AccountId::new(account),
            },
        };
        out.extend_from_slice(&encode_frame(&Frame::Request(ClientRequest { id, op })));
        outcomes.push(Outcome {
            kind,
            due_us,
            done_us: None,
            ok: false,
            closed,
        });
    };

    loop {
        let now = now_us();
        let sending = now < plan.send_until_us;
        let mut busy = false;
        if sending {
            while next_op < plan.ops.len() && plan.ops[next_op].due_us <= now {
                let op = plan.ops[next_op];
                next_op += 1;
                send(
                    op.kind,
                    op.account,
                    op.due_us,
                    false,
                    &mut tally.outcomes,
                    &mut out,
                );
                tally.lag_us.push((op.due_us, now - op.due_us));
                outstanding += 1;
                busy = true;
            }
            while closed_in_flight < plan.window {
                let dest = plan.dest.draw(&mut rng);
                send(
                    OpKind::Transfer,
                    dest,
                    now,
                    true,
                    &mut tally.outcomes,
                    &mut out,
                );
                closed_in_flight += 1;
                outstanding += 1;
                busy = true;
            }
        } else if outstanding == 0 || now >= plan.drain_until_us {
            break;
        }

        // Flush what the socket takes; keep the rest for later.
        while out_pos < out.len() {
            match (&stream).write(&out[out_pos..]) {
                Ok(0) => {
                    tally.error = Some("gateway closed the connection".into());
                    return tally;
                }
                Ok(n) => {
                    out_pos += n;
                    busy = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    tally.error = Some(io_error("write", e));
                    return tally;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }

        // Read every answer already waiting.
        loop {
            match (&stream).read(&mut chunk) {
                Ok(0) => {
                    tally.error = Some("gateway closed the connection".into());
                    return tally;
                }
                Ok(n) => {
                    busy = true;
                    frames.extend(&chunk[..n]);
                    let done = now_us();
                    loop {
                        let frame = match frames.next_frame() {
                            Ok(Some(frame)) => frame,
                            Ok(None) => break,
                            Err(e) => {
                                tally.error = Some(io_error("decode", e));
                                return tally;
                            }
                        };
                        let Frame::Response(response) = frame else {
                            tally.error = Some("non-response frame from gateway".into());
                            return tally;
                        };
                        let Some(outcome) = tally.outcomes.get_mut(response.id as usize) else {
                            tally.error = Some(format!("answer to unknown id {}", response.id));
                            return tally;
                        };
                        if outcome.done_us.is_some() {
                            tally.error = Some(format!("second answer to id {}", response.id));
                            return tally;
                        }
                        outcome.done_us = Some(done);
                        outcome.ok = matches!(
                            (outcome.kind, response.body),
                            (OpKind::Transfer, ResponseBody::Committed { .. })
                                | (OpKind::Read, ResponseBody::Balance { .. })
                        );
                        outstanding -= 1;
                        if outcome.closed {
                            closed_in_flight -= 1;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    tally.error = Some(io_error("read", e));
                    return tally;
                }
            }
        }

        if !busy {
            let now = now_us();
            let next_due = plan
                .ops
                .get(next_op)
                .map_or(u64::MAX, |op| op.due_us)
                .saturating_sub(now);
            std::thread::sleep(SLEEP_CAP.min(Duration::from_micros(next_due)));
        }
    }
    tally
}
