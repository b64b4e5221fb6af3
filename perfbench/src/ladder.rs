//! The layer ladder: each layer's public functions called directly, rung
//! by rung — codec, crypto, the broadcast state machines with no
//! transport, one TCP node, the in-process mesh, the 4-node TCP cluster at
//! saturation, and the snapshot plane at a million accounts (static, and a
//! cold restart on an idle cluster). The drop in throughput between rungs
//! is what each layer adds.

use crate::gen::{self, Dest, Plan};
use crate::util::{self, CpuWindow, Rng};
use crate::workload::{make_noauth, make_signed, GEN_THREAD, INITIAL, N};
use at_broadcast::{Batch, SecureBroadcast};
use at_core::TransferMsg;
use at_crypto::{verify_batch, Keypair, PrecomputedKey, Sha256};
use at_engine::replica::{EngineEvent, EnginePayload};
use at_engine::{EngineConfig, LedgerSnapshot, ShardedReplica};
use at_model::codec::{decode, encode};
use at_model::{AccountId, Amount, ProcessId, SeqNo, Transfer};
use at_net::{Actor, Context, VirtualTime};
use at_node::{
    await_convergence, start_mesh_cluster, start_tcp_cluster_instrumented, Client, NodeConfig,
    TcpOptions,
};
use at_obs::{Recorder, Stage};
use std::collections::VecDeque;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

type Metrics = Vec<(String, f64, &'static str)>;

/// Time each rung spends on one measurement.
const RUNG: Duration = Duration::from_millis(300);
/// Accounts of the snapshot rung.
const SNAPSHOT_ACCOUNTS: usize = 1_000_000;

/// Calls `f` repeatedly for about [`RUNG`]; mean µs per call.
fn time_us(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed() < RUNG || calls < 3 {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn engine(batch: usize, accounts: usize) -> EngineConfig {
    EngineConfig::sharded_batched(4, batch, VirtualTime::from_micros(1_000)).with_accounts(accounts)
}

fn payload(size: usize) -> EnginePayload {
    let items = (0..size as u64)
        .map(|i| TransferMsg {
            transfer: Transfer::new(
                AccountId::new(0),
                AccountId::new(1 + (i % 3) as u32),
                Amount::new(1),
                ProcessId::new(0),
                SeqNo::new(i + 1),
            ),
            deps: Vec::new(),
        })
        .collect();
    Batch::new(items)
}

fn codec(m: &mut Metrics) {
    for size in [1usize, 128] {
        let batch = payload(size);
        let bytes = encode(&batch);
        let encode_us = time_us(|| {
            black_box(encode(black_box(&batch)));
        });
        let decode_us = time_us(|| {
            black_box(decode::<EnginePayload>(black_box(&bytes)).expect("decodes"));
        });
        m.push((
            format!("ladder.codec.b{size}.encode_ns"),
            encode_us * 1e3,
            "ns",
        ));
        m.push((
            format!("ladder.codec.b{size}.decode_ns"),
            decode_us * 1e3,
            "ns",
        ));
        m.push((
            format!("ladder.codec.b{size}.bytes"),
            bytes.len() as f64,
            "bytes",
        ));
    }
}

fn crypto(m: &mut Metrics) {
    let keys: Vec<Keypair> = (0..3u8).map(|i| Keypair::from_seed(&[i + 1; 32])).collect();
    let message = [7u8; 64];
    let sig = keys[0].sign(&message);
    let sigs: Vec<_> = keys.iter().map(|k| k.sign(&message)).collect();
    let pre: Vec<PrecomputedKey> = keys
        .iter()
        .map(|k| PrecomputedKey::new(*k.public()))
        .collect();
    let sign_us = time_us(|| {
        black_box(keys[0].sign(black_box(&message)));
    });
    let verify_us = time_us(|| {
        pre[0]
            .verify(black_box(&message), &sig)
            .expect("valid signature");
    });
    let items: Vec<_> = pre
        .iter()
        .zip(&sigs)
        .map(|(k, s)| (k, &message[..], s))
        .collect();
    let batch_us = time_us(|| {
        verify_batch(black_box(&items)).expect("valid batch");
    });
    let block = vec![0xA5u8; 1 << 20];
    let sha_us = time_us(|| {
        black_box(Sha256::digest(black_box(&block)));
    });
    m.push(("ladder.crypto.sign_us".into(), sign_us, "us"));
    m.push(("ladder.crypto.verify_us".into(), verify_us, "us"));
    m.push((
        "ladder.crypto.verify_batch_us_per_sig".into(),
        batch_us / items.len() as f64,
        "us",
    ));
    m.push(("ladder.crypto.sha256_mb_s".into(), 1e6 / sha_us, "MB/s"));
}

/// CPU µs this thread has used (10 ms resolution).
fn thread_cpu_us() -> u64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| util::parse_stat(&s))
        .map_or(0, |(_, ticks)| ticks * util::TICK_US)
}

/// Four replicas stepped through detached contexts, every message
/// delivered in send order and every armed timer fired once the network
/// is quiet: the protocol with no transport. Returns `(tps, cpu µs per
/// transfer)`.
fn protocol<B, F>(batch: usize, make: F) -> (f64, f64)
where
    B: SecureBroadcast<EnginePayload>,
    F: Fn(ProcessId) -> B,
{
    let config = engine(batch, 0);
    let mut replicas: Vec<ShardedReplica<B>> = (0..N)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            ShardedReplica::with_backend(me, N, Amount::new(INITIAL), config, make(me))
        })
        .collect();
    let mut inbox: VecDeque<(ProcessId, ProcessId, B::Msg)> = VecDeque::new();
    let mut timers: Vec<(usize, u64)> = Vec::new();
    let mut events = Vec::new();
    let mut completed = 0u64;
    let mut rng = Rng::new(11);
    let started = Instant::now();
    let cpu_started = thread_cpu_us();
    while started.elapsed() < RUNG {
        // One round: `batch` submissions at p0 and at p1, then quiesce.
        for (source, replica) in replicas.iter_mut().enumerate().take(2) {
            let dest = Dest {
                accounts: N as u32,
                own: source as u32,
            };
            for _ in 0..batch {
                let me = ProcessId::new(source as u32);
                let mut ctx = Context::detached(VirtualTime::ZERO, me, N, &mut events);
                let to = AccountId::new(dest.draw(&mut rng));
                replica.submit(to, Amount::new(1), &mut ctx);
                route(source, ctx, &mut inbox, &mut timers);
            }
        }
        loop {
            while let Some((from, to, msg)) = inbox.pop_front() {
                let mut ctx = Context::detached(VirtualTime::ZERO, to, N, &mut events);
                replicas[to.as_usize()].on_message(from, msg, &mut ctx);
                route(to.as_usize(), ctx, &mut inbox, &mut timers);
            }
            if timers.is_empty() {
                break;
            }
            for (i, timer) in std::mem::take(&mut timers) {
                let me = ProcessId::new(i as u32);
                let mut ctx = Context::detached(VirtualTime::ZERO, me, N, &mut events);
                replicas[i].on_timer(timer, &mut ctx);
                route(i, ctx, &mut inbox, &mut timers);
            }
        }
        completed += events
            .drain(..)
            .filter(|(_, _, e)| matches!(e, EngineEvent::Completed { .. }))
            .count() as u64;
    }
    let secs = started.elapsed().as_secs_f64();
    let cpu = thread_cpu_us().saturating_sub(cpu_started) as f64;
    let completed = completed.max(1) as f64;
    (completed / secs, cpu / completed)
}

fn route<M>(
    from: usize,
    ctx: Context<'_, M, EngineEvent>,
    inbox: &mut VecDeque<(ProcessId, ProcessId, M)>,
    timers: &mut Vec<(usize, u64)>,
) {
    let out = ctx.into_outputs();
    let me = ProcessId::new(from as u32);
    inbox.extend(out.outbox.into_iter().map(|(to, msg)| (me, to, msg)));
    timers.extend(out.timers.into_iter().map(|(_, timer)| (from, timer)));
}

/// A 1-node TCP cluster under one closed-loop connection: the runtime
/// with no peers.
fn single_node() -> Result<(f64, f64), String> {
    let config = NodeConfig::new(engine(128, N), Amount::new(INITIAL));
    let mut cluster = start_tcp_cluster_instrumented(1, config, TcpOptions::default(), |me, _| {
        at_broadcast::echo::EchoBroadcast::<EnginePayload, _>::new(me, 1, at_broadcast::NoAuth)
    })
    .map_err(|e| e.to_string())?;
    let result = closed_loop_tcp(&cluster.client_addrs);
    cluster.stop_all();
    result
}

/// The measured 4-node cluster at saturation: 256 transfers in flight on
/// each of the p0 and p1 connections.
fn tcp_cluster() -> Result<(f64, f64), String> {
    let config = NodeConfig::new(engine(128, 0), Amount::new(INITIAL));
    let mut cluster = start_tcp_cluster_instrumented(N, config, TcpOptions::default(), make_noauth)
        .map_err(|e| e.to_string())?;
    let result = closed_loop_tcp(&cluster.client_addrs[..2]);
    cluster.stop_all();
    result
}

/// Closed-loop load, 256 transfers in flight per connection, for three
/// rung lengths. Returns `(tps, cpu µs per transfer)`, the CPU without
/// the generator threads.
fn closed_loop_tcp(addrs: &[SocketAddr]) -> Result<(f64, f64), String> {
    let window = RUNG * 3;
    let streams = addrs
        .iter()
        .map(|a| gen::connect(*a).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cpu = CpuWindow::start();
    let origin = Instant::now();
    let generators: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(c, stream)| {
            let plan = Plan {
                ops: Vec::new(),
                window: 256,
                dest: Dest {
                    accounts: N as u32,
                    own: c as u32,
                },
                seed: 5 + c as u64,
                send_until_us: window.as_micros() as u64,
                drain_until_us: (window + Duration::from_secs(30)).as_micros() as u64,
            };
            std::thread::Builder::new()
                .name(format!("{GEN_THREAD}{c}"))
                .spawn(move || gen::run(stream, plan, origin))
                .expect("spawn generator")
        })
        .collect();
    std::thread::sleep(window.saturating_sub(origin.elapsed()));
    // Sampled while the generators are still alive, so their CPU is
    // attributed to them.
    cpu.end();
    let secs = origin.elapsed().as_secs_f64();
    let mut commits = 0u64;
    for g in generators {
        let tally = g.join().expect("generator thread panicked");
        if let Some(e) = tally.error {
            return Err(e);
        }
        if tally.outcomes.iter().any(|o| !o.ok) {
            return Err("a closed-loop transfer failed".into());
        }
        let end = (secs * 1e6) as u64;
        commits += tally
            .outcomes
            .iter()
            .filter(|o| o.done_us.is_some_and(|d| d <= end))
            .count() as u64;
    }
    let gen_us = cpu.prefix_us(GEN_THREAD);
    let commits = commits.max(1) as f64;
    Ok((
        commits / secs,
        cpu.process_us().saturating_sub(gen_us) as f64 / commits,
    ))
}

/// The 4-node in-process channel mesh driven by two local clients: the
/// cluster with no sockets. Returns `(tps, cpu µs per transfer)`.
fn mesh() -> (f64, f64) {
    let config = NodeConfig::new(engine(128, 0), Amount::new(INITIAL));
    let handles = start_mesh_cluster(N, config, |me| make_noauth(me, &recorder()));
    let clients: Vec<_> = handles[..2].iter().map(|h| h.local_client()).collect();
    let mut cpu = CpuWindow::start();
    let started = Instant::now();
    let committed: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut rng = Rng::new(c as u64);
                    let dest = Dest {
                        accounts: N as u32,
                        own: c as u32,
                    };
                    let (mut outstanding, mut committed) = (0u64, 0u64);
                    while started.elapsed() < RUNG * 3 || outstanding > 0 {
                        while outstanding < 256 && started.elapsed() < RUNG * 3 {
                            client.submit_transfer(
                                AccountId::new(dest.draw(&mut rng)),
                                Amount::new(1),
                            );
                            outstanding += 1;
                        }
                        if client.recv_response(Duration::from_secs(10)).is_none() {
                            break;
                        }
                        outstanding -= 1;
                        committed += 1;
                    }
                    committed
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("mesh client"))
            .sum()
    });
    let secs = started.elapsed().as_secs_f64();
    cpu.end();
    for handle in handles {
        handle.stop();
    }
    let committed = committed.max(1) as f64;
    (committed / secs, cpu.process_us() as f64 / committed)
}

fn recorder() -> Recorder {
    at_obs::Registry::new("ladder").recorder()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The snapshot plane at a million accounts: cut + encode, decode +
/// verify, restore, and a live node's header probe and full fetch.
fn snapshot(m: &mut Metrics) -> Result<(), String> {
    let config = engine(128, SNAPSHOT_ACCOUNTS);
    let me = ProcessId::new(0);
    let replica = ShardedReplica::with_backend(
        me,
        N,
        Amount::new(INITIAL),
        config,
        make_noauth(me, &recorder()),
    );
    let t = Instant::now();
    let bytes = encode(&replica.snapshot());
    m.push(("ladder.snapshot.build_ms".into(), ms_since(t), "ms"));
    m.push(("ladder.snapshot.bytes".into(), bytes.len() as f64, "bytes"));
    drop(replica);
    let t = Instant::now();
    let snap = decode::<LedgerSnapshot>(&bytes).map_err(|e| e.to_string())?;
    if !snap.verify() {
        return Err("ladder snapshot fails its digest".into());
    }
    m.push(("ladder.snapshot.verify_ms".into(), ms_since(t), "ms"));
    let t = Instant::now();
    let restored =
        ShardedReplica::from_snapshot(me, N, config, make_noauth(me, &recorder()), &snap);
    m.push(("ladder.snapshot.restore_ms".into(), ms_since(t), "ms"));
    drop((restored, snap));

    let node = NodeConfig::new(engine(128, SNAPSHOT_ACCOUNTS), Amount::new(INITIAL));
    let mut cluster = start_tcp_cluster_instrumented(1, node, TcpOptions::default(), |me, _| {
        at_broadcast::echo::EchoBroadcast::<EnginePayload, _>::new(me, 1, at_broadcast::NoAuth)
    })
    .map_err(|e| e.to_string())?;
    let result = (|| -> std::io::Result<(f64, f64)> {
        let mut client = Client::connect(cluster.client_addrs[0])?;
        let t = Instant::now();
        client.snapshot_header(Duration::from_secs(30))?;
        let header = ms_since(t);
        let t = Instant::now();
        client.fetch_snapshot(Duration::from_secs(30))?;
        Ok((header, ms_since(t)))
    })();
    cluster.stop_all();
    let (header, fetch) = result.map_err(|e| e.to_string())?;
    m.push(("ladder.snapshot.header_ms".into(), header, "ms"));
    m.push(("ladder.snapshot.fetch_ms".into(), fetch, "ms"));
    Ok(())
}

/// A cold restart on an idle 4-node cluster at a million accounts, after
/// a burst of transfers: p3 stopped, its state dropped, and restarted from
/// a quorum-attested snapshot.
fn cold_restart(m: &mut Metrics) -> Result<(), String> {
    const BURST: u32 = 1_000;
    let err = |e: std::io::Error| e.to_string();
    let config = NodeConfig::new(engine(128, SNAPSHOT_ACCOUNTS), Amount::new(INITIAL));
    let mut cluster = start_tcp_cluster_instrumented(N, config, TcpOptions::default(), make_noauth)
        .map_err(err)?;
    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(cluster.client_addrs[0]).map_err(err)?;
        for i in 0..BURST {
            client
                .submit_transfer(AccountId::new(N as u32 + i), Amount::new(1))
                .map_err(err)?;
        }
        while client.outstanding() > 0 {
            client
                .recv_response(Duration::from_secs(30))
                .map_err(err)?
                .ok_or("burst transfer never answered")?;
        }
        let converged = |cluster: &at_node::TcpCluster<_>| {
            let handles: Vec<_> = cluster.running().collect();
            await_convergence(&handles, Duration::from_secs(30)).is_some()
        };
        if !converged(&cluster) {
            return Err("cluster did not converge before the restart".into());
        }
        let t = Instant::now();
        drop(cluster.stop_node(N - 1));
        m.push((
            "ladder.cold_restart.stop_s".into(),
            t.elapsed().as_secs_f64(),
            "s",
        ));
        let t = Instant::now();
        cluster
            .cold_start_node(
                N - 1,
                |me| make_noauth(me, &recorder()),
                Duration::from_secs(60),
            )
            .map_err(err)?;
        m.push((
            "ladder.cold_restart.start_call_s".into(),
            t.elapsed().as_secs_f64(),
            "s",
        ));
        if !converged(&cluster) {
            return Err("cold-started p3 did not converge".into());
        }
        m.push((
            "ladder.cold_restart.catchup_s".into(),
            t.elapsed().as_secs_f64(),
            "s",
        ));
        let stats = Client::connect(cluster.client_addrs[N - 1])
            .and_then(|mut c| c.stats(Duration::from_secs(10)))
            .map_err(err)?;
        let span = stats
            .histogram(Stage::CatchUp.metric_name())
            .cloned()
            .unwrap_or_default();
        m.push((
            "ladder.cold_restart.node_catchup_us".into(),
            crate::workload::mean(&span),
            "us",
        ));
        Ok(())
    })();
    cluster.stop_all();
    result
}

/// Runs every rung.
pub fn run() -> Result<Metrics, String> {
    let mut m = Metrics::new();
    codec(&mut m);
    crypto(&mut m);
    let (tps, cpu) = protocol(1, |me| make_noauth(me, &recorder()));
    m.push(("ladder.protocol.tps_b1".into(), tps, "transfers/s"));
    m.push(("ladder.protocol.cpu_us_b1".into(), cpu, "us"));
    let (tps, cpu) = protocol(128, |me| make_noauth(me, &recorder()));
    m.push(("ladder.protocol.tps_b128".into(), tps, "transfers/s"));
    m.push(("ladder.protocol.cpu_us_b128".into(), cpu, "us"));
    let (tps, cpu) = protocol(1, |me| make_signed(me, &recorder()));
    m.push(("ladder.protocol_signed.tps_b1".into(), tps, "transfers/s"));
    m.push(("ladder.protocol_signed.cpu_us_b1".into(), cpu, "us"));
    let (tps, cpu) = single_node()?;
    m.push(("ladder.single_node.tps".into(), tps, "transfers/s"));
    m.push(("ladder.single_node.cpu_us".into(), cpu, "us"));
    let (tps, cpu) = mesh();
    m.push(("ladder.mesh.tps".into(), tps, "transfers/s"));
    m.push(("ladder.mesh.cpu_us".into(), cpu, "us"));
    let (tps, cpu) = tcp_cluster()?;
    m.push(("ladder.tcp_cluster.tps".into(), tps, "transfers/s"));
    m.push(("ladder.tcp_cluster.cpu_us".into(), cpu, "us"));
    snapshot(&mut m)?;
    cold_restart(&mut m)?;
    Ok(m)
}
