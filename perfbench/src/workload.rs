//! The workloads on a 4-node loopback-TCP cluster, the correctness
//! battery every run must pass, and the window measurements.
//!
//! Cluster shape (fixed across workloads): SignedEcho backend, engine
//! `sharded_batched(4, 128, 1 ms)`, `NodeConfig` defaults, deep pockets
//! (10⁹ per account) so a correct run never rejects, and no injected
//! delay between nodes — latency is processor and scheduling time only.
//! Two generator threads drive gateways p0 and p1; p2 and p3 carry only
//! peer traffic.

use crate::gen::{self, Dest, Op, OpKind, Outcome, Plan, Tally};
use crate::util::{self, snapshot_delta, snapshot_sum, CpuWindow, Rng, Tail};
use at_broadcast::auth::{EdAuth, NoAuth, ObservedAuth};
use at_broadcast::echo::EchoBroadcast;
use at_broadcast::SecureBroadcast;
use at_engine::replica::EnginePayload;
use at_engine::EngineConfig;
use at_model::codec::{Decode, Encode};
use at_model::{AccountId, Amount, ProcessId};
use at_net::VirtualTime;
use at_node::{
    start_tcp_cluster_instrumented, try_await_convergence, Client, ConvergenceOptions, NodeConfig,
    ResponseBody, TcpCluster, TcpOptions,
};
use at_obs::{HistogramSnapshot, Recorder, Snapshot, Stage, TraceConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const N: usize = 4;
/// Initial balance of every account: deep enough that no run rejects.
pub const INITIAL: u64 = 1_000_000_000;
/// Key-store seed shared by every node's `EdAuth` (as `loadgen` uses).
const AUTH_SEED: u64 = 7;
/// Unmeasured load before the window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// Load continues this long past the window, so the window closes (and
/// its CPU is sampled) while every generator connection is still open.
const TAIL: Duration = Duration::from_millis(500);
/// How long stragglers may take to be acknowledged after sending stops.
const DRAIN: Duration = Duration::from_secs(30);

/// A workload: what the two generator connections send.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Open-loop transfers per second over both connections.
    pub transfer_rate: f64,
    /// Open-loop balance reads per second over both connections.
    pub read_rate: f64,
    pub signed: bool,
    /// Commits acknowledged within this count toward goodput.
    pub latency_limit: Duration,
    /// A run is invalid when its generator's send lag exceeds this at
    /// p99: past it, generator delay would be charged to the cluster.
    /// Set from measured runs: above every p99 lag seen while the
    /// hypervisor stole up to a tenth (NoAuth) or a quarter (signed) of
    /// the machine's CPU, and far below the latency limit, so the lag of
    /// a valid run cannot move goodput. In the valid runs measured, the
    /// median lag stayed under 0.1 ms, too little to move the commit p50.
    pub lag_bound: Duration,
    /// Set-ups per untraced run; `setup_s` is their median (cheap
    /// clusters set up more often to steady the median).
    pub setups: usize,
}

pub const WORKLOADS: [Spec; 2] = [
    // Below the CPU knee, batches hold about two transfers, so per-message
    // runtime cost (peer I/O threads, wakeups, the node loop) dominates;
    // apply and crypto barely register. The reads are the fewest that
    // support a pooled read p99 over a 10 s window (1,000 samples, ten
    // beyond the p99).
    Spec {
        name: "steady-noauth",
        transfer_rate: 2_000.0,
        read_rate: 100.0,
        signed: false,
        latency_limit: Duration::from_millis(50),
        lag_bound: Duration::from_millis(8),
        setups: 61,
    },
    // Ed25519: every transfer is its own broadcast instance and the node
    // loops spend their time signing and verifying. At 50/s the cluster
    // uses about two thirds of a 2-core box; at 100/s requests queue and
    // run-to-run latency spread exceeds any useful bound.
    Spec {
        name: "signed-steady",
        transfer_rate: 50.0,
        read_rate: 0.0,
        signed: true,
        latency_limit: Duration::from_millis(250),
        lag_bound: Duration::from_millis(12),
        setups: 21,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Destinations of connection `conn` (which debits account `conn`).
    fn dest(&self, conn: usize) -> Dest {
        Dest {
            accounts: N as u32,
            own: conn as u32,
        }
    }

    fn node_config(&self, traced: bool) -> NodeConfig {
        let engine = EngineConfig::sharded_batched(4, 128, VirtualTime::from_micros(1_000));
        let config = NodeConfig::new(engine, Amount::new(INITIAL));
        if traced {
            config.with_trace(TraceConfig::sampled())
        } else {
            config
        }
    }
}

/// Everything one measured pass produced.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub commit: Tail,
    pub read: Tail,
    pub lag: Tail,
    pub goodput_tps: f64,
    /// Commits acknowledged in each second of the window.
    pub per_second: Vec<u64>,
    /// Commits acknowledged inside the window (the per-commit base).
    pub window_commits: u64,
    pub cpu: CpuWindow,
    /// Cluster-wide stats delta over the window.
    pub stats: Snapshot,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub idle_cores: Option<f64>,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the window (`steal` in `/proc/stat`).
    pub steal_share: f64,
    /// Earlier windows of this pass measured again for send lag.
    pub windows_discarded: usize,
}

impl Pass {
    /// Whether the generator kept to its schedule (see [`Spec::lag_bound`]).
    pub fn lag_valid(&self, spec: &Spec) -> bool {
        self.lag.tail <= spec.lag_bound.as_micros() as u64
    }

    fn per_commit(&self, v: f64) -> f64 {
        v / self.window_commits.max(1) as f64
    }

    /// Process CPU minus the generator threads, per window commit.
    pub fn cpu_us_per_commit(&self) -> f64 {
        let gen = self.cpu.prefix_us(GEN_THREAD);
        self.per_commit(self.cpu.process_us().saturating_sub(gen) as f64)
    }

    pub fn wire_bytes_per_commit(&self) -> f64 {
        self.per_commit(counter(&self.stats, "transport_bytes_out_total") as f64)
    }
}

/// Generator thread names (digits stripped by the CPU grouping).
pub const GEN_THREAD: &str = "perfbench-gen-";

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn io(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// The open-loop schedule of connection `conn`: Poisson transfers and
/// Poisson reads, merged by due time.
pub fn schedule(spec: &Spec, seed: u64, conn: usize, until_us: u64) -> Vec<Op> {
    let mut rng = Rng::stream(seed, conn as u64);
    let dest = spec.dest(conn);
    let per_conn = |rate: f64| rate / 2.0;
    let mut ops: Vec<Op> = Vec::new();
    for due_us in util::poisson_schedule(&mut rng, per_conn(spec.transfer_rate), until_us) {
        let account = dest.draw(&mut rng);
        ops.push(Op {
            due_us,
            kind: OpKind::Transfer,
            account,
        });
    }
    for due_us in util::poisson_schedule(&mut rng, per_conn(spec.read_rate), until_us) {
        let account = dest.draw(&mut rng);
        ops.push(Op {
            due_us,
            kind: OpKind::Read,
            account,
        });
    }
    ops.sort_by_key(|op| op.due_us);
    ops
}

/// Starts the cluster and waits for its first committed transfer.
fn boot<B, F>(spec: &Spec, traced: bool, make: &F) -> Result<(TcpCluster<B>, f64), String>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId, &Recorder) -> B,
{
    let started = Instant::now();
    let cluster =
        start_tcp_cluster_instrumented(N, spec.node_config(traced), TcpOptions::default(), make)
            .map_err(|e| io("cluster start", e))?;
    let mut client = Client::connect(cluster.client_addrs[0]).map_err(|e| io("connect", e))?;
    client
        .submit_transfer(
            AccountId::new(spec.dest(0).draw(&mut Rng::new(1))),
            Amount::new(1),
        )
        .map_err(|e| io("first transfer", e))?;
    let deadline = started + Duration::from_secs(60);
    loop {
        match client.recv_response(Duration::from_millis(50)) {
            Ok(Some(r)) if matches!(r.body, ResponseBody::Committed { .. }) => break,
            Ok(Some(r)) => return Err(format!("first transfer answered {:?}", r.body)),
            Ok(None) if Instant::now() < deadline => continue,
            Ok(None) => return Err("first transfer never committed".into()),
            Err(e) => return Err(io("first transfer", e)),
        }
    }
    Ok((cluster, started.elapsed().as_secs_f64()))
}

/// Stops every node of `cluster` at once and waits for all of them: a
/// node's stop waits out its peer readers' socket timeouts, which one
/// node after another would add up.
fn stop_parallel<B>(mut cluster: TcpCluster<B>)
where
    B: SecureBroadcast<EnginePayload> + Send + 'static,
    B::Msg: Encode + Decode + Send + 'static,
{
    std::thread::scope(|s| {
        for handle in cluster.handles.iter_mut().filter_map(Option::take) {
            s.spawn(move || drop(handle.stop()));
        }
    });
}

/// Per-node stats scraped over the client wire at both ends of a window.
struct NodeStats {
    clients: Vec<Client>,
    start: Vec<Snapshot>,
}

impl NodeStats {
    fn scrape(client: &mut Client) -> Result<Snapshot, String> {
        client
            .stats(Duration::from_secs(10))
            .map_err(|e| io("stats scrape", e))
    }

    fn open<B: SecureBroadcast<EnginePayload>>(cluster: &TcpCluster<B>) -> Result<Self, String> {
        let clients = cluster
            .client_addrs
            .iter()
            .map(|a| Client::connect(*a).map_err(|e| io("stats connect", e)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NodeStats {
            clients,
            start: Vec::new(),
        })
    }

    fn all(&mut self) -> Result<Vec<Snapshot>, String> {
        self.clients.iter_mut().map(Self::scrape).collect()
    }

    fn begin(&mut self) -> Result<(), String> {
        self.start = self.all()?;
        Ok(())
    }

    /// The cluster-wide delta since [`NodeStats::begin`].
    fn window(&mut self) -> Result<Snapshot, String> {
        let end = self.all()?;
        let parts: Vec<Snapshot> = end
            .iter()
            .zip(&self.start)
            .map(|(e, s)| snapshot_delta(e, s))
            .collect();
        Ok(snapshot_sum(&parts))
    }
}

/// The NoAuth backend.
pub fn make_noauth(me: ProcessId, _: &Recorder) -> EchoBroadcast<EnginePayload, NoAuth> {
    EchoBroadcast::new(me, N, NoAuth)
}

/// The signed backend, as `loadgen --auth ed25519` builds it: Ed25519
/// with warmed key tables, metered into the node's recorder.
pub fn make_signed(
    me: ProcessId,
    recorder: &Recorder,
) -> EchoBroadcast<EnginePayload, ObservedAuth<EdAuth>> {
    let inner = EdAuth::deterministic(N, AUTH_SEED);
    inner.warm();
    EchoBroadcast::new(me, N, ObservedAuth::new(inner, recorder.clone()))
}

/// Runs one pass of `spec`.
pub fn run_pass(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    setups: usize,
) -> Result<Pass, String> {
    if spec.signed {
        measure(spec, seed, seconds, traced, setups, &make_signed)
    } else {
        measure(spec, seed, seconds, traced, setups, &make_noauth)
    }
}

fn measure<B, F>(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    setups: usize,
    make: &F,
) -> Result<Pass, String>
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
    F: Fn(ProcessId, &Recorder) -> B,
{
    // Set-up, repeated; the last cluster is the one measured.
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for i in 0..setups.max(1) {
        let (booted, secs) = boot(spec, traced, make)?;
        setup_s.push(secs);
        if i + 1 < setups.max(1) {
            stop_parallel(booted);
        } else {
            cluster = Some(booted);
        }
    }
    let mut cluster = cluster.expect("at least one set-up");
    let setup_commits = 1u64;

    // The idle floor: a quiet cluster's own CPU use.
    let idle_cores = if traced {
        let mut idle = CpuWindow::start();
        let t = Instant::now();
        std::thread::sleep(Duration::from_secs(1));
        idle.end();
        Some(idle.process_us() as f64 / t.elapsed().as_micros() as f64)
    } else {
        None
    };

    let mut stats = NodeStats::open(&cluster)?;
    let window = Duration::from_secs(seconds);
    let send_until = WARMUP + window + TAIL;
    let streams = (0..2)
        .map(|c| gen::connect(cluster.client_addrs[c]).map_err(|e| io("generator connect", e)))
        .collect::<Result<Vec<_>, _>>()?;

    let origin = Instant::now();
    let until_us = send_until.as_micros() as u64;
    let generators: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(c, stream)| {
            let plan = Plan {
                ops: schedule(spec, seed, c, until_us),
                window: 0,
                dest: spec.dest(c),
                seed: Rng::stream(seed, 2 + c as u64).next_u64(),
                send_until_us: until_us,
                drain_until_us: (send_until + DRAIN).as_micros() as u64,
            };
            std::thread::Builder::new()
                .name(format!("{GEN_THREAD}{c}"))
                .spawn(move || gen::run(stream, plan, origin))
                .expect("spawn generator")
        })
        .collect();

    let mut violations = Vec::new();
    std::thread::sleep(WARMUP.saturating_sub(origin.elapsed()));
    let ws = origin.elapsed();
    let mut cpu = CpuWindow::start();
    let steal_start = util::machine_ticks();
    stats.begin()?;
    let window_end = ws + window;

    std::thread::sleep(window_end.saturating_sub(origin.elapsed()));
    // CPU first, before any client socket closes and its gateway threads
    // exit; then the stats.
    cpu.end();
    let steal_end = util::machine_ticks();
    let window_stats = stats.window()?;
    let we = origin.elapsed();

    let tallies: Vec<Tally> = generators
        .into_iter()
        .map(|g| g.join().expect("generator thread panicked"))
        .collect();

    // ---- Outcomes ------------------------------------------------------
    let (ws_us, we_us) = (ws.as_micros() as u64, we.as_micros() as u64);
    let in_window = |o: &Outcome| o.due_us >= ws_us && o.due_us < we_us;
    let mut commit_lat: Vec<(u64, u64)> = Vec::new();
    let mut read_lat: Vec<(u64, u64)> = Vec::new();
    let mut lag = Vec::new();
    let mut good = 0u64;
    let mut window_commits = 0u64;
    let mut per_second = vec![0u64; (we_us - ws_us).div_ceil(1_000_000) as usize];
    let mut total_commits = setup_commits;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let limit_us = spec.latency_limit.as_micros() as u64;
    for tally in &tallies {
        if let Some(e) = &tally.error {
            violations.push(format!("generator: {e}"));
        }
        for o in &tally.outcomes {
            attempted += 1;
            if !o.ok {
                failed += 1;
                continue;
            }
            let done = o.done_us.expect("ok outcomes are answered");
            let latency = done.saturating_sub(o.due_us);
            match o.kind {
                OpKind::Transfer => {
                    total_commits += 1;
                    if done >= ws_us && done < we_us {
                        window_commits += 1;
                        per_second[((done - ws_us) / 1_000_000) as usize] += 1;
                    }
                    if in_window(o) {
                        commit_lat.push((o.due_us, latency));
                        if latency <= limit_us {
                            good += 1;
                        }
                    }
                }
                OpKind::Read => {
                    if in_window(o) {
                        read_lat.push((o.due_us, latency));
                    }
                }
            }
        }
        lag.extend(
            tally
                .lag_us
                .iter()
                .filter(|(due, _)| *due >= ws_us && *due < we_us)
                .map(|(_, l)| *l),
        );
    }

    battery(&mut cluster, total_commits, &mut violations);
    cluster.stop_all();

    let window_s = (we - ws).as_secs_f64();
    failed += violations.len() as u64;
    // At most one sub-window per second of the window.
    let tails = |s: &[(u64, u64)]| util::subwindow_tail(s, ws_us, we_us, seconds as usize);
    Ok(Pass {
        setup_s,
        window_s,
        commit: tails(&commit_lat),
        read: tails(&read_lat),
        lag: util::tail_summary(&mut lag),
        goodput_tps: good as f64 / window_s,
        per_second,
        window_commits,
        cpu,
        stats: window_stats,
        attempted: attempted.max(1),
        failed,
        violations,
        idle_cores,
        steal_share: util::steal_share(steal_start, steal_end),
        windows_discarded: 0,
    })
}

/// The correctness battery: replicas converge to one digest and one set
/// of balances, money is conserved, nothing was dropped, lost,
/// overflowed or malformed, no link reconnected, and the nodes' own
/// end-to-end histograms count exactly the commits the generators saw.
fn battery<B>(cluster: &mut TcpCluster<B>, commits: u64, violations: &mut Vec<String>)
where
    B: SecureBroadcast<EnginePayload> + 'static,
    B::Msg: Encode + Decode + Send + 'static,
{
    let handles: Vec<_> = cluster.running().collect();
    match try_await_convergence(
        &handles,
        ConvergenceOptions::with_timeout(Duration::from_secs(60)),
    ) {
        Err(timeout) => violations.push(timeout.to_string()),
        Ok(reports) => {
            // One account per process, so the reports hold every balance.
            if reports.windows(2).any(|w| w[0].balances != w[1].balances) {
                violations.push("replica balances differ".into());
            }
            let supply: u64 = reports[0].balances.iter().map(|b| b.units()).sum();
            if reports[0].balances.len() != N || supply != N as u64 * INITIAL {
                violations.push(format!(
                    "{} balances sum to {supply}, expected {N} summing to {}",
                    reports[0].balances.len(),
                    N as u64 * INITIAL
                ));
            }
            for r in &reports {
                if r.dropped_frames + r.lost_ingest + r.overflow_dropped + r.malformed_frames != 0 {
                    violations.push(format!(
                        "{}: dropped {} lost {} overflowed {} malformed {}",
                        r.node,
                        r.dropped_frames,
                        r.lost_ingest,
                        r.overflow_dropped,
                        r.malformed_frames
                    ));
                }
            }
        }
    }
    drop(handles);
    let mut e2e = 0u64;
    for (i, addr) in cluster.client_addrs.iter().enumerate() {
        let snap = Client::connect(*addr).and_then(|mut c| c.stats(Duration::from_secs(10)));
        match snap {
            Ok(snap) => {
                e2e += snap
                    .histogram(Stage::EndToEnd.metric_name())
                    .map_or(0, |h| h.count);
                let reconnects = counter(&snap, "transport_reconnects_total");
                if reconnects != 0 {
                    violations.push(format!("p{i}: {reconnects} reconnects"));
                }
            }
            Err(e) => violations.push(format!("p{i}: final stats scrape: {e}")),
        }
    }
    if e2e != commits {
        violations.push(format!(
            "nodes recorded {e2e} end-to-end samples for {commits} commits"
        ));
    }
}

/// The cluster-wide stage histogram of `stage` in a window delta.
pub fn stage(stats: &Snapshot, stage: Stage) -> HistogramSnapshot {
    stats
        .histogram(stage.metric_name())
        .cloned()
        .unwrap_or_default()
}

/// Mean of a histogram as a float (0 when empty).
pub fn mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

/// Per-layer CPU, by thread class, in µs per window commit.
pub fn cpu_layers(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (class, us) in pass.cpu.classes_us() {
        let layer = match class.as_str() {
            "at-node-p-loop" => "node.cpu.loop_us_per_commit",
            "at-node-p-dial" | "at-node-p-read" | "at-node-acks" => {
                "node.cpu.peer_io_us_per_commit"
            }
            "at-node-decode-" => "node.cpu.decode_us_per_commit",
            "at-node-gateway" | "at-node-client-" => "node.cpu.gateway_us_per_commit",
            c if c.starts_with("at-node-") => "node.cpu.other_us_per_commit",
            c if c.starts_with(GEN_THREAD) => "cpu.generator_us_per_commit",
            _ => "cpu.bench_us_per_commit",
        };
        *layers.entry(layer).or_insert(0.0) += pass.per_commit(us as f64);
    }
    for layer in [
        "node.cpu.loop_us_per_commit",
        "node.cpu.peer_io_us_per_commit",
        "node.cpu.decode_us_per_commit",
        "node.cpu.gateway_us_per_commit",
        "node.cpu.other_us_per_commit",
        "cpu.generator_us_per_commit",
        "cpu.bench_us_per_commit",
    ] {
        layers.entry(layer).or_insert(0.0);
    }
    layers.insert(
        "cpu.unclassified_us_per_commit",
        pass.per_commit(pass.cpu.unclassified_us() as f64),
    );
    layers.insert(
        "cpu.process_us_per_commit",
        pass.per_commit(pass.cpu.process_us() as f64),
    );
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_open_loop() {
        let spec = WORKLOADS[0];
        let a = schedule(&spec, 9, 0, 2_000_000);
        assert_eq!(a.len(), schedule(&spec, 9, 0, 2_000_000).len());
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(a.iter().all(|op| op.account != 0 && op.account < N as u32));
        // Half of each rate per connection, over two seconds.
        let transfers = a.iter().filter(|op| op.kind == OpKind::Transfer).count();
        assert!((1_800..2_200).contains(&transfers), "{transfers} transfers");
    }

    /// A seconds-long run of every workload, untraced and traced, must
    /// pass the correctness battery with nothing failed.
    #[test]
    fn every_workload_smokes() {
        for spec in WORKLOADS {
            for traced in [false, true] {
                let pass = run_pass(&spec, 1, 1, traced, 1).expect("run");
                assert!(
                    pass.violations.is_empty(),
                    "{}: {:?}",
                    spec.name,
                    pass.violations
                );
                assert_eq!(pass.failed, 0, "{}", spec.name);
                assert!(pass.window_commits > 0, "{}", spec.name);
                assert!(pass.lag_valid(&spec), "{}", spec.name);
                let layers = cpu_layers(&pass);
                let parts: f64 = layers
                    .iter()
                    .filter(|(k, _)| **k != "cpu.process_us_per_commit")
                    .map(|(_, v)| v)
                    .sum();
                let process = layers["cpu.process_us_per_commit"];
                assert!((parts - process).abs() < 1e-6 * process.max(1.0));
            }
        }
    }
}
