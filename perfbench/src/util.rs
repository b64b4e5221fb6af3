//! Helpers the benchmark's numbers rest on: the seeded generator, the
//! Poisson schedule, the percentile rule, per-thread CPU accounting from
//! `/proc`, and metric-snapshot arithmetic. Each is covered by the unit
//! tests at the bottom of this file.

use at_obs::{HistogramSnapshot, MetricValue, NamedHistogram, Snapshot};
use std::collections::BTreeMap;

/// splitmix64: a small, fast, seedable generator. Every input the
/// benchmark sends is drawn from one of these, so a seed fixes the
/// inputs exactly.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The generator of stream `stream` under run seed `seed`. The run
    /// seed is mixed before the stream is folded in, so distinct
    /// `(seed, stream)` pairs never share a generator (XOR-ing a small
    /// stream number into the raw seed would map seed 2k's stream 0 onto
    /// seed 2k+1's stream 1).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mixed = Rng::new(seed).next_u64();
        Rng::new(Rng::new(mixed ^ stream).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..k`.
    pub fn below(&mut self, k: u64) -> u64 {
        self.next_u64() % k
    }
}

/// Arrival offsets in µs of a Poisson process of `rate` events per second
/// over `[0, until_us)`: exponential inter-arrival gaps of mean `1/rate`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, until_us: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mean_gap_us = 1e6 / rate;
    let mut t = 0.0f64;
    loop {
        // 1 - unit() is in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() * mean_gap_us;
        if t >= until_us as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// The percentile rule: a tail percentile is reported only as high as
/// the sample supports — the highest quantile with at least ten samples
/// beyond it — and never above `cap`. With fewer than 20 samples the
/// median is the highest supported quantile.
pub fn supported_quantile(samples: usize, cap: f64) -> f64 {
    if samples < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).min(cap)
}

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A latency sample summarised by the percentile rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tail {
    pub samples: usize,
    pub p50: u64,
    /// The quantile `tail` was taken at (see [`supported_quantile`]).
    pub tail_q: f64,
    pub tail: u64,
    /// Sub-windows `tail` is the median over (1: the pooled sample).
    pub subwindows: usize,
}

/// Median and the supported tail (capped at p99) of `values`.
pub fn tail_summary(values: &mut [u64]) -> Tail {
    values.sort_unstable();
    let tail_q = supported_quantile(values.len(), 0.99);
    Tail {
        samples: values.len(),
        p50: quantile_sorted(values, 0.5),
        tail_q,
        tail: quantile_sorted(values, tail_q),
        subwindows: 1,
    }
}

/// Samples each sub-window must hold for its own p99 to be supported.
const SUBWINDOW_SAMPLES: usize = 1_000;

/// [`tail_summary`] of `(at_us, value)` samples over `[from_us, to_us)`,
/// with the tail taken as the median of the p99s of `k` equal
/// sub-windows, where `k` is the most sub-windows (at most `max_k`) that
/// each hold about [`SUBWINDOW_SAMPLES`] samples. One stall then moves
/// one sub-window's p99 instead of the whole run's. With fewer than
/// three such sub-windows the tail is the pooled one.
pub fn subwindow_tail(samples: &[(u64, u64)], from_us: u64, to_us: u64, max_k: usize) -> Tail {
    let mut all: Vec<u64> = samples.iter().map(|(_, v)| *v).collect();
    let mut tail = tail_summary(&mut all);
    let k = (samples.len() / SUBWINDOW_SAMPLES).min(max_k);
    if k < 3 || to_us <= from_us {
        return tail;
    }
    let span = (to_us - from_us) as f64 / k as f64;
    let mut parts: Vec<Vec<u64>> = vec![Vec::new(); k];
    for &(at, v) in samples {
        let i = ((at.saturating_sub(from_us)) as f64 / span) as usize;
        parts[i.min(k - 1)].push(v);
    }
    let tails: Vec<f64> = parts
        .iter_mut()
        .map(|p| tail_summary(p).tail as f64)
        .collect();
    tail.tail = median(&tails) as u64;
    tail.tail_q = 0.99;
    tail.subwindows = k;
    tail
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Linux reports task times in USER_HZ ticks, which is 100 on every
/// mainstream architecture.
pub const TICK_US: u64 = 10_000;

/// The thread class of a runtime thread name: the name with its digits
/// stripped, so `at-node-p2-loop` and `at-node-p0-loop` group together.
/// (The kernel truncates names to 15 bytes, so `at-node-p0-dial-p1`
/// arrives as `at-node-p0-dial`.)
pub fn thread_class(name: &str) -> String {
    name.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Parses a `/proc/.../stat` line into `(comm, utime + stime ticks)`.
/// The comm field may itself hold spaces or parentheses, so the fields
/// are read after the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let fields: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    // After the comm: state(3) ... utime(14) stime(15), 1-based.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// `(steal, total)` ticks of the whole machine, from the `cpu` line of
/// `/proc/stat` (zeros when it cannot be read).
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// The steal share of the machine's ticks between two [`machine_ticks`].
pub fn steal_share(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        return 0.0;
    }
    end.0.saturating_sub(start.0) as f64 / total as f64
}

/// CPU ticks of the whole process, exited threads included.
pub fn process_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0, |(_, ticks)| ticks)
}

/// `(tid, comm, ticks)` of every live thread of this process.
pub fn thread_ticks() -> Vec<(u64, String, u64)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread can exit between the listing and the read.
        if let Some((comm, ticks)) = std::fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|s| parse_stat(&s))
        {
            out.push((tid, comm, ticks));
        }
    }
    out
}

/// Per-thread-class CPU over a window, built from repeated samples: each
/// thread is charged its last-seen ticks minus its ticks at the window
/// start (0 for threads born inside the window), so a thread that exits
/// between two samples keeps what it was seen using. Whatever the
/// process used beyond the attributed ticks is the unclassified
/// remainder.
#[derive(Default)]
pub struct CpuWindow {
    process_start: u64,
    process_end: u64,
    /// tid → (class, ticks at window start, last-seen ticks).
    threads: BTreeMap<u64, (String, u64, u64)>,
}

impl CpuWindow {
    pub fn start() -> CpuWindow {
        let mut w = CpuWindow {
            process_start: process_ticks(),
            ..CpuWindow::default()
        };
        for (tid, comm, ticks) in thread_ticks() {
            w.threads.insert(tid, (thread_class(&comm), ticks, ticks));
        }
        w
    }

    /// Records the current per-thread ticks (call before threads that
    /// must stay attributed exit).
    pub fn sample(&mut self) {
        for (tid, comm, ticks) in thread_ticks() {
            self.threads
                .entry(tid)
                .and_modify(|e| e.2 = ticks)
                .or_insert((thread_class(&comm), 0, ticks));
        }
    }

    /// Closes the window.
    pub fn end(&mut self) {
        self.sample();
        self.process_end = process_ticks();
    }

    pub fn process_us(&self) -> u64 {
        self.process_end.saturating_sub(self.process_start) * TICK_US
    }

    /// CPU µs per thread class over the window.
    pub fn classes_us(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (class, start, last) in self.threads.values() {
            *out.entry(class.clone()).or_insert(0) += last.saturating_sub(*start) * TICK_US;
        }
        out
    }

    /// CPU µs of the thread classes starting with `prefix`.
    pub fn prefix_us(&self, prefix: &str) -> u64 {
        self.classes_us()
            .iter()
            .filter(|(class, _)| class.starts_with(prefix))
            .map(|(_, us)| us)
            .sum()
    }

    /// Process CPU not attributed to any sampled thread (threads that
    /// were born and died between samples).
    pub fn unclassified_us(&self) -> i64 {
        let attributed: u64 = self.classes_us().values().sum();
        self.process_us() as i64 - attributed as i64
    }
}

/// Element-wise `end - start` of two snapshots of one node incarnation:
/// counters subtract, histogram buckets subtract (min/max are kept from
/// `end`, which still bound the window's samples).
pub fn snapshot_delta(end: &Snapshot, start: &Snapshot) -> Snapshot {
    let counters = end
        .counters
        .iter()
        .map(|m| MetricValue {
            name: m.name.clone(),
            value: m.value.saturating_sub(start.counter(&m.name).unwrap_or(0)),
        })
        .collect();
    let histograms = end
        .histograms
        .iter()
        .map(|h| {
            let before = start.histogram(&h.name).cloned().unwrap_or_default();
            let mut buckets = Vec::new();
            for &(index, n) in &h.hist.buckets {
                let old = before
                    .buckets
                    .iter()
                    .find(|(i, _)| *i == index)
                    .map_or(0, |(_, n)| *n);
                if n > old {
                    buckets.push((index, n - old));
                }
            }
            let count = buckets.iter().map(|(_, n)| n).sum();
            NamedHistogram {
                name: h.name.clone(),
                hist: HistogramSnapshot {
                    count,
                    sum: h.hist.sum.saturating_sub(before.sum),
                    min: if count == 0 { 0 } else { h.hist.min },
                    max: if count == 0 { 0 } else { h.hist.max },
                    buckets,
                },
            }
        })
        .collect();
    Snapshot {
        label: end.label.clone(),
        counters,
        gauges: end.gauges.clone(),
        histograms,
    }
}

/// Counters summed and histograms merged across snapshots.
pub fn snapshot_sum(parts: &[Snapshot]) -> Snapshot {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for part in parts {
        for m in &part.counters {
            *counters.entry(m.name.clone()).or_insert(0) += m.value;
        }
        for h in &part.histograms {
            hists.entry(h.name.clone()).or_default().merge(&h.hist);
        }
    }
    Snapshot {
        label: "sum".into(),
        counters: counters
            .into_iter()
            .map(|(name, value)| MetricValue { name, value })
            .collect(),
        gauges: Vec::new(),
        histograms: hists
            .into_iter()
            .map(|(name, hist)| NamedHistogram { name, hist })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_gap_matches_the_rate() {
        let mut rng = Rng::new(42);
        let arrivals = poisson_schedule(&mut rng, 2_000.0, 10_000_000);
        let mean_gap = 10_000_000.0 / arrivals.len() as f64;
        // 20k arrivals: the mean gap is within 2% of 500µs.
        assert!((mean_gap - 500.0).abs() < 10.0, "mean gap {mean_gap}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Same seed, same schedule.
        assert_eq!(
            arrivals,
            poisson_schedule(&mut Rng::new(42), 2_000.0, 10_000_000)
        );
        assert_ne!(
            arrivals,
            poisson_schedule(&mut Rng::new(43), 2_000.0, 10_000_000)
        );
    }

    #[test]
    fn stream_generators_differ_across_seeds_and_streams() {
        let first = |seed, stream| Rng::stream(seed, stream).next_u64();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            for stream in 0..4 {
                assert!(
                    seen.insert(first(seed, stream)),
                    "seed {seed} stream {stream}"
                );
            }
        }
        assert_eq!(first(12, 0), first(12, 0));
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond_the_tail() {
        assert_eq!(supported_quantile(100_000, 0.99), 0.99);
        assert_eq!(supported_quantile(1_000, 0.99), 0.99);
        assert!((supported_quantile(500, 0.99) - 0.98).abs() < 1e-12);
        assert_eq!(supported_quantile(5, 0.99), 0.5);
        for n in [20usize, 37, 500, 999, 1_000, 5_000] {
            let q = supported_quantile(n, 0.99);
            let rank = (q * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} q={q} leaves {} beyond", n - rank);
        }
        let mut v: Vec<u64> = (1..=1_000).rev().collect();
        let t = tail_summary(&mut v);
        assert_eq!((t.p50, t.tail, t.samples), (500, 990, 1_000));
    }

    #[test]
    fn subwindow_tail_ignores_one_stalled_subwindow() {
        // 10 one-second sub-windows of 2000 samples at 1..=2000µs; the
        // fourth also holds a 300ms stall covering a seventh of its samples.
        let mut samples = Vec::new();
        for s in 0..10u64 {
            for i in 0..2_000u64 {
                let stalled = s == 3 && i % 7 == 0;
                let v = if stalled { 300_000 } else { 1 + i };
                samples.push((s * 1_000_000 + i * 500, v));
            }
        }
        let t = subwindow_tail(&samples, 0, 10_000_000, 10);
        assert_eq!((t.subwindows, t.samples), (10, 20_000));
        assert_eq!(t.tail, 1_980);
        // Pooled, the stall sets the p99.
        let pooled = subwindow_tail(&samples, 0, 10_000_000, 1);
        assert_eq!((pooled.subwindows, pooled.tail), (1, 300_000));
        // Too few samples for three supported sub-windows: pooled.
        assert_eq!(
            subwindow_tail(&samples[..2_500], 0, 10_000_000, 10).subwindows,
            1
        );
    }

    #[test]
    fn thread_names_group_without_digits() {
        assert_eq!(thread_class("at-node-p0-loop"), "at-node-p-loop");
        assert_eq!(thread_class("at-node-p3-loop"), "at-node-p-loop");
        assert_eq!(thread_class("at-node-p1-dial"), "at-node-p-dial");
        assert_eq!(thread_class("at-node-decode-"), "at-node-decode-");
        assert_eq!(thread_class("at-node-acks"), "at-node-acks");
    }

    #[test]
    fn stat_lines_parse_after_the_last_paren() {
        let line = "123 (we)ird (name)) S 1 2 3 4 5 6 7 8 9 10 70 30 0 0 20";
        assert_eq!(parse_stat(line), Some(("we)ird (name)".into(), 100)));
        let (comm, _) = parse_stat(&std::fs::read_to_string("/proc/self/stat").unwrap()).unwrap();
        assert!(!comm.is_empty());
    }

    #[test]
    fn steal_share_is_a_fraction_of_machine_ticks() {
        assert_eq!(steal_share((10, 1_000), (30, 1_200)), 0.1);
        assert_eq!(steal_share((10, 1_000), (10, 1_000)), 0.0);
        let (steal, total) = machine_ticks();
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn snapshot_delta_subtracts_buckets() {
        let reg = at_obs::Registry::new("t");
        let c = reg.counter("c_total");
        let h = reg.histogram("h_us");
        c.add(5);
        h.record(10);
        let start = reg.snapshot();
        c.add(2);
        h.record(1_000);
        h.record(1_000);
        let d = snapshot_delta(&reg.snapshot(), &start);
        assert_eq!(d.counter("c_total"), Some(2));
        let dh = d.histogram("h_us").unwrap();
        assert_eq!((dh.count, dh.sum), (2, 2_000));
        let total = snapshot_sum(&[d.clone(), d]);
        assert_eq!(total.counter("c_total"), Some(4));
        assert_eq!(total.histogram("h_us").unwrap().count, 4);
    }
}
