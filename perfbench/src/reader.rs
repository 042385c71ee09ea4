//! The open-loop reader: Zipf-skewed point lookups through a
//! `ServeHandle` at a fixed rate, each timed from its *scheduled* send time
//! so a late generator or a stalled store shows up as latency instead of
//! silently thinning the load (no coordinated omission).

use crate::util::quantile;
use i2mr_datagen::zipf::Zipf;
use i2mr_store::serve::ServeHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Zipf exponent of the key popularity: YCSB's default request
/// distribution (Cooper et al., "Benchmarking Cloud Serving Systems with
/// YCSB", SoCC 2010).
const ZIPF_S: f64 = 0.99;

#[derive(Default)]
pub struct ReaderReport {
    /// Completion minus scheduled send time, per lookup.
    pub latency_ns: Vec<f64>,
    /// Actual send minus scheduled send time (how late the generator ran).
    pub send_delay_ns: Vec<f64>,
    /// The send delays of lookups whose predecessor had completed before
    /// they were due: the generator's own lateness (sleep wake-up, waiting
    /// for a CPU), without the backlog a blocked lookup leaves behind.
    pub wake_delay_ns: Vec<f64>,
    /// Completion minus actual send time (the lookup's own service time).
    pub service_ns: Vec<f64>,
    pub attempted: u64,
    pub errors: u64,
    /// Lookups of a live key that returned `None`.
    pub nones: u64,
    /// CPU time of the reader thread, and its time runnable but waiting for
    /// a CPU (`/proc/thread-self/schedstat`; 0 where that is missing).
    pub cpu_s: f64,
    pub runqueue_s: f64,
    /// Wall time the reader ran.
    pub wall_s: f64,
    /// Idle single-thread lookup throughput measured before the run, 1/s.
    pub idle_hz: f64,
}

impl ReaderReport {
    pub fn failed(&self) -> u64 {
        self.errors + self.nones
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        quantile(&self.latency_ns, q) / 1e3
    }

    pub fn send_delay_us(&self, q: f64) -> f64 {
        quantile(&self.send_delay_ns, q) / 1e3
    }

    pub fn wake_delay_us(&self, q: f64) -> f64 {
        quantile(&self.wake_delay_ns, q) / 1e3
    }

    pub fn service_us(&self, q: f64) -> f64 {
        quantile(&self.service_ns, q) / 1e3
    }
}

/// On-CPU and runqueue-wait seconds of the calling thread.
fn thread_sched_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = stat
        .split_whitespace()
        .map(|t| t.parse::<f64>().unwrap_or(0.0));
    (f.next().unwrap_or(0.0) / 1e9, f.next().unwrap_or(0.0) / 1e9)
}

/// Idle single-thread `ServeHandle::get` throughput, in lookups per
/// second: `n` back-to-back lookups drawn as the reader draws them.
pub fn idle_throughput(
    serve: &ServeHandle<'_>,
    keys: &[(usize, Vec<u8>)],
    n: usize,
    seed: u64,
) -> f64 {
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    for _ in 0..n {
        let (p, key) = &keys[zipf.sample(&mut rng)];
        let _ = serve.get(*p, key);
    }
    n as f64 / t.elapsed().as_secs_f64()
}

/// Issue lookups of `keys` (shard, encoded key; all live) at `rate_hz`
/// until `stop` is raised. While `paused` is raised no lookups are due and
/// the thread parks (whoever drops `paused` or raises `stop` unparks it);
/// the schedule restarts when it drops.
pub fn run(
    serve: &ServeHandle<'_>,
    keys: &[(usize, Vec<u8>)],
    rate_hz: f64,
    seed: u64,
    paused: &AtomicBool,
    stop: &AtomicBool,
) -> ReaderReport {
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed);
    let interval = Duration::from_secs_f64(1.0 / rate_hz);
    let mut rep = ReaderReport::default();
    let (started, sched0) = (Instant::now(), thread_sched_s());
    let mut t0 = Instant::now();
    let mut k: u32 = 0;
    let mut prev_done = t0;
    while !stop.load(Ordering::Relaxed) {
        if paused.load(Ordering::Relaxed) {
            std::thread::park_timeout(Duration::from_millis(100));
            (t0, k) = (Instant::now(), 0);
            prev_done = t0;
            continue;
        }
        let scheduled = t0 + interval * k;
        k += 1;
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let (p, key) = &keys[zipf.sample(&mut rng)];
        let sent = Instant::now();
        let got = serve.get(*p, key);
        let done = Instant::now();
        rep.attempted += 1;
        let delay = sent.saturating_duration_since(scheduled).as_nanos() as f64;
        rep.send_delay_ns.push(delay);
        if prev_done <= scheduled {
            rep.wake_delay_ns.push(delay);
        }
        prev_done = done;
        rep.latency_ns
            .push(done.saturating_duration_since(scheduled).as_nanos() as f64);
        rep.service_ns
            .push(done.saturating_duration_since(sent).as_nanos() as f64);
        match got {
            Ok(Some(_)) => {}
            Ok(None) => rep.nones += 1,
            Err(_) => rep.errors += 1,
        }
    }
    let sched = thread_sched_s();
    (rep.cpu_s, rep.runqueue_s) = (sched.0 - sched0.0, sched.1 - sched0.1);
    rep.wall_s = started.elapsed().as_secs_f64();
    rep
}
