//! Clocks, process counters and the statistics every workload reports.

use fl_ctrl::{FrequencyController, MaxFreqController};
use fl_sim::FlSystem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `SCHED_IDLE` on Linux.
const SCHED_IDLE: i32 = 5;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // `struct timespec` on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User+system CPU time of the whole process (every thread, live or
/// exited), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// One busy-polling thread per CPU at the `SCHED_IDLE` scheduling class,
/// so no CPU of the (virtual) machine halts while they run. Any other
/// runnable thread preempts a spinner at once: they fill idle time only.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<u64>>,
}

impl Spinners {
    pub fn start(n: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: sets the calling thread's policy; `param` is a
                    // valid sched_param.
                    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
                    assert_eq!(rc, 0, "sched_setscheduler(SCHED_IDLE) failed");
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    clock_ns(CLOCK_THREAD_CPUTIME_ID)
                })
            })
            .collect();
        Spinners { stop, handles }
    }

    /// Stops the spinners and returns the CPU time they used, ns.
    pub fn stop(mut self) -> Result<u64, String> {
        self.stop.store(true, Ordering::Relaxed);
        std::mem::take(&mut self.handles)
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a SCHED_IDLE spinner failed".to_string())
            })
            .sum()
    }
}

impl Drop for Spinners {
    /// An early return still ends the spinners (the stop flag publishes
    /// nothing else, so `Relaxed` suffices).
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current RSS, so a later [`peak_rss_mib`] covers only what ran since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM via /proc/self/clear_refs: {e}"))
}

/// Process peak RSS (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Cumulative CPU ticks of the whole (virtual) machine from `/proc/stat`:
/// `(steal, total)`. Steal is time the hypervisor ran something else while
/// a CPU of this machine wanted to run.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen by the hypervisor between two [`host_ticks`].
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Nearest-rank percentile of an ascending slice: the sample at index
/// `ceil(q·n) − 1`. Returns the value and how many samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    (sorted[idx], sorted.len() - idx - 1)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).0
}

/// Wall times of set-up repetitions; the reported `setup_s` is their
/// median. Where a set-up is cheap next to an op, a workload spreads the
/// repetitions across the run (one after each measured op) so the median
/// sees the host as the ops do, not as it was in one burst.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one set-up. Only the part before `f` returns is timed; the
    /// value is dropped by the caller, untimed (tear-down is not set-up).
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let value = f()?;
        self.0.push(t0.elapsed().as_secs_f64());
        Ok(value)
    }

    pub fn reps(&self) -> usize {
        self.0.len()
    }

    /// Median set-up time, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }
}

/// How long a measured phase runs and how many ops it must complete.
#[derive(Debug, Clone, Copy)]
pub struct PhasePlan {
    /// Untimed ops before the phase (caches, lazy allocations).
    pub warmup_ops: usize,
    /// Minimum wall time of the phase.
    pub seconds: f64,
    /// Minimum ops of the phase: the phase runs past `seconds` until it
    /// has attempted this many, so the tail percentile always has ten
    /// samples beyond it.
    pub min_ops: usize,
    /// Trace every other measured op (odd op indices); the untraced ops in
    /// between are the reference for the tracing overhead.
    pub trace: bool,
}

/// What the measured ops of one load-generator thread produced.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    /// Per-op latency, milliseconds, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Whether each op of `latencies_ms` was traced.
    pub traced: Vec<bool>,
    /// Ops that failed (not part of `latencies_ms`).
    pub failed: usize,
    /// Wall and thread CPU time spent between ops (see [`measure_ops`]),
    /// seconds; excluded from the phase.
    pub between_wall_s: f64,
    pub between_cpu_s: f64,
}

/// Process-level clocks over a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Clocks {
    pub wall_s: f64,
    /// Process CPU time consumed.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal_frac: f64,
}

/// Runs `f` between readings of the wall clock, the process CPU clock and
/// the machine's steal ticks.
pub fn bracket<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, Clocks), String> {
    let ticks0 = host_ticks();
    let cpu0 = process_cpu_ns();
    let start = Instant::now();
    let value = f()?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu0) as f64 * 1e-9;
    let clocks = Clocks {
        wall_s,
        cpu_s,
        steal_frac: steal_frac(ticks0, host_ticks()),
    };
    Ok((value, clocks))
}

/// What a measured phase observed.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Per-op latency, milliseconds, of every thread.
    pub latencies_ms: Vec<f64>,
    /// Whether each op of `latencies_ms` was traced.
    pub traced: Vec<bool>,
    /// Ops that failed (not part of `latencies_ms`).
    pub failed: usize,
    /// The phase's clocks, time spent between ops taken out.
    pub clocks: Clocks,
}

impl Phase {
    /// Merges the ops of every thread of a phase run under `clocks`.
    pub fn new(threads: Vec<Ops>, mut clocks: Clocks) -> Phase {
        let (mut latencies_ms, mut traced, mut failed) = (Vec::new(), Vec::new(), 0);
        for ops in threads {
            latencies_ms.extend(ops.latencies_ms);
            traced.extend(ops.traced);
            failed += ops.failed;
            clocks.wall_s -= ops.between_wall_s;
            clocks.cpu_s -= ops.between_cpu_s;
        }
        Phase {
            latencies_ms,
            traced,
            failed,
            clocks,
        }
    }

    /// Ops attempted in the phase.
    pub fn attempted(&self) -> usize {
        self.latencies_ms.len() + self.failed
    }

    /// Mean latency of the traced (or untraced) ops, milliseconds.
    pub fn mean_latency_ms(&self, traced: bool) -> f64 {
        let picked: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&l, _)| l)
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    }
}

/// Whether op `index` of a phase planned with `trace` is traced.
pub fn is_traced(trace: bool, index: usize) -> bool {
    trace && index % 2 == 1
}

/// Runs the plan's untimed warm-up ops, indices `0..warmup_ops`. A failed
/// warm-up op is not scored; an error ends the run.
pub fn warm_up(
    plan: PhasePlan,
    op: &mut impl FnMut(usize, bool) -> Result<bool, String>,
) -> Result<(), String> {
    for index in 0..plan.warmup_ops {
        op(index, false)?;
    }
    Ok(())
}

/// One thread's measured ops, from index `warmup_ops` on, until `seconds`
/// have passed and at least `min_ops` were attempted. `op(index, traced)`
/// returns whether the op succeeded: a failed op is counted, an error
/// ends the run. `between` runs after each op, outside the op's latency
/// and outside the phase's clocks.
pub fn measure_ops(
    plan: PhasePlan,
    op: &mut impl FnMut(usize, bool) -> Result<bool, String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Ops, String> {
    let mut ops = Ops::default();
    let budget = Duration::from_secs_f64(plan.seconds);
    let start = Instant::now();
    let mut index = plan.warmup_ops;
    while start.elapsed() < budget || ops.latencies_ms.len() + ops.failed < plan.min_ops {
        let trace = is_traced(plan.trace, index);
        let t0 = Instant::now();
        let ok = op(index, trace)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        index += 1;
        if ok {
            ops.latencies_ms.push(ms);
            ops.traced.push(trace);
        } else {
            ops.failed += 1;
        }
        let (cpu0, t1) = (clock_ns(CLOCK_THREAD_CPUTIME_ID), Instant::now());
        between()?;
        ops.between_wall_s += t1.elapsed().as_secs_f64();
        ops.between_cpu_s += (clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0) as f64 * 1e-9;
    }
    Ok(ops)
}

/// A warm-up and a measured phase of `op` on the calling thread.
pub fn run_phase(
    plan: PhasePlan,
    mut op: impl FnMut(usize, bool) -> Result<bool, String>,
    between: impl FnMut() -> Result<(), String>,
) -> Result<Phase, String> {
    warm_up(plan, &mut op)?;
    let (ops, clocks) = bracket(|| measure_ops(plan, &mut op, between))?;
    Ok(Phase::new(vec![ops], clocks))
}

/// `Σ DRL cost / Σ MaxFreq cost` of single FL iterations: `steps` holds
/// each iteration's start time and the Eq. 9 cost of the DRL decision
/// there; MaxFreq runs from the same start times on `sys`.
pub fn cost_vs_maxfreq(
    sys: &FlSystem,
    steps: impl IntoIterator<Item = (f64, f64)>,
) -> Result<f64, String> {
    let lambda = sys.config().lambda;
    let (mut drl, mut max) = (0.0, 0.0);
    for (k, (t, cost)) in steps.into_iter().enumerate() {
        let freqs = MaxFreqController
            .decide(k, t, sys, None)
            .map_err(|e| e.to_string())?;
        let report = sys.run_iteration(t, &freqs).map_err(|e| e.to_string())?;
        drl += cost;
        max += report.cost(lambda);
    }
    Ok(drl / max)
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), (50.0, 50));
        assert_eq!(percentile(&v, 0.9), (90.0, 10));
        assert_eq!(percentile(&v, 0.99), (99.0, 1));
        assert_eq!(percentile(&v, 1.0), (100.0, 0));
    }

    #[test]
    fn process_clocks_advance() {
        let c0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        assert!(x > 0);
        assert!(process_cpu_ns() > c0);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
