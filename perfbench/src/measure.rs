//! Timing windows, order statistics, output checks and the metric list.

use std::time::{Duration, Instant};

/// Most passes a run makes; per-pass buffers are reserved up front so
/// the number of passes never changes the allocation sequence.
pub const MAX_PASSES: usize = 128;

/// The measuring window of one run: passes continue until `seconds`
/// have elapsed, but never fewer than `min` and never more than `max`.
pub struct Window {
    start: Instant,
    budget: Duration,
    min: usize,
    max: usize,
}

impl Window {
    pub fn new(seconds: f64, min: usize, max: usize) -> Window {
        Window {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            min,
            max: max.min(MAX_PASSES),
        }
    }

    /// The window's length in seconds.
    pub fn seconds(&self) -> f64 {
        self.budget.as_secs_f64()
    }

    /// Whether pass number `done + 1` should run.
    pub fn open(&self, done: usize) -> bool {
        done < self.min || (done < self.max && self.start.elapsed() < self.budget)
    }
}

/// One pass-time buffer per cell, reserved for [`MAX_PASSES`].
pub fn buffers(n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|_| Vec::with_capacity(MAX_PASSES)).collect()
}

/// The CPU clocks a pass can be timed on. On a shared host a pass's wall
/// time also counts the time its threads waited for a CPU (other
/// processes, or the hypervisor running other guests on the same core);
/// CPU time leaves that out.
#[derive(Clone, Copy)]
pub enum Clock {
    /// CPU time of the calling thread, for single-threaded phases.
    Thread,
    /// CPU time of every thread of the process, for phases that fan out
    /// to worker threads: their wall time on a host with as many cores as
    /// workers mostly measures the scheduler.
    Process,
}

/// Seconds on `clock` (Linux `clock_gettime`).
fn cpu_seconds(clock: Clock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let id = match clock {
        Clock::Thread => CLOCK_THREAD_CPUTIME_ID,
        Clock::Process => CLOCK_PROCESS_CPUTIME_ID,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Run `f`, returning its value and the CPU seconds it took on `clock`.
pub fn timed_on<T>(clock: Clock, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = cpu_seconds(clock);
    let v = f();
    (v, cpu_seconds(clock) - t0)
}

/// Run `f`, returning its value and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// A fixed piece of host work every timed pass is measured against.
///
/// A shared host changes speed for minutes at a time: when its other
/// tenants are busy, clock frequency drops and the shared last-level
/// cache and memory slow down. Every pass of a run slows alike, so no
/// order statistic over one run's passes removes it, and runs minutes
/// apart disagree by a quarter. The calibration kernel runs right before
/// and after each timed phase and slows with the host; a phase's time
/// divided by the mean of the two kernel times is its cost in kernel
/// units, which stays put when the host changes speed and moves when the
/// simulator's code does. Interference that hits only the phase or only
/// a kernel run is short, so the median over the passes drops it. The
/// kernel is this file's code, so it is the same for every version of
/// the simulator measured.
///
/// The kernel splits its time evenly between the two things the
/// simulator's host time depends on: a register-only xorshift loop, and
/// lookups in a model of a three-level set-associative cache (48 KiB,
/// 2 MiB, 22 MiB of lines; about 5 MiB of tags and LRU stamps, more than
/// a core's L2) driven by a stream of mostly local and partly random
/// line addresses. Of the kernels tried against the simulator's replay
/// passes over twelve minutes of a busy host (an xorshift loop, pointer
/// chases through 1 MiB and 4 MiB, the cache model, and mixes of them),
/// this even split tracked them best: the median replay time over the
/// kernel time, taken over 20 to 40 passes, varied a seventh to a tenth
/// as much as the median replay time alone.
pub struct Calibration {
    levels: [Level; 3],
    rng: u64,
}

/// Xorshift rounds per kernel run.
const ALU_ROUNDS: u64 = 1_400_000;
/// Cache-model lookups per kernel run.
const MODEL_LOOKUPS: usize = 25_000;

/// The kernel's time on the reference host (a 2-vCPU KVM guest on a
/// Xeon Sapphire Rapids, thread CPU time, the median kernel run of the
/// benchmark's workloads). Calibrated times are reported as this many
/// seconds per kernel unit, so they read as seconds on that host at its
/// usual speed.
pub const REFERENCE_KERNEL_S: f64 = 0.011;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One level of the kernel's cache model: per-way tags and LRU stamps.
struct Level {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u32>,
    now: u32,
}

impl Level {
    fn new(bytes: usize, ways: usize) -> Level {
        let sets = bytes / 64 / ways;
        Level {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            now: 0,
        }
    }

    /// Look `line` up; on a miss it replaces the set's oldest way.
    fn access(&mut self, line: u64) -> bool {
        self.now = self.now.wrapping_add(1);
        let set = (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20) as usize % self.sets;
        let ways = set * self.ways..(set + 1) * self.ways;
        let mut victim = ways.start;
        for w in ways {
            if self.tags[w] == line {
                self.stamps[w] = self.now;
                return true;
            }
            if self.stamps[w] < self.stamps[victim] {
                victim = w;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.now;
        false
    }
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            levels: [
                Level::new(48 << 10, 12),
                Level::new(2 << 20, 16),
                Level::new(22 << 20, 11),
            ],
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Seconds one kernel run takes on `clock`.
    pub fn run(&mut self, clock: Clock) -> f64 {
        let (sink, t) = timed_on(clock, || {
            let mut x = 0x2545_f491_4f6c_dd1d_u64;
            for r in 0..ALU_ROUNDS {
                x = xorshift(&mut x).wrapping_add(r);
            }
            // Lines of a 1 GiB space: three lookups in four near a base
            // that moves every 64 lookups, the rest anywhere.
            let mut base = 0u64;
            for i in 0..MODEL_LOOKUPS {
                let r = xorshift(&mut self.rng);
                if i % 64 == 0 {
                    base = r % (1 << 24);
                }
                let line = if r & 3 != 0 {
                    base + (r >> 8) % 256
                } else {
                    (r >> 4) % (1 << 24)
                };
                let level = self.levels.iter_mut().position(|l| l.access(line));
                x = x.wrapping_add(level.map_or(4, |l| l as u64));
            }
            x
        });
        std::hint::black_box(sink);
        t
    }
}

/// Pass times of one run in kernel units: the phases timed since the
/// last kernel run are divided by the mean of that run and the next.
pub struct Calibrated<'a> {
    cal: &'a mut Calibration,
    clock: Clock,
    last: f64,
    /// Every kernel time of the run.
    pub kernel_s: Vec<f64>,
}

impl<'a> Calibrated<'a> {
    /// Start a run on `clock` with its first kernel run.
    pub fn new(cal: &'a mut Calibration, clock: Clock) -> Calibrated<'a> {
        let last = cal.run(clock);
        let mut kernel_s = Vec::with_capacity(16 * MAX_PASSES);
        kernel_s.push(last);
        Calibrated {
            cal,
            clock,
            last,
            kernel_s,
        }
    }

    /// Run `f`, returning its value and the seconds it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        timed_on(self.clock, f)
    }

    /// Close the phases timed since the last kernel run with another
    /// one; their times in kernel units.
    pub fn units<const N: usize>(&mut self, raw: [f64; N]) -> [f64; N] {
        let next = self.cal.run(self.clock);
        self.kernel_s.push(next);
        let unit = (self.last + next) / 2.0;
        self.last = next;
        raw.map(|t| t / unit)
    }
}

/// The fastest of `v`: interference only ever adds time, so the minimum
/// estimates the uncontended cost.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The sum of each buffer's fastest pass.
pub fn sum_fastest(v: &[Vec<f64>]) -> f64 {
    v.iter().map(|x| fastest(x)).sum()
}

/// The sum of each buffer's median.
pub fn sum_median(v: &[Vec<f64>]) -> f64 {
    v.iter().map(|x| median(x)).sum()
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Output checks: every check counts as attempted; failures keep their
/// message for the report.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }
}

/// Named metrics in report order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}
