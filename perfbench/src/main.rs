//! `ucm-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-long|sweep-many|oracle-fuzz|serve-mix> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the sweep workloads check their cells
//! against the committed `BENCH_sweep.json`. Every workload runs on one
//! worker thread. Human-readable detail goes to stderr; the last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run makes an untraced and a traced pass over the same
//! work and reports the per-layer ones.

mod layers;
mod oracle;
mod reference;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::time::Instant;

/// The seed the ROADMAP's loadgen uses; the default workload seed.
pub const DEFAULT_SEED: u64 = 12_648_430;

/// Set-ups per measurement: at least [`SETUP_MIN_REPEATS`], and more
/// until [`SETUP_MIN_S`] seconds have gone into them (at most
/// [`SETUP_MAX_REPEATS`]); `setup_s` is their median. A cheap set-up
/// thus gets dozens of samples rather than three timer-sized ones.
pub const SETUP_MIN_REPEATS: usize = 3;

/// Seconds of set-up to sample before taking the median.
pub const SETUP_MIN_S: f64 = 1.0;

/// Most set-ups a run makes.
pub const SETUP_MAX_REPEATS: usize = 200;

/// What one run measured.
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (cells, programs, requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit the `f64` holds.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Runs `setup` as [`SETUP_MIN_REPEATS`], [`SETUP_MIN_S`] and
/// [`SETUP_MAX_REPEATS`] say, keeping the last result and the median
/// wall time of all of them.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPEATS)
    {
        // Drop the previous result first, so each set-up starts from the
        // same state (a bound socket, say).
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let state = last.expect("at least one set-up ran");
    eprintln!(
        "setup: {} set-ups, median {:.6} s",
        times.len(),
        stats::median(&times)
    );
    Ok((state, stats::median(&times)))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a run leaves files (the server socket, the span list): the
/// package's own `target/`, relative so the socket path stays short.
pub fn scratch_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("perfbench/target");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Pins this thread, and every thread it starts from now on, to the CPU
/// it is running on; `None` (and the process left unpinned) if the
/// kernel refuses. On a shared VM a hand-off between threads on two
/// vCPUs can wait for the host to reschedule an idle vCPU, so a
/// client/server ping-pong spread over both vCPUs reads that wait as
/// latency; on one CPU it does not.
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and returns -1 on error.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a 1024-bit `cpu_set_t` that outlives the call,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// A one-worker pool: the vendored rayon spawns scoped workers on every
/// parallel call, so every sweep runs inside this to stay on one core.
pub fn one_worker() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("vendored pool build is infallible")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so every thread inherits the mask.
    match pin_to_current_cpu() {
        Some(cpu) => eprintln!("pinned to cpu {cpu}"),
        None => eprintln!("could not pin to one cpu; running unpinned"),
    }
    let result = match args.workload.as_str() {
        "sweep-long" => sweep::run(sweep::Kind::Long, &args),
        "sweep-many" => sweep::run(sweep::Kind::Many, &args),
        "oracle-fuzz" => oracle::run(&args),
        "serve-mix" => serve::run(&args),
        w => Err(format!("unknown workload `{w}`")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
