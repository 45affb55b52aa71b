//! `perfbench` — the netdir serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload route|policy --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run generates its workload's
//! directory from the seed, writes it as LDIF, builds and starts the
//! release `netdird` on it with default serving flags, drives it over
//! `WireClient`, checks every answer against an oracle, and prints one
//! JSON object as its last line of output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the same requests in-process
//! through each layer's public functions and reports per-layer metrics.
//! A wrong answer exits with status 1.

mod daemon;
mod drive;
mod report;
mod trace;
mod workload;

use daemon::{Daemon, TICKS_PER_SEC};
use report::{highest, lowest, median, percentile, split, Metrics};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;
use workload::{Kind, Workload};

/// Daemon start-ups per run: at least `MIN_SETUPS`, then more until
/// they add up to `SETUP_BUDGET_S` or reach `MAX_SETUPS`. `setup_s` is
/// their median, so cheap start-ups get more samples.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 4.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Files of one run, under the target directory; removed at the end.
struct RunDir(PathBuf);

impl RunDir {
    fn create(kind: Kind, seed: u64) -> Result<RunDir, String> {
        let dir = daemon::target_dir().join("perfbench").join(format!(
            "{}-{seed}-{}",
            kind.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Start the daemon repeatedly (see `MIN_SETUPS`); keep the last one
/// running. Returns it with the median spawn-to-first-Ping time.
fn start_daemon(bin: &Path, run: &RunDir) -> Result<(Daemon, f64), String> {
    let ldif = run.path("directory.ldif");
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let (daemon, secs) = Daemon::start(bin, &ldif)?;
        setups.push(secs);
        let spent: f64 = setups.iter().sum();
        if setups.len() >= MAX_SETUPS || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            return Ok((daemon, median(&setups)));
        }
        daemon.stop()?;
    }
}

fn run(args: &Args) -> Result<(Metrics, bool), String> {
    let bin = daemon::build_netdird()?;
    let work = Workload::generate(args.kind, args.seed);
    let run = RunDir::create(args.kind, args.seed)?;
    std::fs::write(run.path("directory.ldif"), &work.ldif)
        .map_err(|e| format!("writing LDIF: {e}"))?;
    let total = Duration::from_secs(args.seconds);
    if args.trace {
        return trace::run(&bin, &run, &work, total);
    }

    let (daemon, setup_s) = start_daemon(&bin, &run)?;
    let r = drive::drive(&daemon, &work, total / 4, total, total / 3)?;
    daemon.stop()?;
    for w in &r.wrong {
        eprintln!("perfbench: WRONG: {w}");
    }
    let mut m = Metrics::new(
        r.reads_attempted + r.writes_attempted,
        r.reads_failed + r.writes_failed,
    );
    m.put("setup_s", setup_s, "s");
    // Each timing comes from the part of its phase where it reads best:
    // interference from other tenants of the machine only ever slows the
    // daemon down, so the best part is the closest to its own speed.
    // `percentile` of an empty part is NaN, which `lowest` skips.
    let best = |parts: &[Vec<f64>], q: f64| lowest(parts.iter().map(|p| percentile(p, q)));
    let bounds: Vec<_> = r.window.iter().map(|mark| mark.at).collect();
    let reads = split(&r.reads, &bounds);
    let filled = || (0..reads.len()).filter(|&i| !reads[i].is_empty());
    m.put("read_p50_ms", best(&reads, 0.50), "ms");
    m.put("read_p90_ms", best(&reads, 0.90), "ms");
    m.put(
        "read_rps",
        highest(
            filled().map(|i| reads[i].len() as f64 / (bounds[i + 1] - bounds[i]).as_secs_f64()),
        ),
        "1/s",
    );
    let writes = split(&r.writes, &r.write_bounds);
    m.put("write_p50_ms", best(&writes, 0.50), "ms");
    m.put("write_p90_ms", best(&writes, 0.90), "ms");
    let rss_mb = match r.rss_kb {
        Some(kb) => kb as f64 / 1024.0,
        None => {
            eprintln!(
                "perfbench: fewer than {} reads completed; daemon_rss_mb not sampled",
                work.kind.rss_sample_reads()
            );
            f64::NAN
        }
    };
    m.put("daemon_rss_mb", rss_mb, "MB");
    let cpu_ms = |i: usize| {
        (r.window[i + 1].cpu_ticks - r.window[i].cpu_ticks) as f64 * 1000.0 / TICKS_PER_SEC
    };
    m.put(
        "daemon_cpu_ms_per_op",
        lowest(filled().map(|i| cpu_ms(i) / reads[i].len() as f64)),
        "ms",
    );
    eprintln!(
        "perfbench: {} reads ({} in window), {} writes, error_ratio {:.6}",
        r.reads_attempted,
        r.reads.len(),
        r.writes_attempted,
        m.error_ratio()
    );
    Ok((m, r.wrong_count == 0))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload route|policy --seed N --seconds S --trace 0|1");
            exit(2)
        }
    };
    match run(&args) {
        Ok((metrics, correct)) => {
            // A metric that could not be measured makes the run incorrect.
            let ok = correct && metrics.all_finite();
            println!("{}", metrics.to_json(ok));
            if !ok {
                exit(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1)
        }
    }
}
