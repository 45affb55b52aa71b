//! Building, starting, sampling and stopping the release `netdird`.

use netdir_server::RetryPolicy;
use netdir_wire::{ClientOptions, WireClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Cargo's target directory for this checkout.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Build the release daemon from the checkout's workspace and return its
/// path. Run from the checkout root.
pub fn build_netdird() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--offline",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "netdir-wire",
            "--bin",
            "netdird",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building netdird failed: {status}"));
    }
    let bin = target_dir().join("release").join("netdird");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// A client that surfaces every failure instead of retrying it, so each
/// refused or failed operation is counted once. `pool` idle connections
/// are kept (0 closes each connection after its request).
pub fn client(addr: SocketAddr, pool: usize) -> WireClient {
    WireClient::connect(
        addr,
        ClientOptions {
            timeout: Duration::from_secs(60),
            pool_size: pool,
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..ClientOptions::default()
        },
    )
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// Daemon CPU and peak memory at one instant, from `/proc`.
#[derive(Clone, Copy)]
pub struct ProcSample {
    /// utime + stime of all threads, in clock ticks.
    pub cpu_ticks: u64,
    /// Peak resident set (VmHWM), kB.
    pub hwm_kb: u64,
}

/// Linux reports per-process CPU time in USER_HZ ticks, fixed at 100/s
/// by the kernel ABI.
pub const TICKS_PER_SEC: f64 = 100.0;

impl Daemon {
    /// Spawn `netdird` with default serving flags on `ldif` and wait for
    /// its first successful `Ping`. Returns the daemon and the time from
    /// spawn to that Ping.
    pub fn start(bin: &Path, ldif: &Path) -> Result<(Daemon, f64), String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--ldif")
            .arg(ldif)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn netdird: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = daemon.read_listen_addr()?;
        client(daemon.addr, 0)
            .ping()
            .map_err(|e| format!("first ping failed: {e}"))?;
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    /// Wait for the `serving N entries on ADDR` line.
    fn read_listen_addr(&mut self) -> Result<SocketAddr, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading netdird output: {e}"))?;
            if n == 0 {
                return Err("netdird exited before serving".into());
            }
            if let Some((_, addr)) = line.trim().split_once("entries on ") {
                return addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"));
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn sample(&self) -> Result<ProcSample, String> {
        let pid = self.pid();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        let cpu_ticks = tick(11)? + tick(12)?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        let hwm_kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(ProcSample { cpu_ticks, hwm_kb })
    }

    /// Ask the daemon to shut down and wait for it to exit; kill it if
    /// it has not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = client(self.addr, 0).shutdown_server();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return match (asked, status.success()) {
                        (Ok(()), true) => Ok(()),
                        (Err(e), _) => Err(format!("shutdown request failed: {e}")),
                        (_, false) => Err(format!("netdird exited with {status}")),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("netdird did not exit after Shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Counters of interest from one `Stats` exposition.
#[derive(Clone, Copy, Default)]
pub struct DaemonStats {
    pub io_reads: f64,
    pub query_pages_sum: f64,
    pub pool_hits: f64,
    pub pool_misses: f64,
    pub pool_evictions: f64,
}

impl DaemonStats {
    pub fn fetch(client: &WireClient) -> Result<DaemonStats, String> {
        let text = client.stats().map_err(|e| format!("stats: {e}"))?;
        let get = |name: &str| -> f64 {
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| v.trim().parse().ok())
                .unwrap_or(0.0)
        };
        Ok(DaemonStats {
            io_reads: get("netdir_io_reads_total"),
            query_pages_sum: get("netdir_query_pages_sum"),
            pool_hits: get("netdir_pool_hits_total"),
            pool_misses: get("netdir_pool_misses_total"),
            pool_evictions: get("netdir_pool_evictions_total"),
        })
    }

    pub fn since(&self, earlier: &DaemonStats) -> DaemonStats {
        DaemonStats {
            io_reads: self.io_reads - earlier.io_reads,
            query_pages_sum: self.query_pages_sum - earlier.query_pages_sum,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            pool_evictions: self.pool_evictions - earlier.pool_evictions,
        }
    }
}
