//! The untraced run: closed-loop readers, then a closed-loop write
//! probe, driving a live daemon over `WireClient`, every answer checked.

use crate::daemon::{self, Daemon, DaemonStats};
use crate::report::Sample;
use crate::workload::{canonical, effect_holds, Effect, Workload};
use netdir_filter::{AtomicFilter, Scope};
use netdir_journal::MutationBatch;
use netdir_server::node::decode_entries;
use netdir_wire::WireClient;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One completed read: which request of which client, and the answer
/// bytes as the daemon sent them.
pub struct ReadRecord {
    pub client: usize,
    pub request: usize,
    pub answer: Vec<Vec<u8>>,
}

#[derive(Default)]
pub struct DriveResult {
    /// Reads completed inside the measured window.
    pub reads: Vec<Sample>,
    /// Writes of the probe, timed from when each was sent.
    pub writes: Vec<Sample>,
    /// The probe's start, the boundaries between its `WRITE_PARTS`
    /// equal parts, and its end.
    pub write_bounds: Vec<Instant>,
    /// The daemon's CPU time at the start of the measured read window,
    /// at each boundary between its parts and at its end (see
    /// [`WindowMarks`]).
    pub window: Vec<Mark>,
    pub reads_attempted: u64,
    pub reads_failed: u64,
    pub writes_attempted: u64,
    pub writes_failed: u64,
    /// Operations answered wrongly, with a description of each (capped).
    pub wrong: Vec<String>,
    pub wrong_count: u64,
    /// The daemon's peak resident set (VmHWM, kB) once
    /// `Kind::rss_sample_reads` reads had completed; `None` if the run
    /// never got that far.
    pub rss_kb: Option<u64>,
    pub stats_delta: DaemonStats,
    /// Reads completed inside the window, per client in send order.
    pub records: Vec<ReadRecord>,
    /// The batches the write probe committed, in commit order.
    pub batches: Vec<MutationBatch>,
}

impl DriveResult {
    fn note_wrong(&mut self, what: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }
}

/// Per-thread tallies merged into the result after each phase.
#[derive(Default)]
struct Tally {
    reads: Vec<Sample>,
    writes: Vec<Sample>,
    reads_attempted: u64,
    reads_failed: u64,
    writes_attempted: u64,
    writes_failed: u64,
    records: Vec<ReadRecord>,
    effects: Vec<Effect>,
    batches: Vec<MutationBatch>,
}

/// The daemon's CPU time at one instant of the measured window.
#[derive(Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    /// utime + stime of all the daemon's threads, in clock ticks.
    pub cpu_ticks: u64,
}

/// Splits the measured window into parts: as the first read completes
/// past each of `due`, it samples the daemon's CPU time. Reads are then
/// assigned to parts by completion time between the marks, so each
/// part's reads and daemon CPU cover the same interval.
struct WindowMarks<'d> {
    daemon: &'d Daemon,
    due: Vec<Instant>,
    next: AtomicUsize,
    marks: Mutex<Vec<Mark>>,
}

impl<'d> WindowMarks<'d> {
    /// `parts` equal parts of `[start.at, end)`, `start` the first mark.
    fn new(daemon: &'d Daemon, start: Mark, end: Instant, parts: u32) -> WindowMarks<'d> {
        let part = end.saturating_duration_since(start.at) / parts;
        WindowMarks {
            daemon,
            due: (1..parts).map(|i| start.at + part * i).collect(),
            next: AtomicUsize::new(0),
            marks: Mutex::new(vec![start]),
        }
    }

    /// For the warm-up, which is not split.
    fn none(daemon: &'d Daemon) -> WindowMarks<'d> {
        WindowMarks {
            daemon,
            due: Vec::new(),
            next: AtomicUsize::new(0),
            marks: Mutex::new(Vec::new()),
        }
    }

    /// A mark that cannot be sampled is skipped, merging two parts; a
    /// daemon that has gone fails the run at [`WindowMarks::finish`].
    fn read_done(&self) {
        let i = self.next.load(Ordering::Relaxed);
        if i >= self.due.len() || Instant::now() < self.due[i] {
            return;
        }
        let claimed = self
            .next
            .compare_exchange(i, i + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if !claimed {
            return;
        }
        if let Ok(sample) = self.daemon.sample() {
            self.marks.lock().expect("marks lock").push(Mark {
                at: Instant::now(),
                cpu_ticks: sample.cpu_ticks,
            });
        }
    }

    /// All marks, the last taken now.
    fn finish(self) -> Result<Vec<Mark>, String> {
        let sample = self.daemon.sample()?;
        let mut marks = self.marks.into_inner().expect("marks lock");
        marks.push(Mark {
            at: Instant::now(),
            cpu_ticks: sample.cpu_ticks,
        });
        // Two readers can push marks out of order.
        marks.sort_by_key(|m| m.at);
        Ok(marks)
    }
}

/// Samples the daemon's peak resident set once, when the `at`-th read
/// of the run (warm-up included) completes. Memory is then compared
/// after the same amount of work on every run, not after however many
/// reads the window's throughput allowed: the node store keeps every
/// atomic result list on its pager, so the daemon grows with reads
/// served.
struct RssProbe<'d> {
    daemon: &'d Daemon,
    at: u64,
    done: AtomicU64,
    hwm_kb: OnceLock<Result<u64, String>>,
}

impl RssProbe<'_> {
    fn read_done(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.hwm_kb.set(self.daemon.sample().map(|s| s.hwm_kb));
        }
    }
}

/// Equal parts the write probe is split into, like the read window (see
/// `Kind::window_parts`).
const WRITE_PARTS: u32 = 3;

/// Drive `daemon` with `work` for a warm-up of `warmup`, then a measured
/// read window of `window`, then a closed-loop write probe of `probe`,
/// so writes never overlap the reads being measured; finally read back
/// every written DN.
pub fn drive(
    daemon: &Daemon,
    work: &Workload,
    warmup: Duration,
    window: Duration,
    probe: Duration,
) -> Result<DriveResult, String> {
    let readers: Vec<WireClient> = (0..work.kind.readers())
        .map(|_| daemon::client(daemon.addr, 1))
        .collect();
    let rss = RssProbe {
        daemon,
        at: work.kind.rss_sample_reads(),
        done: AtomicU64::new(0),
        hwm_kb: OnceLock::new(),
    };

    // Warm-up: the same request streams, checked but not timed.
    let mut result = DriveResult::default();
    let warm = run_phase(
        &readers,
        work,
        &vec![0; readers.len()],
        Instant::now() + warmup,
        &rss,
        &WindowMarks::none(daemon),
    );
    let mut next = Vec::new();
    for t in warm {
        next.push(t.reads_attempted as usize);
        result.reads_attempted += t.reads_attempted;
        result.reads_failed += t.reads_failed;
        for w in check_reads(work, &t.records) {
            result.note_wrong(w);
        }
    }

    let stats_before = DaemonStats::fetch(&readers[0])?;
    let start = Mark {
        cpu_ticks: daemon.sample()?.cpu_ticks,
        at: Instant::now(),
    };
    let end = start.at + window;
    let marks = WindowMarks::new(daemon, start, end, work.kind.window_parts());
    let tallies = run_phase(&readers, work, &next, end, &rss, &marks);
    result.window = marks.finish()?;
    let stats_after = DaemonStats::fetch(&readers[0])?;
    result.stats_delta = stats_after.since(&stats_before);
    result.rss_kb = rss.hwm_kb.into_inner().transpose()?;
    for mut t in tallies {
        result.reads.append(&mut t.reads);
        result.reads_attempted += t.reads_attempted;
        result.reads_failed += t.reads_failed;
        result.records.append(&mut t.records);
    }

    let writer = daemon::client(daemon.addr, 0);
    let probe_start = Instant::now();
    let t = write_loop(&writer, &mut work.writes(), probe_start + probe);
    result.write_bounds = (0..WRITE_PARTS)
        .map(|i| probe_start + probe * i / WRITE_PARTS)
        .chain([Instant::now()])
        .collect();
    result.writes = t.writes;
    result.writes_attempted = t.writes_attempted;
    result.writes_failed = t.writes_failed;
    result.batches = t.batches;
    for w in check_reads(work, &result.records) {
        result.note_wrong(w);
    }
    read_back(&readers[0], &t.effects, &mut result);
    Ok(result)
}

/// Closed loop: send client `c`'s requests from index `from` until
/// `end`, keeping every answer to check once the loop is over.
fn read_loop(
    client: &WireClient,
    work: &Workload,
    c: usize,
    from: usize,
    end: Instant,
    rss: &RssProbe<'_>,
    marks: &WindowMarks<'_>,
) -> Tally {
    let stream = &work.reads[c];
    let mut t = Tally::default();
    let mut i = from;
    while Instant::now() < end {
        t.reads_attempted += 1;
        let sent = Instant::now();
        let answer = client.query_encoded("", &stream[i % stream.len()].text);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match answer {
            Ok(answer) => {
                t.reads.push((Instant::now(), ms));
                t.records.push(ReadRecord {
                    client: c,
                    request: i,
                    answer,
                });
                rss.read_done();
            }
            Err(e) => {
                t.reads_failed += 1;
                eprintln!("perfbench: read failed: {e}");
            }
        }
        marks.read_done();
        i += 1;
    }
    t
}

/// Check answers against the oracle; describes each wrong one.
fn check_reads(work: &Workload, records: &[ReadRecord]) -> Vec<String> {
    let mut wrong = Vec::new();
    for rec in records {
        let read = work.read(rec);
        match decode_entries(&rec.answer) {
            Ok(entries) if canonical(&entries) == read.expect => {}
            Ok(entries) => wrong.push(format!(
                "client {} request {}: {} entries, expected {} for {}",
                rec.client,
                rec.request,
                entries.len(),
                read.expect.len(),
                read.text
            )),
            Err(e) => wrong.push(format!(
                "client {} request {}: undecodable answer: {e}",
                rec.client, rec.request
            )),
        }
    }
    wrong
}

/// Run every read client (client `c` from request `from[c]`) until
/// `end`. Client 0 runs on this thread and the second client, if any, on
/// one more, so the load generator never runs more threads than the
/// machine has cores (2).
fn run_phase(
    readers: &[WireClient],
    work: &Workload,
    from: &[usize],
    end: Instant,
    rss: &RssProbe<'_>,
    marks: &WindowMarks<'_>,
) -> Vec<Tally> {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..readers.len())
            .map(|c| {
                let (client, from) = (&readers[c], from[c]);
                s.spawn(move || read_loop(client, work, c, from, end, rss, marks))
            })
            .collect();
        let mut out = vec![read_loop(&readers[0], work, 0, from[0], end, rss, marks)];
        out.extend(others.into_iter().map(|h| h.join().expect("reader thread")));
        out
    })
}

/// Closed loop: send writes until `end`, each as soon as the previous
/// one completes, timed from when it was sent.
fn write_loop(
    client: &WireClient,
    writes: &mut impl Iterator<Item = (MutationBatch, Effect)>,
    end: Instant,
) -> Tally {
    let mut t = Tally::default();
    while Instant::now() < end {
        let (batch, effect) = writes.next().expect("the write stream is endless");
        t.writes_attempted += 1;
        let sent = Instant::now();
        match client.apply(&batch) {
            Ok(_) => {
                t.writes
                    .push((Instant::now(), sent.elapsed().as_secs_f64() * 1e3));
                t.effects.push(effect);
                t.batches.push(batch);
            }
            Err(e) => {
                t.writes_failed += 1;
                eprintln!("perfbench: write failed: {e}");
            }
        }
    }
    t
}

/// Read back the final state of every DN the writer touched.
fn read_back(client: &WireClient, effects: &[Effect], result: &mut DriveResult) {
    let mut last: BTreeMap<String, &Effect> = BTreeMap::new();
    for e in effects {
        last.insert(e.dn().to_string(), e);
    }
    for effect in last.values() {
        match client.atomic(effect.dn(), Scope::Base, &AtomicFilter::True) {
            Ok(found) if found.len() <= 1 && effect_holds(effect, found.first()) => {}
            Ok(found) => result.note_wrong(format!(
                "read-back of {}: {} entries do not show the last write",
                effect.dn(),
                found.len()
            )),
            Err(e) => result.note_wrong(format!("read-back of {} failed: {e}", effect.dn())),
        }
    }
}
