//! The traced run: replay the requests an untraced daemon pass answered,
//! in-process, through each layer's public functions, recording spans
//! (name, start, end, parent, request id) in memory around every call.
//!
//! Layers and the calls timed for them:
//! - `model`: LDIF parsing; `journal`: store creation, batch apply, WAL
//!   image; `server`: cluster build, node fetches over the node channel,
//!   rebuild after a write; `index`: the node store's atomic evaluation;
//!   `core`: query parsing and operator evaluation; `wire`: request and
//!   response frame codecs; `pager`: page traffic of the stores and the
//!   per-query scratch pager.

use crate::daemon::Daemon;
use crate::drive::{self, DriveResult, ReadRecord};
use crate::report::{median, Metrics};
use crate::workload::{canonical, Workload};
use crate::RunDir;
use netdir_filter::{AtomicFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_journal::{JournalStore, MutationBatch};
use netdir_model::{ldif, Directory, Dn, Entry};
use netdir_pager::{ListWriter, PagedList, Pager, PagerError, PagerResult};
use netdir_query::{parse_query, AtomicSource, Evaluator};
use netdir_server::node::decode_entries;
use netdir_server::{Cluster, ClusterBuilder, ConsistencyMode, ServerNode};
use netdir_wire::{encode_entries, WireRequest, WireResponse};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of the in-process set-up; set-up metrics are medians.
const SETUP_REPEATS: usize = 3;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder for one thread of sequential calls.
struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn begin(&self, name: &'static str, req: u64) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent: self.open.borrow().last().copied(),
            req,
        });
        self.open.borrow_mut().push(id);
        id
    }

    fn end(&self, id: usize) {
        let now = self.t0.elapsed();
        self.spans.borrow_mut()[id].end = now;
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans close in stack order");
    }

    fn time<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let spans = self.spans.borrow();
        let mut out: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end - s.start);
            }
        }
        out
    }

    /// Per name: (spans, total self time in µs).
    fn by_name(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        let spans = self.spans.borrow();
        for (s, self_t) in spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_t.as_secs_f64() * 1e6;
        }
        out
    }

    /// Total duration of root spans named `name`, µs.
    fn root_total_us(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .sum()
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.req
            )?;
        }
        out.flush()
    }
}

/// The node store's atomic fetch as the router performs it (node channel
/// round trip, decode, merge onto the query's scratch pager), with a span
/// around the node round trip. Records each atomic for the index replay.
struct TracingSource<'a> {
    node: &'a ServerNode,
    scratch: &'a Pager,
    tracer: &'a Tracer,
    req: u64,
    atomics: RefCell<Vec<(Dn, Scope, AtomicFilter)>>,
    shipped: Cell<u64>,
}

impl AtomicSource for TracingSource<'_> {
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        self.atomics
            .borrow_mut()
            .push((base.clone(), scope, filter.clone()));
        let entries = self
            .tracer
            .time("server.atomic_fetch", self.req, || {
                self.node.atomic(base, scope, filter)
            })
            .map_err(|detail| PagerError::CorruptRecord { detail })?;
        self.shipped.set(self.shipped.get() + entries.len() as u64);
        let mut out = ListWriter::new(self.scratch);
        for e in &entries {
            out.push(e)?;
        }
        out.finish()
    }
}

/// Build the single-context cluster `netdird` builds by default.
fn build_cluster(dir: &Directory) -> Cluster {
    ClusterBuilder::new()
        .eval_threads(1)
        .server("root", Dn::root())
        .build(dir)
}

/// Wait until every node has built its store and answered one atomic.
fn wait_ready(cluster: &Cluster) -> Result<(), String> {
    for id in 0..cluster.num_servers() {
        cluster
            .node(id)
            .atomic(&Dn::root(), Scope::Base, &AtomicFilter::True)?;
    }
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Page traffic of one or more pagers.
#[derive(Default)]
struct PageTraffic {
    reads: u64,
    writes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PageTraffic {
    fn of(pager: &Pager) -> PageTraffic {
        let io = pager.io();
        let pool = pager.pool().metrics();
        PageTraffic {
            reads: io.reads,
            writes: io.writes,
            hits: pool.hits,
            misses: pool.misses,
            evictions: pool.evictions,
        }
    }

    fn add(&mut self, other: &PageTraffic) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    fn since(&self, earlier: &PageTraffic) -> PageTraffic {
        PageTraffic {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// The in-process stack `netdird` runs: the journal and the cluster
/// built from it, plus a replica of the node store's index.
struct Stack {
    journal: JournalStore,
    cluster: Cluster,
    replica: IndexedDirectory,
    replica_pager: Pager,
}

/// Build the stack `SETUP_REPEATS` times, timing each set-up layer;
/// returns the last stack and each layer's median time in ms.
fn set_up(
    tracer: &Tracer,
    ldif_text: &str,
) -> Result<(Stack, BTreeMap<&'static str, f64>), String> {
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut stack = None;
    for rep in 0..SETUP_REPEATS {
        let req = rep as u64;
        let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
            let t = Instant::now();
            let out = tracer.time(name, req, f);
            times
                .entry(name)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e3);
            out
        };
        let root = tracer.begin("harness.setup", req);
        let mut dir = None;
        timed("model.ldif_parse", &mut || {
            dir = Some(ldif::directory_from_ldif(ldif_text).map_err(err)?);
            Ok(())
        })?;
        let mut replica = None;
        timed("index.build", &mut || {
            // The node store's sizing (`ServerConfig::new`).
            let pager = Pager::new(4096, 64);
            let parsed = dir.as_ref().expect("parsed above");
            replica = Some((IndexedDirectory::build(&pager, parsed).map_err(err)?, pager));
            Ok(())
        })?;
        let mut journal = None;
        timed("journal.create", &mut || {
            let parsed = dir.take().expect("parsed above");
            journal =
                Some(JournalStore::create(&netdir_pager::default_pager(), parsed).map_err(err)?);
            Ok(())
        })?;
        let journal = journal.expect("created above");
        let mut cluster = None;
        timed("server.cluster_ready", &mut || {
            let c = journal.with_directory(build_cluster);
            wait_ready(&c)?;
            cluster = Some(c);
            Ok(())
        })?;
        tracer.end(root);
        let (replica, replica_pager) = replica.expect("built above");
        stack = Some(Stack {
            journal,
            cluster: cluster.expect("built above"),
            replica,
            replica_pager,
        });
    }
    let medians = times.iter().map(|(name, v)| (*name, median(v))).collect();
    Ok((stack.expect("SETUP_REPEATS > 0"), medians))
}

/// Counts gathered while replaying reads.
#[derive(Default)]
struct ReadCounts {
    reads: u64,
    fetches: u64,
    shipped: u64,
    response_bytes: u64,
    candidates: u64,
    hits: u64,
    pages: PageTraffic,
    untraced_us: f64,
    mismatches: u64,
}

/// One read through the layers with spans, then its atomics again on
/// the replica index. Returns the answer in wire encoding.
fn traced_read(
    tracer: &Tracer,
    stack: &Stack,
    req: u64,
    text: &str,
    counts: &mut ReadCounts,
) -> Result<Vec<Vec<u8>>, String> {
    let root = tracer.begin("harness.read", req);
    let text = tracer.time("wire.request_codec", req, || request_codec(text))?;
    let query = tracer
        .time("core.parse", req, || parse_query(&text))
        .map_err(err)?;
    let scratch = netdir_pager::default_pager();
    let source = TracingSource {
        node: stack.cluster.node(0),
        scratch: &scratch,
        tracer,
        req,
        atomics: RefCell::new(Vec::new()),
        shipped: Cell::new(0),
    };
    let entries = tracer
        .time("core.eval", req, || {
            Evaluator::new(&source, &scratch)
                .evaluate(&query)?
                .to_vec()
                .map_err(Into::into)
        })
        .map_err(|e: netdir_query::QueryError| e.to_string())?;
    let (answer, bytes) = tracer.time("wire.response_codec", req, || response_codec(&entries))?;
    tracer.end(root);
    counts.pages.add(&PageTraffic::of(&scratch));
    counts.fetches += source.atomics.borrow().len() as u64;
    counts.shipped += source.shipped.get();
    counts.response_bytes += bytes;

    let root = tracer.begin("index.replay", req);
    for (base, scope, filter) in source.atomics.borrow().iter() {
        let found = tracer
            .time("index.atomic_eval", req, || {
                stack.replica.evaluate_atomic(base, *scope, filter)
            })
            .map_err(err)?;
        counts.hits += found.len();
        counts.candidates += stack
            .replica
            .probe(filter)
            .map_or(0, |ids| ids.len() as u64);
    }
    tracer.end(root);
    Ok(answer)
}

/// The same read with no spans, through `Cluster::query_from_with` as
/// `netdird` serves it.
fn untraced_read(
    stack: &Stack,
    text: &str,
    counts: &mut ReadCounts,
) -> Result<Vec<Vec<u8>>, String> {
    let t = Instant::now();
    let text = request_codec(text)?;
    let query = parse_query(&text).map_err(err)?;
    let outcome = stack
        .cluster
        .query_from_with(
            "root",
            &netdir_pager::default_pager(),
            &query,
            ConsistencyMode::Strict,
        )
        .map_err(err)?;
    let (answer, _) = response_codec(&outcome.entries)?;
    counts.untraced_us += t.elapsed().as_secs_f64() * 1e6;
    Ok(answer)
}

/// Replay the daemon's reads, traced and untraced (alternating which
/// goes first), until `budget` is spent; both must reproduce the
/// daemon's answers.
fn replay_reads(
    tracer: &Tracer,
    stack: &Stack,
    work: &Workload,
    records: &[ReadRecord],
    budget: Duration,
) -> Result<ReadCounts, String> {
    let mut counts = ReadCounts::default();
    let replica_before = PageTraffic::of(&stack.replica_pager);
    let started = Instant::now();
    for (n, rec) in records.iter().enumerate() {
        if n > 0 && started.elapsed() >= budget {
            break;
        }
        let text = &work.read(rec).text;
        let req = n as u64;
        let (traced, untraced) = if n % 2 == 0 {
            let a = traced_read(tracer, stack, req, text, &mut counts)?;
            (a, untraced_read(stack, text, &mut counts)?)
        } else {
            let b = untraced_read(stack, text, &mut counts)?;
            (traced_read(tracer, stack, req, text, &mut counts)?, b)
        };
        // The daemon answered before any write, from the same LDIF, so
        // all three answers must match byte for byte.
        if traced != untraced || traced != rec.answer {
            counts.mismatches += 1;
            eprintln!("perfbench: WRONG: replayed read {n} differs from the daemon's answer");
        }
        counts.reads += 1;
    }
    let replica = PageTraffic::of(&stack.replica_pager).since(&replica_before);
    counts.pages.add(&replica);
    Ok(counts)
}

/// Counts gathered while replaying writes.
#[derive(Default)]
struct WriteCounts {
    writes: u64,
    wal_bytes: u64,
    wal_page_writes: u64,
}

/// Apply the daemon's committed batches in order, as `netdird` applies
/// each one, until `budget` is spent.
fn replay_writes(
    tracer: &Tracer,
    stack: &mut Stack,
    batches: &[MutationBatch],
    budget: Duration,
) -> Result<WriteCounts, String> {
    let mut counts = WriteCounts::default();
    let wal_writes_before = stack.journal.stats().wal_page_writes;
    let started = Instant::now();
    for (n, batch) in batches.iter().enumerate() {
        if n > 0 && started.elapsed() >= budget {
            break;
        }
        let req = n as u64;
        let root = tracer.begin("harness.write", req);
        tracer
            .time("journal.apply", req, || stack.journal.apply(batch))
            .map_err(err)?;
        let image = tracer
            .time("journal.wal_image", req, || stack.journal.wal_bytes())
            .map_err(err)?;
        counts.wal_bytes += image.len() as u64;
        tracer.time("server.rebuild", req, || {
            // Replacing the cluster drops the old generation's nodes.
            stack.cluster = stack.journal.with_directory(build_cluster);
        });
        tracer.time("server.node_ready", req, || wait_ready(&stack.cluster))?;
        tracer.end(root);
        counts.writes += 1;
    }
    counts.wal_page_writes = stack.journal.stats().wal_page_writes - wal_writes_before;
    Ok(counts)
}

pub fn run(
    bin: &Path,
    run: &RunDir,
    work: &Workload,
    total: Duration,
) -> Result<(Metrics, bool), String> {
    // The untraced daemon pass: the answers and write stream to replay.
    let (daemon, _) = Daemon::start(bin, &run.path("directory.ldif"))?;
    let pass: DriveResult = drive::drive(&daemon, work, total / 20, total / 3, total / 12)?;
    daemon.stop()?;
    for w in &pass.wrong {
        eprintln!("perfbench: WRONG: {w}");
    }

    let tracer = Tracer::new();
    let (mut stack, setup_ms) = set_up(&tracer, &work.ldif)?;
    let reads = replay_reads(&tracer, &stack, work, &pass.records, total / 3)?;
    let writes = replay_writes(&tracer, &mut stack, &pass.batches, total / 6)?;
    // After the replayed writes the store must still answer as the
    // oracle says.
    let mut after_writes_ok = true;
    if let Some(rec) = pass.records.first() {
        let read = work.read(rec);
        let query = parse_query(&read.text).map_err(err)?;
        let outcome = stack
            .cluster
            .query_from_with(
                "root",
                &netdir_pager::default_pager(),
                &query,
                ConsistencyMode::Strict,
            )
            .map_err(err)?;
        after_writes_ok = canonical(&outcome.entries) == read.expect;
        if !after_writes_ok {
            eprintln!("perfbench: WRONG: read after the replayed writes differs from the oracle");
        }
    }
    let correct = pass.wrong_count == 0 && reads.mismatches == 0 && after_writes_ok;

    let spans_path = crate::daemon::target_dir().join("perfbench").join(format!(
        "spans-{}-{}.jsonl",
        work.kind.name(),
        std::process::id()
    ));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok((
        report(&tracer, &pass, &setup_ms, &reads, &writes, &spans_path),
        correct,
    ))
}

/// Print the self-time tables and collect the per-layer metrics.
fn report(
    tracer: &Tracer,
    pass: &DriveResult,
    setup_ms: &BTreeMap<&'static str, f64>,
    r: &ReadCounts,
    w: &WriteCounts,
    spans_path: &Path,
) -> Metrics {
    let layers = tracer.by_name();
    println!(
        "traced run: {} reads, {} writes replayed; spans in {}",
        r.reads,
        w.writes,
        spans_path.display()
    );
    println!(
        "{:<24} {:>8} {:>14} {:>14}",
        "span", "count", "self_us_total", "self_us_each"
    );
    for (name, (count, total)) in &layers {
        println!(
            "{name:<24} {count:>8} {total:>14.1} {:>14.2}",
            total / *count as f64
        );
    }
    let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (_, total)) in &layers {
        let layer = name.split('.').next().unwrap_or(name);
        *per_layer.entry(layer).or_default() += total;
    }
    for (layer, total) in &per_layer {
        println!("layer {layer:<10} self_us_total {total:>14.1}");
    }
    let self_us = |name: &str| layers.get(name).map_or(0.0, |l| l.1);
    let per_span_us = |name: &str| layers.get(name).map_or(f64::NAN, |l| l.1 / l.0 as f64);
    // Stage sum against wall: the read stages' self times over the read
    // spans' wall time.
    let read_wall = tracer.root_total_us("harness.read");
    let read_stage_sum: f64 = READ_STAGES.iter().map(|n| self_us(n)).sum();
    println!(
        "read stages {read_stage_sum:.1} us of {read_wall:.1} us traced wall; untraced {:.1} us",
        r.untraced_us
    );
    let stats = &pass.stats_delta;
    println!(
        "daemon Stats deltas over the window: io_reads {} query_pages_sum {} pool_hits {} pool_misses {} pool_evictions {}",
        stats.io_reads, stats.query_pages_sum, stats.pool_hits, stats.pool_misses, stats.pool_evictions
    );

    let reads = r.reads.max(1) as f64;
    let writes = w.writes.max(1) as f64;
    let mut m = Metrics::new(
        pass.reads_attempted + pass.writes_attempted,
        pass.reads_failed + pass.writes_failed,
    );
    let setup = |name: &str| setup_ms.get(name).copied().unwrap_or(f64::NAN);
    m.put("model.ldif_parse_ms", setup("model.ldif_parse"), "ms");
    m.put("journal.create_ms", setup("journal.create"), "ms");
    m.put("index.build_ms", setup("index.build"), "ms");
    m.put(
        "server.cluster_ready_ms",
        setup("server.cluster_ready"),
        "ms",
    );
    m.put(
        "wire.request_codec_us",
        self_us("wire.request_codec") / reads,
        "us",
    );
    m.put(
        "wire.response_codec_us",
        self_us("wire.response_codec") / reads,
        "us",
    );
    m.put(
        "wire.response_bytes_per_read",
        r.response_bytes as f64 / reads,
        "bytes",
    );
    m.put("core.parse_us", self_us("core.parse") / reads, "us");
    m.put("core.eval_self_us", self_us("core.eval") / reads, "us");
    m.put("server.atomics_per_read", r.fetches as f64 / reads, "count");
    m.put(
        "server.atomic_fetch_us",
        per_span_us("server.atomic_fetch"),
        "us",
    );
    m.put(
        "server.entries_shipped_per_read",
        r.shipped as f64 / reads,
        "count",
    );
    m.put(
        "index.atomic_eval_us",
        per_span_us("index.atomic_eval"),
        "us",
    );
    m.put(
        "index.candidates_per_hit",
        r.candidates as f64 / r.hits.max(1) as f64,
        "ratio",
    );
    m.put(
        "pager.page_reads_per_read",
        r.pages.reads as f64 / reads,
        "count",
    );
    m.put(
        "pager.page_writes_per_read",
        r.pages.writes as f64 / reads,
        "count",
    );
    let lookups = (r.pages.hits + r.pages.misses).max(1) as f64;
    m.put(
        "pager.pool_hit_ratio",
        r.pages.hits as f64 / lookups,
        "ratio",
    );
    m.put(
        "pager.evictions_per_read",
        r.pages.evictions as f64 / reads,
        "count",
    );
    let window_reads = pass.reads.len().max(1) as f64;
    m.put(
        "server.stats_page_reads_per_read",
        stats.io_reads / window_reads,
        "count",
    );
    m.put("journal.apply_us", self_us("journal.apply") / writes, "us");
    m.put(
        "journal.wal_image_us",
        self_us("journal.wal_image") / writes,
        "us",
    );
    m.put(
        "journal.wal_image_bytes",
        w.wal_bytes as f64 / writes,
        "bytes",
    );
    m.put(
        "journal.wal_page_writes_per_write",
        w.wal_page_writes as f64 / writes,
        "count",
    );
    m.put(
        "server.rebuild_ms",
        self_us("server.rebuild") / writes / 1e3,
        "ms",
    );
    m.put(
        "server.node_ready_ms",
        self_us("server.node_ready") / writes / 1e3,
        "ms",
    );
    m.put("harness.error_ratio", m.error_ratio(), "ratio");
    m.put(
        "harness.stage_sum_ratio",
        read_stage_sum / read_wall,
        "ratio",
    );
    m.put(
        "harness.trace_overhead_us",
        (read_wall - r.untraced_us) / reads,
        "us",
    );
    m
}

/// The spans a read is split into.
const READ_STAGES: [&str; 5] = [
    "wire.request_codec",
    "core.parse",
    "core.eval",
    "server.atomic_fetch",
    "wire.response_codec",
];

/// What the client and the daemon do to a query: frame it as a `Query`
/// request and decode the frame.
fn request_codec(text: &str) -> Result<String, String> {
    let payload = WireRequest::Query {
        home: String::new(),
        text: text.to_string(),
    }
    .encode();
    match WireRequest::decode(&payload) {
        Ok(WireRequest::Query { text, .. }) => Ok(text),
        other => Err(format!("request codec returned {other:?}")),
    }
}

/// What the daemon and the client do to a result: encode the entries,
/// frame them as an `Entries` response, decode the frame. Returns the
/// entries in wire encoding and the response payload size.
fn response_codec(entries: &[Entry]) -> Result<(Vec<Vec<u8>>, u64), String> {
    let payload = WireResponse::Entries(encode_entries(entries)).encode();
    match WireResponse::decode(&payload) {
        Ok(WireResponse::Entries(encoded)) => {
            decode_entries(&encoded).map_err(err)?;
            Ok((encoded, payload.len() as u64))
        }
        other => Err(format!("response codec returned {other:?}")),
    }
}
