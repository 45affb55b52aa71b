//! A directory server node: one thread, one naming context, one indexed
//! store.
//!
//! Nodes answer atomic queries (and baseline LDAP queries) over a
//! crossbeam channel. Entries cross the "wire" in their on-page encoding,
//! so shipped bytes are measured with the same codec the pager uses.
//!
//! A node encodes each hit straight into the reply as its store visits
//! it: no result list is written, so the store's pager allocates no page
//! after the build however many queries the node answers.

use crossbeam::channel::{unbounded, Receiver, Sender};
use netdir_filter::{AtomicFilter, CompositeFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_model::{Directory, Dn, Entry};
use netdir_pager::record::Record;
use netdir_pager::{Pager, PagerError, PagerResult};
use std::thread::JoinHandle;

/// Configuration of one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Human-readable name (e.g. `research-dsa`).
    pub name: String,
    /// The naming context this server owns.
    pub context: Dn,
    /// Page size of the server's local store.
    pub page_size: usize,
    /// Buffer-pool frames of the server's local store.
    pub frames: usize,
}

impl ServerConfig {
    /// Config with default store sizing.
    pub fn new(name: impl Into<String>, context: Dn) -> ServerConfig {
        ServerConfig {
            name: name.into(),
            context,
            page_size: 4096,
            frames: 64,
        }
    }
}

/// A request to a server node.
pub enum Request {
    /// Evaluate an atomic query; respond with encoded sorted entries.
    Atomic {
        /// Base DN.
        base: Dn,
        /// Scope.
        scope: Scope,
        /// Filter.
        filter: AtomicFilter,
        /// Reply channel.
        reply: Sender<Result<Vec<Vec<u8>>, String>>,
    },
    /// Evaluate a baseline LDAP query (single base/scope/composite filter).
    Ldap {
        /// Base DN.
        base: Dn,
        /// Scope.
        scope: Scope,
        /// Composite filter.
        filter: CompositeFilter,
        /// Reply channel.
        reply: Sender<Result<Vec<Vec<u8>>, String>>,
    },
    /// Stop the node thread.
    Shutdown,
}

/// Handle to a running server node.
pub struct ServerNode {
    /// The node's configuration.
    pub config: ServerConfig,
    /// Number of entries this node stores.
    pub num_entries: usize,
    sender: Sender<Request>,
    handle: Option<JoinHandle<()>>,
}

impl ServerNode {
    /// Spawn a node owning `entries` (they must belong to the node's
    /// context; the cluster builder partitions accordingly).
    pub fn spawn(config: ServerConfig, entries: Vec<Entry>) -> ServerNode {
        let num_entries = entries.len();
        let (sender, receiver) = unbounded::<Request>();
        let cfg = config.clone();
        let handle = std::thread::Builder::new()
            .name(format!("dsa-{}", config.name))
            .spawn(move || node_loop(cfg, entries, receiver))
            .expect("spawn server thread");
        ServerNode {
            config,
            num_entries,
            sender,
            handle: Some(handle),
        }
    }

    /// The request channel.
    pub fn sender(&self) -> Sender<Request> {
        self.sender.clone()
    }

    /// Synchronously run an atomic query against this node, returning
    /// decoded entries (test/convenience path; the distributed evaluator
    /// speaks the channel protocol directly).
    pub fn atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> Result<Vec<Entry>, String> {
        let (reply, rx) = unbounded();
        self.sender
            .send(Request::Atomic {
                base: base.clone(),
                scope,
                filter: filter.clone(),
                reply,
            })
            .map_err(|e| e.to_string())?;
        let encoded = rx.recv().map_err(|e| e.to_string())??;
        decode_entries(&encoded).map_err(|e| e.to_string())
    }

    /// Synchronously run a baseline LDAP query against this node.
    pub fn ldap(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
    ) -> Result<Vec<Entry>, String> {
        let (reply, rx) = unbounded();
        self.sender
            .send(Request::Ldap {
                base: base.clone(),
                scope,
                filter: filter.clone(),
                reply,
            })
            .map_err(|e| e.to_string())?;
        let encoded = rx.recv().map_err(|e| e.to_string())??;
        decode_entries(&encoded).map_err(|e| e.to_string())
    }
}

impl Drop for ServerNode {
    fn drop(&mut self) {
        let _ = self.sender.send(Request::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn node_loop(config: ServerConfig, entries: Vec<Entry>, receiver: Receiver<Request>) {
    // Build the local store.
    let pager = Pager::new(config.page_size, config.frames);
    let mut dir = Directory::new();
    for e in entries {
        // Partitioned input is disjoint; duplicates impossible.
        dir.insert(e).expect("cluster partitioning yields valid disjoint entries");
    }
    let idx = IndexedDirectory::build(&pager, &dir).expect("index build");

    while let Ok(req) = receiver.recv() {
        match req {
            Request::Shutdown => break,
            Request::Atomic {
                base,
                scope,
                filter,
                reply,
            } => {
                let result = encode_reply(|visit| idx.visit_atomic(&base, scope, &filter, visit));
                let _ = reply.send(result.map_err(|e| e.to_string()));
            }
            Request::Ldap {
                base,
                scope,
                filter,
                reply,
            } => {
                let result = encode_reply(|visit| {
                    idx.visit_scope(&base, scope, |e| filter.matches(e), visit)
                });
                let _ = reply.send(result.map_err(|e| e.to_string()));
            }
        }
    }
}

/// Run a store visit with an encoder as its sink: the wire reply, one
/// encoded entry per hit, in visit (key) order.
fn encode_reply(
    run: impl FnOnce(&mut dyn FnMut(&Entry) -> PagerResult<()>) -> PagerResult<()>,
) -> PagerResult<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    run(&mut |e| {
        let mut buf = Vec::new();
        e.encode(&mut buf);
        out.push(buf);
        Ok(())
    })?;
    Ok(out)
}

/// Decode wire-format entries.
pub fn decode_entries(encoded: &[Vec<u8>]) -> Result<Vec<Entry>, PagerError> {
    encoded.iter().map(|b| Entry::decode(b)).collect()
}

/// Total wire bytes of an encoded response.
pub fn wire_bytes(encoded: &[Vec<u8>]) -> u64 {
    encoded.iter().map(|b| b.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn entries() -> Vec<Entry> {
        ["dc=att, dc=com", "ou=p, dc=att, dc=com", "uid=a, ou=p, dc=att, dc=com"]
            .iter()
            .map(|s| {
                Entry::builder(dn(s))
                    .class("thing")
                    .attr("surName", "jagadish")
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn node_answers_atomic_queries() {
        let node = ServerNode::spawn(
            ServerConfig::new("att", dn("dc=att, dc=com")),
            entries(),
        );
        let hits = node
            .atomic(
                &dn("dc=att, dc=com"),
                Scope::Sub,
                &AtomicFilter::eq("surName", "jagadish"),
            )
            .unwrap();
        assert_eq!(hits.len(), 3);
        // Sorted on the wire.
        for w in hits.windows(2) {
            assert!(w[0].dn() < w[1].dn());
        }
    }

    #[test]
    fn node_answers_ldap_queries() {
        let node = ServerNode::spawn(
            ServerConfig::new("att", dn("dc=att, dc=com")),
            entries(),
        );
        let f = netdir_filter::parse_composite("(&(surName=jagadish)(uid=a))").unwrap();
        let hits = node.ldap(&dn("dc=att, dc=com"), Scope::Sub, &f).unwrap();
        assert_eq!(hits.len(), 1);
    }

    /// The node store of `entries`, built as `node_loop` builds it.
    fn store(pager: &Pager, entries: Vec<Entry>) -> IndexedDirectory {
        let mut dir = Directory::new();
        for e in entries {
            dir.insert(e).unwrap();
        }
        IndexedDirectory::build(pager, &dir).unwrap()
    }

    /// A reply encoded the list way: evaluate into a paged result list,
    /// read it back, encode each entry.
    fn list_encoding(
        idx: &IndexedDirectory,
        base: &Dn,
        scope: Scope,
        f: &AtomicFilter,
    ) -> Vec<Vec<u8>> {
        let list = idx.evaluate_atomic(base, scope, f).unwrap();
        list.iter()
            .map(|e| {
                let mut buf = Vec::new();
                e.unwrap().encode(&mut buf);
                buf
            })
            .collect()
    }

    /// Seeded random atomics over a TOPS directory: every filter kind,
    /// every scope, bases that exist, the root, and one that is absent.
    fn random_atomics(dir: &Directory, n: usize, seed: u64) -> Vec<(Dn, Scope, AtomicFilter)> {
        use netdir_filter::atomic::IntOp;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let dns: Vec<Dn> = dir.iter_sorted().map(|e| e.dn().clone()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let base = match rng.gen_range(0..10) {
                    0 => Dn::root(),
                    1 => dn("uid=user00, ou=userProfiles, dc=research, dc=att, dc=com"),
                    _ => dns[rng.gen_range(0..dns.len())].clone(),
                };
                let scope = [Scope::Base, Scope::One, Scope::Sub][rng.gen_range(0..3)];
                let v = rng.gen_range(0..10i64);
                let op =
                    [IntOp::Lt, IntOp::Le, IntOp::Gt, IntOp::Ge, IntOp::Eq][rng.gen_range(0..5)];
                let filter = match rng.gen_range(0..8) {
                    0 => AtomicFilter::True,
                    1 => AtomicFilter::False,
                    2 => AtomicFilter::present("startTime"),
                    3 => AtomicFilter::eq("objectClass", "callAppearance"),
                    4 => AtomicFilter::eq("surName", format!("family{v:02}")),
                    5 => AtomicFilter::int_cmp("priority", op, v % 4),
                    6 => netdir_filter::parse_atomic(&format!("commonName=*{v}*")).unwrap(),
                    _ => AtomicFilter::DnEq(
                        "member".into(),
                        dns[rng.gen_range(0..dns.len())].clone(),
                    ),
                };
                (base, scope, filter)
            })
            .collect()
    }

    #[test]
    fn node_replies_match_list_encoding() {
        let dir = netdir_workloads::tops_generate(netdir_workloads::TopsParams::default(), 7);
        let entries: Vec<Entry> = dir.iter_sorted().cloned().collect();
        let reference = store(&Pager::new(4096, 64), entries.clone());
        let node = ServerNode::spawn(ServerConfig::new("root", Dn::root()), entries);
        let mut hits = 0;
        for (base, scope, filter) in random_atomics(&dir, 1000, 11) {
            let (reply, rx) = unbounded();
            node.sender()
                .send(Request::Atomic {
                    base: base.clone(),
                    scope,
                    filter: filter.clone(),
                    reply,
                })
                .unwrap();
            let streamed = rx.recv().unwrap().unwrap();
            let expect = list_encoding(&reference, &base, scope, &filter);
            assert_eq!(streamed, expect, "({base} ? {scope} ? {filter})");
            hits += streamed.len();
        }
        assert!(hits > 1000, "the sample must return entries, got {hits}");
    }

    #[test]
    fn streamed_answers_write_and_allocate_no_page() {
        let dir = netdir_workloads::tops_generate(netdir_workloads::TopsParams::default(), 3);
        // A pool far smaller than the table, so reads evict.
        let pager = Pager::new(1024, 4);
        let idx = store(&pager, dir.iter_sorted().cloned().collect());
        pager.flush().unwrap();
        let pages = pager.pool().num_pages();
        pager.reset_io();
        let ldap = netdir_filter::parse_composite("(&(objectClass=QHP)(priority>=2))").unwrap();
        let mut shipped = 0;
        for (base, scope, filter) in random_atomics(&dir, 200, 5) {
            shipped += encode_reply(|visit| idx.visit_atomic(&base, scope, &filter, visit))
                .unwrap()
                .len();
            shipped +=
                encode_reply(|visit| idx.visit_scope(&base, scope, |e| ldap.matches(e), visit))
                    .unwrap()
                    .len();
        }
        let io = pager.io();
        assert!(
            shipped > 0 && io.reads > 0,
            "the answers must read the store"
        );
        assert_eq!(
            (io.writes, io.allocs),
            (0, 0),
            "serving wrote or allocated pages"
        );
        assert_eq!(pager.pool().num_pages(), pages);
    }

    #[test]
    fn shutdown_on_drop_joins_thread() {
        let node = ServerNode::spawn(ServerConfig::new("x", dn("dc=com")), vec![]);
        drop(node); // must not hang
    }
}
