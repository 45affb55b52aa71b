//! Seeded workload generation: the directory each workload serves, the
//! read requests its clients send with the answers an oracle expects,
//! and the single-entry write batches its writer submits.

use netdir_apps::qos::{oracle_decide, PolicyEngine};
use netdir_apps::tops::{oracle_route, TopsRouter};
use netdir_filter::{AtomicFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_journal::{Mutation, MutationBatch};
use netdir_model::{ldif, Directory, Dn, Entry, Value};
use netdir_query::{Query, RefOp};
use netdir_workloads::qos::{qos_generate, Packet, QosParams, QOS_BASE};
use netdir_workloads::tops::{subscriber_dn, tops_generate, CallRequest, TopsParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TOPS call routing: many small subtree-local L2 queries.
    Route,
    /// QoS policy decisions: one whole-set L3 composition per packet.
    Policy,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "route" => Some(Kind::Route),
            "policy" => Some(Kind::Policy),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Route => "route",
            Kind::Policy => "policy",
        }
    }

    /// Closed-loop read clients.
    pub fn readers(self) -> usize {
        match self {
            Kind::Route => 2,
            Kind::Policy => 1,
        }
    }

    /// Equal parts the measured window is split into; each end-to-end
    /// read metric is taken from the part where it reads best. Route
    /// parts hold ≈2k reads each, policy parts ≈30.
    pub fn window_parts(self) -> u32 {
        match self {
            Kind::Route => 6,
            Kind::Policy => 3,
        }
    }

    /// Reads after which `daemon_rss_mb` is sampled: a few seconds into
    /// a run, so every run reaches it with a wide margin.
    pub fn rss_sample_reads(self) -> u64 {
        match self {
            Kind::Route => 1000,
            Kind::Policy => 10,
        }
    }
}

/// TOPS population: ≈4.2k entries, ≈3× the node store's buffer pool.
const TOPS: TopsParams = TopsParams {
    subscribers: 500,
    qhps_per_subscriber: 4,
    cas_per_qhp: 3,
};

/// Policy repository: 156 entries, well inside the buffer pool.
const QOS: QosParams = QosParams {
    policies: 100,
    profiles: 20,
    periods: 16,
    actions: 12,
    refs_per_policy: 3,
    exception_rate: 0.3,
    priority_levels: 4,
};

/// Distinct requests precomputed per read client; clients cycle through
/// them, so the oracle never runs inside the timed loop.
fn requests_per_client(kind: Kind) -> usize {
    match kind {
        Kind::Route => 2048,
        Kind::Policy => 256,
    }
}

/// One read request and the answer the oracle expects for it.
pub struct Read {
    pub text: String,
    /// Expected entries in canonical form (see [`canonical`]).
    pub expect: Vec<String>,
}

/// Everything one run of a workload sends, derived from the seed alone.
pub struct Workload {
    pub kind: Kind,
    pub ldif: String,
    /// One request stream per read client.
    pub reads: Vec<Vec<Read>>,
    /// Entries the writer modifies and adds leaves under.
    write_targets: Vec<Dn>,
    seed: u64,
}

/// Canonical, id-free form of an answer: each entry as typed LDIF,
/// sorted, so answers compare independently of list order and of the
/// entry ids a load assigns.
pub fn canonical(entries: &[Entry]) -> Vec<String> {
    let mut out: Vec<String> = entries.iter().map(ldif::entry_to_ldif).collect();
    out.sort();
    out
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let dir = match kind {
            Kind::Route => tops_generate(TOPS, seed),
            Kind::Policy => qos_generate(QOS, seed),
        };
        // The query builders hold an index they never consult while
        // building query text; a throwaway one satisfies them.
        let pager = netdir_pager::Pager::new(4096, 64);
        let idx = IndexedDirectory::build(&pager, &dir).expect("index the generated directory");
        let reads = (0..kind.readers())
            .map(|client| {
                let mut rng = StdRng::seed_from_u64(mix(seed, 1 + client as u64));
                (0..requests_per_client(kind))
                    .map(|_| match kind {
                        Kind::Route => route_read(&dir, &idx, &pager, &mut rng),
                        Kind::Policy => policy_read(&dir, &idx, &pager, &mut rng),
                    })
                    .collect()
            })
            .collect();
        let write_targets = match kind {
            Kind::Route => (0..TOPS.subscribers)
                .map(|s| subscriber_dn(&format!("user{s:04}")))
                .collect(),
            Kind::Policy => dir
                .iter_sorted()
                .filter(|e| e.has_class(&"SLAPolicyRules".into()))
                .map(|e| e.dn().clone())
                .collect(),
        };
        let ldif = ldif::directory_to_ldif(&dir);
        Workload {
            kind,
            ldif,
            reads,
            write_targets,
            seed,
        }
    }

    /// The request a completed read sent.
    pub fn read(&self, rec: &crate::drive::ReadRecord) -> &Read {
        let stream = &self.reads[rec.client];
        &stream[rec.request % stream.len()]
    }

    /// The writer's batch stream: one mutation per batch, rotating
    /// through a modify of a target's `benchTouch` attribute, an add of
    /// a leaf under a target, and the delete of the leaf added just
    /// before. No query reads either attribute or class, so the
    /// directory size stays flat and every read answer stays fixed.
    pub fn writes(&self) -> WriteStream<'_> {
        WriteStream {
            targets: &self.write_targets,
            rng: StdRng::seed_from_u64(mix(self.seed, 0)),
            next: 0,
            pending_leaf: None,
        }
    }
}

/// A stable 64-bit mix so each stream gets its own seed.
fn mix(seed: u64, stream: u64) -> u64 {
    (seed ^ 0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(stream.wrapping_mul(0x94d0_49bb_1331_11eb))
}

fn route_read(
    dir: &Directory,
    idx: &IndexedDirectory,
    pager: &netdir_pager::Pager,
    rng: &mut StdRng,
) -> Read {
    let req = CallRequest::random(rng, TOPS.subscribers);
    let text = TopsRouter::new(idx, pager).decision_query(&req).to_string();
    Read {
        text,
        expect: canonical(&oracle_route(dir, &req)),
    }
}

fn policy_read(
    dir: &Directory,
    idx: &IndexedDirectory,
    pager: &netdir_pager::Pager,
    rng: &mut StdRng,
) -> Read {
    let packet = Packet::random(rng);
    let base = Dn::parse(QOS_BASE).expect("QoS base DN parses");
    // `PolicyEngine::decide`'s action query: the actions the winning
    // policies reference.
    let winners = PolicyEngine::new(idx, pager, base.clone()).decision_query(&packet);
    let actions = Query::embed_ref(
        RefOp::DnValue,
        Query::atomic(
            base,
            Scope::Sub,
            AtomicFilter::eq("objectClass", "SLADSAction"),
        ),
        winners,
        "SLADSActRef",
    );
    // Oracle: the actions referenced by the oracle's winning policies.
    let mut expect: Vec<Entry> = Vec::new();
    for policy in oracle_decide(dir, &packet) {
        for v in policy.values(&"SLADSActRef".into()) {
            if let Some(action) = v.as_dn().and_then(|d| dir.lookup(d)) {
                if !expect.iter().any(|e| e.dn() == action.dn()) {
                    expect.push(action.clone());
                }
            }
        }
    }
    Read {
        text: actions.to_string(),
        expect: canonical(&expect),
    }
}

/// The state each write leaves behind, checked by reading it back.
pub enum Effect {
    /// `dn` now carries `benchTouch: value`.
    Touched { dn: Dn, value: String },
    /// `dn` now exists.
    Added(Dn),
    /// `dn` no longer exists.
    Deleted(Dn),
}

impl Effect {
    pub fn dn(&self) -> &Dn {
        match self {
            Effect::Touched { dn, .. } | Effect::Added(dn) | Effect::Deleted(dn) => dn,
        }
    }
}

pub struct WriteStream<'w> {
    targets: &'w [Dn],
    rng: StdRng,
    next: u64,
    pending_leaf: Option<Dn>,
}

impl Iterator for WriteStream<'_> {
    type Item = (MutationBatch, Effect);

    fn next(&mut self) -> Option<(MutationBatch, Effect)> {
        let i = self.next;
        self.next += 1;
        let target = self.targets[self.rng.gen_range(0..self.targets.len())].clone();
        let (mutation, effect) = match (i % 3, self.pending_leaf.take()) {
            (2, Some(leaf)) => (Mutation::Delete(leaf.clone()), Effect::Deleted(leaf)),
            (1, _) => {
                let leaf = Dn::parse(&format!("cn=note{i}, {target}")).expect("leaf DN parses");
                let entry = Entry::builder(leaf.clone())
                    .class("benchNote")
                    .attr("note", format!("write {i}"))
                    .build()
                    .expect("leaf entry is well formed");
                self.pending_leaf = Some(leaf.clone());
                (Mutation::Add(entry), Effect::Added(leaf))
            }
            _ => {
                let value = format!("w{i}");
                (
                    Mutation::Modify {
                        dn: target.clone(),
                        add: vec![("benchTouch".into(), Value::Str(value.clone()))],
                        remove: vec![],
                        remove_attrs: vec!["benchTouch".into()],
                    },
                    Effect::Touched { dn: target, value },
                )
            }
        };
        Some((MutationBatch::from_mutations(vec![mutation]), effect))
    }
}

/// Does the entry read back for `effect.dn()` (`None`: absent) show it?
pub fn effect_holds(effect: &Effect, found: Option<&Entry>) -> bool {
    match effect {
        Effect::Touched { value, .. } => found.is_some_and(|e| {
            let mut vals = e.values(&"benchTouch".into());
            vals.next().and_then(|v| v.as_str()) == Some(value.as_str()) && vals.next().is_none()
        }),
        Effect::Added(_) => found.is_some(),
        Effect::Deleted(_) => found.is_none(),
    }
}
