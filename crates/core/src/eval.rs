//! Bottom-up query evaluation (Section 8.2).
//!
//! "Each query expression can be evaluated bottom-up … First, the atomic
//! queries are evaluated, and the resulting entries are sorted by the
//! lexicographic ordering on the reverse of their dn's. Next, each
//! operator in the query tree is evaluated … and the result is pipelined
//! to a higher operator. Since each operator gets sorted input lists, and
//! computes a sorted output list, no additional sorting … is necessary."
//!
//! [`Evaluator`] walks the tree in reverse topological (post-) order,
//! evaluating atomic leaves through an [`AtomicSource`] (an indexed
//! directory, a remote server stub — anything that yields sorted entry
//! lists) and operators through the algorithms of this crate. Every
//! intermediate result is a paged list on the evaluator's pager, so a
//! single I/O ledger covers the whole tree; [`Evaluator::evaluate_traced`]
//! additionally reports per-node I/O and cardinalities — the raw material
//! of the Theorem 8.3/8.4 experiments.

use crate::agg::CompiledAggFilter;
use crate::ast::Query;
use crate::error::{QueryError, QueryResult};
use crate::{agg_simple, boolean, er_join, hs_stack};
use netdir_filter::{AtomicFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_model::{Dn, Entry};
use netdir_pager::{parallel_map, IoSnapshot, PagedList, Pager, PagerResult};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// A source of atomic-query results: sorted entry lists.
pub trait AtomicSource {
    /// Evaluate `(base ? scope ? filter)` to a reverse-DN-sorted list.
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>>;
}

impl AtomicSource for IndexedDirectory {
    fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        IndexedDirectory::evaluate_atomic(self, base, scope, filter)
    }
}

/// Per-node trace record from [`Evaluator::evaluate_traced`].
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// The node, rendered.
    pub node: String,
    /// Entries flowing in from child operators (0 for atomic leaves).
    pub input_len: u64,
    /// Result cardinality.
    pub output_len: u64,
    /// Result size in pages.
    pub output_pages: u64,
    /// I/O spent evaluating this node (excluding its children).
    pub io: IoSnapshot,
    /// Wall time spent in this node (excluding its children).
    pub elapsed_nanos: u64,
}

/// Summary of one [`Evaluator::evaluate_parallel_report`] run.
#[derive(Debug, Clone, Default)]
pub struct ParReport {
    /// Requested parallelism degree.
    pub degree: usize,
    /// Number of scheduling waves (tree depth of the ready-set walk).
    pub waves: usize,
    /// Ready-set width per wave — how much independent work each wave had.
    pub ready_widths: Vec<usize>,
    /// Total worker threads used across all waves.
    pub workers_spawned: u64,
    /// Per-worker I/O sub-ledgers, one per worker per wave. Their sum
    /// equals the shared ledger's delta for the run.
    pub worker_io: Vec<IoSnapshot>,
}

/// Memoized sub-query results, sharded by query hash so concurrent
/// workers contend on different locks. Replaces the earlier `RefCell`
/// map, which panicked on reentrant use and blocked `Sync`.
struct Memo {
    shards: [Mutex<HashMap<Query, PagedList<Entry>>>; Memo::SHARDS],
}

impl Memo {
    const SHARDS: usize = 8;

    fn new() -> Self {
        Memo {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, q: &Query) -> &Mutex<HashMap<Query, PagedList<Entry>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        q.hash(&mut h);
        &self.shards[(h.finish() as usize) % Memo::SHARDS]
    }

    fn get(&self, q: &Query) -> Option<PagedList<Entry>> {
        self.shard(q)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(q)
            .cloned()
    }

    fn insert(&self, q: &Query, out: &PagedList<Entry>) {
        self.shard(q)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(q.clone(), out.clone());
    }
}

/// The children of a node, in operand order.
fn children_of(q: &Query) -> Vec<&Query> {
    match q {
        Query::Atomic { .. } => Vec::new(),
        Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => vec![a, b],
        Query::Hier { q1, q2, .. } => vec![q1, q2],
        Query::HierPath { q1, q2, q3, .. } => vec![q1, q2, q3],
        Query::AggSelect { query, .. } => vec![query],
        Query::EmbedRef { q1, q2, .. } => vec![q1, q2],
    }
}

/// The query evaluator.
pub struct Evaluator<'s, S: AtomicSource> {
    source: &'s S,
    pager: Pager,
    /// When enabled, identical sub-queries evaluate once (common
    /// sub-expression elimination) on every entry point: sequential,
    /// parallel and traced. The serving router always enables it, as do
    /// the QoS and TOPS engines: the QoS decision query repeats 68% of
    /// its nodes and 72% of its atomic fetches (its `top` appears three
    /// times), TOPS call routing 11% and 22%. A bare [`Evaluator::new`]
    /// leaves it off so the cost experiments measure every node.
    memo: Option<Memo>,
}

impl<'s, S: AtomicSource> Evaluator<'s, S> {
    /// Evaluate over `source`, staging intermediates on `pager`.
    pub fn new(source: &'s S, pager: &Pager) -> Self {
        Evaluator {
            source,
            pager: pager.clone(),
            memo: None,
        }
    }

    /// Enable common-sub-expression caching for this evaluator: each
    /// distinct sub-tree, hence each distinct atomic, is evaluated once,
    /// with the same output bytes as unshared evaluation.
    pub fn with_memo(mut self) -> Self {
        self.memo = Some(Memo::new());
        self
    }

    /// Evaluate `q` to a sorted entry list.
    pub fn evaluate(&self, q: &Query) -> QueryResult<PagedList<Entry>> {
        self.eval_node(q, &mut None)
    }

    /// Evaluate `q` with up to `degree` concurrent workers.
    ///
    /// See [`Evaluator::evaluate_parallel_report`]; this discards the
    /// scheduling report.
    pub fn evaluate_parallel(&self, q: &Query, degree: usize) -> QueryResult<PagedList<Entry>>
    where
        S: Sync,
    {
        Ok(self.evaluate_parallel_report(q, degree)?.0)
    }

    /// Evaluate `q` bottom-up with up to `degree` concurrent workers,
    /// returning the result plus a [`ParReport`] of the schedule.
    ///
    /// The tree is walked in *waves*: each wave's ready set is every node
    /// whose children are all resolved (wave 0 = the atomic leaves), and
    /// the whole wave is handed to a scoped worker pool. Because each
    /// node's evaluation is a pure function of its child lists, and
    /// results are collected by node identity rather than completion
    /// order, the output is byte-identical to sequential [`evaluate`]
    /// (reverse-DN sorted, same entries, same order) at every degree.
    /// `degree <= 1` takes the sequential path directly.
    ///
    /// With [`with_memo`], identical sub-trees are interned into one
    /// arena slot that feeds every parent, so each distinct node runs
    /// once by construction. Without interning, two copies of one atomic
    /// would sit in the same wave and miss the memo together.
    ///
    /// [`evaluate`]: Evaluator::evaluate
    /// [`with_memo`]: Evaluator::with_memo
    pub fn evaluate_parallel_report(
        &self,
        q: &Query,
        degree: usize,
    ) -> QueryResult<(PagedList<Entry>, ParReport)>
    where
        S: Sync,
    {
        if degree <= 1 {
            let out = self.evaluate(q)?;
            return Ok((
                out,
                ParReport {
                    degree: 1,
                    ..ParReport::default()
                },
            ));
        }

        // Flatten the tree into an arena (post-order, so the root is
        // last). Sharing interns identical sub-trees into one slot.
        let mut arena = Arena {
            interned: self.memo.as_ref().map(|_| HashMap::new()),
            ..Arena::default()
        };
        let root = arena.add(q);
        let Arena {
            nodes,
            children,
            parents,
            ..
        } = arena;

        let mut pending: Vec<usize> = children.iter().map(|c| c.len()).collect();
        let mut results: Vec<Option<PagedList<Entry>>> = vec![None; nodes.len()];
        let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| pending[i] == 0).collect();
        let mut report = ParReport {
            degree,
            ..ParReport::default()
        };

        while !ready.is_empty() {
            report.waves += 1;
            report.ready_widths.push(ready.len());
            let wave = std::mem::take(&mut ready);
            let (outs, workers) = parallel_map(degree, wave.clone(), |_, idx: usize| {
                let kids: Vec<PagedList<Entry>> = children[idx]
                    .iter()
                    .map(|&k| results[k].clone().expect("child resolved before parent"))
                    .collect();
                self.eval_ready(nodes[idx], &kids)
            })?;
            report.workers_spawned += workers.len() as u64;
            report.worker_io.extend(workers.iter().map(|w| w.io));
            for (idx, out) in wave.into_iter().zip(outs) {
                results[idx] = Some(out);
                for &p in &parents[idx] {
                    pending[p] -= 1;
                    if pending[p] == 0 {
                        ready.push(p);
                    }
                }
            }
        }

        let out = results[root].take().expect("root evaluated last");
        Ok((out, report))
    }

    /// Evaluate one node whose children are already resolved (memo-aware,
    /// trace-free — per-node I/O attribution needs the sequential walk).
    fn eval_ready(
        &self,
        q: &Query,
        children: &[PagedList<Entry>],
    ) -> QueryResult<PagedList<Entry>> {
        if let Some(memo) = &self.memo {
            if let Some(hit) = memo.get(q) {
                return Ok(hit);
            }
        }
        let out = self.apply(q, children, &mut None)?;
        if let Some(memo) = &self.memo {
            memo.insert(q, &out);
        }
        Ok(out)
    }

    /// Evaluate `q`, also collecting a per-node trace (post-order).
    pub fn evaluate_traced(
        &self,
        q: &Query,
    ) -> QueryResult<(PagedList<Entry>, Vec<NodeTrace>)> {
        let mut traces = Some(Vec::new());
        let out = self.eval_node(q, &mut traces)?;
        Ok((out, traces.expect("traces preserved")))
    }

    fn eval_node(
        &self,
        q: &Query,
        traces: &mut Option<Vec<NodeTrace>>,
    ) -> QueryResult<PagedList<Entry>> {
        if let Some(memo) = &self.memo {
            if let Some(hit) = memo.get(q) {
                if let Some(traces) = traces {
                    replay_traces(memo, q, traces);
                }
                return Ok(hit);
            }
        }
        // Children first (their I/O is attributed to them).
        let children: Vec<PagedList<Entry>> = children_of(q)
            .into_iter()
            .map(|c| self.eval_node(c, traces))
            .collect::<QueryResult<_>>()?;
        let out = self.apply(q, &children, traces)?;
        if let Some(memo) = &self.memo {
            memo.insert(q, &out);
        }
        Ok(out)
    }

    /// Apply the operator at `q` to its already-evaluated child lists —
    /// the single code path shared by sequential and parallel evaluation,
    /// which is what makes their results identical by construction.
    fn apply(
        &self,
        q: &Query,
        children: &[PagedList<Entry>],
        traces: &mut Option<Vec<NodeTrace>>,
    ) -> QueryResult<PagedList<Entry>> {
        let before = self.pager.io();
        let started = std::time::Instant::now();
        let out = match q {
            Query::Atomic {
                base,
                scope,
                filter,
            } => self.source.evaluate_atomic(base, *scope, filter)?,
            Query::And(..) | Query::Or(..) | Query::Diff(..) => {
                let op = match q {
                    Query::And(..) => boolean::BoolOp::And,
                    Query::Or(..) => boolean::BoolOp::Or,
                    _ => boolean::BoolOp::Diff,
                };
                boolean::merge(&self.pager, op, &children[0], &children[1])?
            }
            Query::Hier { op, agg, .. } => {
                let filter = compile_structural(agg)?;
                hs_stack::hs_select(
                    &self.pager,
                    (*op).into(),
                    &children[0],
                    &children[1],
                    None,
                    &filter,
                )?
            }
            Query::HierPath { op, agg, .. } => {
                let filter = compile_structural(agg)?;
                hs_stack::hs_select(
                    &self.pager,
                    (*op).into(),
                    &children[0],
                    &children[1],
                    Some(&children[2]),
                    &filter,
                )?
            }
            Query::AggSelect { filter, .. } => {
                let compiled = CompiledAggFilter::compile(filter, false)?;
                agg_simple::simple_agg_select(&self.pager, &children[0], &compiled)?
            }
            Query::EmbedRef { op, attr, agg, .. } => {
                let filter = compile_structural(agg)?;
                er_join::er_select(&self.pager, *op, &children[0], &children[1], attr, &filter)?
            }
        };
        let input_len = children.iter().map(|c| c.len()).sum();
        self.trace(traces, q, &out, input_len, before, started);
        Ok(out)
    }

    fn trace(
        &self,
        traces: &mut Option<Vec<NodeTrace>>,
        q: &Query,
        out: &PagedList<Entry>,
        input_len: u64,
        before: IoSnapshot,
        started: std::time::Instant,
    ) {
        if let Some(traces) = traces {
            traces.push(NodeTrace {
                node: summarize(q),
                input_len,
                output_len: out.len(),
                output_pages: out.num_pages(),
                io: self.pager.io().since(before),
                elapsed_nanos: u64::try_from(started.elapsed().as_nanos())
                    .unwrap_or(u64::MAX),
            });
        }
    }
}

/// The query tree flattened for [`Evaluator::evaluate_parallel_report`]:
/// post-order slots with child and parent links. With `interned` set,
/// identical sub-trees share one slot, which then has several parents.
#[derive(Default)]
struct Arena<'q> {
    nodes: Vec<&'q Query>,
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
    interned: Option<HashMap<&'q Query, usize>>,
}

impl<'q> Arena<'q> {
    fn add(&mut self, q: &'q Query) -> usize {
        if let Some(&idx) = self.interned.as_ref().and_then(|m| m.get(q)) {
            return idx;
        }
        let kids: Vec<usize> = children_of(q).into_iter().map(|c| self.add(c)).collect();
        let idx = self.nodes.len();
        for &k in &kids {
            self.parents[k].push(idx);
        }
        self.nodes.push(q);
        self.children.push(kids);
        self.parents.push(Vec::new());
        if let Some(m) = &mut self.interned {
            m.insert(q, idx);
        }
        idx
    }
}

/// Emit the post-order traces of a sub-tree served from the memo: one
/// zero-I/O, zero-time record per node, sized from the cached lists. The
/// trace keeps one record per query node (what [`crate::build_trace`]
/// and the planner's feedback expect) while its summed I/O still equals
/// the pager's, since the shared work was charged at its first
/// occurrence. Returns the sub-tree root's output length.
fn replay_traces(memo: &Memo, q: &Query, traces: &mut Vec<NodeTrace>) -> u64 {
    let input_len = children_of(q)
        .into_iter()
        .map(|c| replay_traces(memo, c, traces))
        .sum();
    // Every path memoizes children before their parent, so each node
    // under a memo hit is itself in the memo.
    let (output_len, output_pages) = memo
        .get(q)
        .map_or((0, 0), |out| (out.len(), out.num_pages()));
    traces.push(NodeTrace {
        node: summarize(q),
        input_len,
        output_len,
        output_pages,
        io: IoSnapshot::default(),
        elapsed_nanos: 0,
    });
    output_len
}

fn compile_structural(agg: &Option<crate::ast::AggSelFilter>) -> QueryResult<CompiledAggFilter> {
    match agg {
        None => Ok(CompiledAggFilter::exists_witness()),
        Some(f) => CompiledAggFilter::compile(f, true),
    }
}

/// One-line description of a node (operator symbol, not the whole subtree).
fn summarize(q: &Query) -> String {
    match q {
        Query::Atomic {
            base,
            scope,
            filter,
        } => format!("({base} ? {scope} ? {filter})"),
        Query::And(..) => "(&)".into(),
        Query::Or(..) => "(|)".into(),
        Query::Diff(..) => "(-)".into(),
        Query::Hier { op, agg, .. } => match agg {
            None => format!("({})", op.symbol()),
            Some(f) => format!("({} … {f})", op.symbol()),
        },
        Query::HierPath { op, agg, .. } => match agg {
            None => format!("({})", op.symbol()),
            Some(f) => format!("({} … {f})", op.symbol()),
        },
        Query::AggSelect { filter, .. } => format!("(g … {filter})"),
        Query::EmbedRef { op, attr, agg, .. } => match agg {
            None => format!("({} … {attr})", op.symbol()),
            Some(f) => format!("({} … {attr} {f})", op.symbol()),
        },
    }
}

/// Convenience: evaluate a query string against an indexed directory.
pub fn run_query(
    idx: &IndexedDirectory,
    pager: &Pager,
    query: &str,
) -> QueryResult<Vec<Entry>> {
    let q = crate::parser::parse_query(query)?;
    let out = Evaluator::new(idx, pager).evaluate(&q)?;
    out.to_vec().map_err(QueryError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use netdir_model::{Directory, Entry};
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    /// A miniature AT&T-ish directory exercising all operators.
    fn dir() -> Directory {
        let mut d = Directory::new();
        let mut add = |e: Entry| {
            d.insert(e).unwrap();
        };
        for s in ["dc=com", "dc=att, dc=com", "dc=research, dc=att, dc=com", "dc=org"] {
            add(Entry::builder(dn(s)).class("dcObject").build().unwrap());
        }
        for (ou, parent) in [
            ("people", "dc=att, dc=com"),
            ("people", "dc=research, dc=att, dc=com"),
            ("tp", "dc=att, dc=com"),
        ] {
            add(Entry::builder(dn(&format!("ou={ou}, {parent}")))
                .class("organizationalUnit")
                .build()
                .unwrap());
        }
        // jagadish appears both in att and in research.
        for (uid, parent, sn) in [
            ("jag", "ou=people, dc=att, dc=com", "jagadish"),
            ("jag2", "ou=people, dc=research, dc=att, dc=com", "jagadish"),
            ("divesh", "ou=people, dc=att, dc=com", "srivastava"),
        ] {
            add(Entry::builder(dn(&format!("uid={uid}, {parent}")))
                .class("person")
                .attr("surName", sn)
                .build()
                .unwrap());
        }
        // Profiles referenced by policies.
        add(Entry::builder(dn("TPName=smtp, ou=tp, dc=att, dc=com"))
            .class("trafficProfile")
            .attr("sourcePort", 25i64)
            .build()
            .unwrap());
        add(Entry::builder(dn("SLAPolicyName=mail, ou=tp, dc=att, dc=com"))
            .class("SLAPolicyRules")
            .attr("SLARulePriority", 1i64)
            .attr("SLATPRef", dn("TPName=smtp, ou=tp, dc=att, dc=com"))
            .build()
            .unwrap());
        d
    }

    fn setup() -> (IndexedDirectory, Pager) {
        let pager = tiny_pager();
        let idx = IndexedDirectory::build(&pager, &dir()).unwrap();
        (idx, pager)
    }

    fn run(q: &str) -> Vec<String> {
        let (idx, pager) = setup();
        run_query(&idx, &pager, q)
            .unwrap()
            .iter()
            .map(|e| e.dn().to_string())
            .collect()
    }

    #[test]
    fn example_4_1_end_to_end() {
        let got = run(
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
               (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        );
        assert_eq!(got, vec!["uid=jag, ou=people, dc=att, dc=com"]);
    }

    #[test]
    fn example_5_1_end_to_end() {
        let got = run(
            "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) \
                (dc=att, dc=com ? sub ? surName=jagadish))",
        );
        // Reverse-DN order: the research OU's key extends dc=att's key
        // with "dc=research", which sorts before the sibling "ou=people".
        assert_eq!(
            got,
            vec![
                "ou=people, dc=research, dc=att, dc=com",
                "ou=people, dc=att, dc=com"
            ]
        );
    }

    #[test]
    fn example_5_3_end_to_end() {
        // Which subnets have SMTP traffic profiles with no intervening
        // dcObject?
        let got = run(
            "(dc (dc=att, dc=com ? sub ? objectClass=dcObject) \
                 (& (dc=att, dc=com ? sub ? sourcePort=25) \
                    (dc=att, dc=com ? sub ? objectClass=trafficProfile)) \
                 (dc=att, dc=com ? sub ? objectClass=dcObject))",
        );
        assert_eq!(got, vec!["dc=att, dc=com"]);
    }

    #[test]
    fn l3_vd_end_to_end() {
        let got = run(
            "(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) \
                 (dc=att, dc=com ? sub ? sourcePort=25) \
                 SLATPRef)",
        );
        assert_eq!(got, vec!["SLAPolicyName=mail, ou=tp, dc=att, dc=com"]);
    }

    #[test]
    fn traced_evaluation_reports_every_node() {
        let (idx, pager) = setup();
        let q = parse_query(
            "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) \
                (dc=att, dc=com ? sub ? surName=jagadish))",
        )
        .unwrap();
        let (out, traces) = Evaluator::new(&idx, &pager).evaluate_traced(&q).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(traces.len(), 3); // two atoms + the operator
        // Eq filter values render canonically (case-folded).
        assert!(traces[0].node.contains("organizationalunit"));
        assert_eq!(traces[2].node, "(c)");
        assert_eq!(traces[2].output_len, 2);
    }

    #[test]
    fn bad_agg_filter_surfaces() {
        let (idx, pager) = setup();
        let q = parse_query("(g (dc=com ? sub ? a=*) count($2) > 0)");
        // count($2) in g context is caught at evaluation (compile step).
        let q = q.unwrap();
        let err = Evaluator::new(&idx, &pager).evaluate(&q).unwrap_err();
        assert!(matches!(err, QueryError::BadAggFilter { .. }));
    }

    #[test]
    fn memoized_evaluation_matches_unmemoized() {
        // The QoS-style shape: the same subquery appears three times.
        let (idx, pager) = setup();
        let q = parse_query(
            "(| (| (dc=att, dc=com ? sub ? objectClass=person) \
                   (dc=att, dc=com ? sub ? objectClass=person)) \
                (& (dc=att, dc=com ? sub ? objectClass=person) \
                   (dc=att, dc=com ? sub ? surName=jagadish)))",
        )
        .unwrap();
        let plain = Evaluator::new(&idx, &pager).evaluate(&q).unwrap();
        let memoed = Evaluator::new(&idx, &pager)
            .with_memo()
            .evaluate(&q)
            .unwrap();
        assert_eq!(
            plain.to_vec().unwrap(),
            memoed.to_vec().unwrap(),
            "memoized and unmemoized evaluation must return identical lists"
        );
        // And the memo actually deduplicates: the repeated atom costs one
        // source evaluation's worth of allocations, not three.
        pager.reset_io();
        Evaluator::new(&idx, &pager).evaluate(&q).unwrap();
        let unmemo_allocs = pager.io().allocs;
        pager.reset_io();
        Evaluator::new(&idx, &pager).with_memo().evaluate(&q).unwrap();
        assert!(pager.io().allocs < unmemo_allocs);
    }

    /// An indexed directory that counts the atomic evaluations it serves.
    struct CountingSource {
        idx: IndexedDirectory,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl AtomicSource for CountingSource {
        fn evaluate_atomic(
            &self,
            base: &Dn,
            scope: Scope,
            filter: &AtomicFilter,
        ) -> PagerResult<PagedList<Entry>> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.idx.evaluate_atomic(base, scope, filter)
        }
    }

    #[test]
    fn shared_subqueries_evaluate_once_on_every_entry_point() {
        // A repeated (&) over `top`: 11 nodes, 5 distinct; 6 atomic
        // leaves, 2 distinct.
        let top = "(| (dc=att, dc=com ? sub ? objectClass=person) \
                      (dc=att, dc=com ? sub ? surName=jagadish))";
        let text = format!(
            "(| (& {top} (dc=att, dc=com ? sub ? objectClass=person)) \
                (& {top} (dc=att, dc=com ? sub ? objectClass=person)))"
        );
        let q = parse_query(&text).unwrap();
        assert_eq!(q.num_nodes(), 11);
        let (idx, pager) = setup();
        let expect = Evaluator::new(&idx, &pager)
            .evaluate(&q)
            .unwrap()
            .to_vec()
            .unwrap();
        assert_eq!(expect.len(), 3, "the three persons");
        let src = CountingSource {
            idx,
            calls: Default::default(),
        };
        let calls = || src.calls.swap(0, std::sync::atomic::Ordering::SeqCst);

        for degree in [1, 4] {
            let (out, report) = Evaluator::new(&src, &pager)
                .with_memo()
                .evaluate_parallel_report(&q, degree)
                .unwrap();
            assert_eq!(out.to_vec().unwrap(), expect, "degree {degree}");
            assert_eq!(
                calls(),
                2,
                "one fetch per distinct atomic at degree {degree}"
            );
            if degree > 1 {
                // Interned arena: 2 leaves, then (|), (&), the root.
                assert_eq!(report.ready_widths, vec![2, 1, 1, 1]);
            }
        }

        let before = pager.io();
        let (out, traces) = Evaluator::new(&src, &pager)
            .with_memo()
            .evaluate_traced(&q)
            .unwrap();
        let delta = pager.io().since(before);
        assert_eq!(out.to_vec().unwrap(), expect);
        assert_eq!(calls(), 2);
        assert_eq!(traces.len(), q.num_nodes(), "one trace per query node");
        let traced_io = traces
            .iter()
            .fold(IoSnapshot::default(), |acc, t| IoSnapshot {
                reads: acc.reads + t.io.reads,
                writes: acc.writes + t.io.writes,
                allocs: acc.allocs + t.io.allocs,
            });
        assert_eq!(traced_io, delta, "span I/O sums to the pager's delta");
        // The replayed copy of the shared (&) sub-tree matches its first
        // occurrence in everything but cost.
        let (first, repeat) = (&traces[4], &traces[9]);
        assert_eq!(first.node, "(&)");
        assert_eq!(repeat.node, "(&)");
        assert_eq!(
            (repeat.input_len, repeat.output_len, repeat.output_pages),
            (first.input_len, first.output_len, first.output_pages)
        );
        assert_eq!(repeat.io, IoSnapshot::default());
        let trace = crate::build_trace(&q, &traces, 0);
        assert_eq!(trace.spans.len(), q.num_nodes());
        assert_eq!(trace.root_entries(), expect.len() as u64);
    }

    #[test]
    fn parallel_evaluation_is_byte_identical_and_reports_schedule() {
        let (idx, pager) = setup();
        let q = parse_query(
            "(- (| (dc=att, dc=com ? sub ? surName=jagadish) \
                   (dc=att, dc=com ? sub ? objectClass=organizationalUnit)) \
                (c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) \
                   (dc=research, dc=att, dc=com ? sub ? surName=jagadish)))",
        )
        .unwrap();
        let ev = Evaluator::new(&idx, &pager);
        let expect = ev.evaluate(&q).unwrap().to_vec().unwrap();
        for degree in [1, 2, 4, 8] {
            let (out, report) = ev.evaluate_parallel_report(&q, degree).unwrap();
            assert_eq!(out.to_vec().unwrap(), expect, "degree {degree}");
            if degree > 1 {
                // 7 nodes in 3 waves: 4 leaves, then (|) and (c), then (-).
                assert_eq!(report.waves, 3);
                assert_eq!(report.ready_widths, vec![4, 2, 1]);
                assert!(report.workers_spawned > 0);
                let shard_io: u64 = report.worker_io.iter().map(|io| io.total()).sum();
                let _ = shard_io; // pool may serve everything warm here
            }
        }
    }

    #[test]
    fn parallel_evaluation_surfaces_the_sequential_error() {
        let (idx, pager) = setup();
        // The bad agg filter is compiled at its node's evaluation; the
        // parallel path must report it just like the sequential one.
        let q = parse_query(
            "(| (g (dc=com ? sub ? a=*) count($2) > 0) \
                (dc=com ? sub ? objectClass=dcObject))",
        )
        .unwrap();
        let ev = Evaluator::new(&idx, &pager);
        let seq = ev.evaluate(&q).unwrap_err();
        let par = ev.evaluate_parallel(&q, 4).unwrap_err();
        assert!(matches!(seq, QueryError::BadAggFilter { .. }));
        assert!(matches!(par, QueryError::BadAggFilter { .. }));
    }

    #[test]
    fn closure_queries_compose() {
        // Feed an L1 result into another L1 operator: (a (c ...) ...).
        let got = run(
            "(a (uid=jag, ou=people, dc=att, dc=com ? base ? objectClass=person) \
                (c (dc=att, dc=com ? sub ? objectClass=organizationalUnit) \
                   (dc=att, dc=com ? sub ? surName=jagadish)))",
        );
        assert_eq!(got, vec!["uid=jag, ou=people, dc=att, dc=com"]);
    }
}
