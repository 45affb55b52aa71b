//! Atomic-query evaluation over an indexed directory.
//!
//! [`IndexedDirectory`] packages the paged [`DnTable`] with per-attribute
//! indices (B+-trees for ints, tries for equality, suffix arrays for
//! substrings, a presence map) and evaluates atomic queries
//! `(base ? scope ? filter)` into reverse-DN-sorted entry lists — the
//! inputs of every L0–L3 operator.
//!
//! Two strategies, matching how real servers plan:
//!
//! * **Index probe** — look up candidate entry ids in the matching index,
//!   keep those whose position falls in the scope's rank interval, fetch
//!   their entries from the DN table by position (random page reads,
//!   amortized by the buffer pool), and emit in key order. Good for
//!   selective filters.
//! * **Scope scan** — sequentially read exactly the pages covering the
//!   base's subtree and filter. Good for broad filters and small scopes,
//!   and the predictable-cost path used by the I/O experiments.
//!
//! Scope filtering of probe candidates needs no key comparisons: the
//! table is sorted by reverse DN, so a subtree is one contiguous run of
//! positions `[lo, hi)` (§4.1), found once per query by two binary
//! searches (`DnTable::scope_range`). Each candidate then costs one
//! id → position lookup and an integer compare; `One` adds a depth check
//! on the in-memory key.
//!
//! Every strategy is a *visit*: [`IndexedDirectory::visit_atomic`] and
//! [`IndexedDirectory::visit_scope`] hand each hit, in key order, to a
//! caller's sink. The `evaluate_*` methods are that visit with a
//! [`ListWriter`] as the sink, producing the [`PagedList`] the operators
//! consume; a server node instead encodes hits straight into its reply
//! and so writes no page while serving.

use crate::btree::StaticBTree;
use crate::dn_table::DnTable;
use crate::suffix::SuffixIndex;
use crate::trie::Trie;
use netdir_filter::{AtomicFilter, CompositeFilter, LdapQuery, Scope};
use netdir_filter::atomic::IntOp;
use netdir_model::{AttrName, Directory, Dn, Entry, EntryId, Value};
use netdir_pager::{ListWriter, PagedList, Pager, PagerResult};
use std::collections::BTreeMap;

/// A directory bulk-loaded into the paged DN table plus attribute indices.
pub struct IndexedDirectory {
    table: DnTable,
    int_trees: BTreeMap<AttrName, StaticBTree>,
    tries: BTreeMap<AttrName, Trie>,
    suffixes: BTreeMap<AttrName, SuffixIndex>,
    presence: BTreeMap<AttrName, Vec<EntryId>>,
}

impl IndexedDirectory {
    /// Build table and indices from a directory instance.
    pub fn build(pager: &Pager, dir: &Directory) -> PagerResult<IndexedDirectory> {
        let table = DnTable::build(pager, dir.iter_sorted())?;

        let mut int_pairs: BTreeMap<AttrName, Vec<(i64, EntryId)>> = BTreeMap::new();
        let mut tries: BTreeMap<AttrName, Trie> = BTreeMap::new();
        let mut string_occurrences: BTreeMap<AttrName, Vec<(String, EntryId)>> =
            BTreeMap::new();
        let mut presence: BTreeMap<AttrName, Vec<EntryId>> = BTreeMap::new();

        for e in dir.iter_sorted() {
            let mut seen_attrs: Vec<&AttrName> = Vec::new();
            for (a, v) in e.pairs() {
                if seen_attrs.last() != Some(&a) {
                    presence.entry(a.clone()).or_default().push(e.id());
                    seen_attrs.push(a);
                }
                let canonical = v.canonical();
                tries
                    .entry(a.clone())
                    .or_default()
                    .insert(&canonical, e.id());
                string_occurrences
                    .entry(a.clone())
                    .or_default()
                    .push((canonical, e.id()));
                if let Value::Int(i) = v {
                    int_pairs.entry(a.clone()).or_default().push((*i, e.id()));
                }
            }
        }

        let mut int_trees = BTreeMap::new();
        for (a, mut pairs) in int_pairs {
            pairs.sort_unstable();
            int_trees.insert(a, StaticBTree::build(pager, &pairs)?);
        }
        let suffixes = string_occurrences
            .into_iter()
            .map(|(a, occ)| {
                let idx =
                    SuffixIndex::build(occ.iter().map(|(s, id)| (s.as_str(), *id)));
                (a, idx)
            })
            .collect();

        Ok(IndexedDirectory {
            table,
            int_trees,
            tries,
            suffixes,
            presence,
        })
    }

    /// The underlying DN table.
    pub fn table(&self) -> &DnTable {
        &self.table
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.table.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Candidate entry ids for `filter` from the indices, or `None` when
    /// no index applies (e.g. [`AtomicFilter::True`]).
    pub fn probe(&self, filter: &AtomicFilter) -> Option<Vec<EntryId>> {
        match filter {
            AtomicFilter::True => None,
            // Constant false: the empty candidate list, no scan needed.
            AtomicFilter::False => Some(Vec::new()),
            AtomicFilter::Present(a) => {
                Some(self.presence.get(a.canonical()).cloned().unwrap_or_default())
            }
            AtomicFilter::Eq(a, v) => Some(
                self.tries
                    .get(a.canonical())
                    .map(|t| t.lookup_exact(v))
                    .unwrap_or_default(),
            ),
            AtomicFilter::DnEq(a, dn) => Some(
                self.tries
                    .get(a.canonical())
                    .map(|t| t.lookup_exact(&dn.canonical()))
                    .unwrap_or_default(),
            ),
            AtomicFilter::Substring(a, pat) => {
                // Pull candidates on the most selective fragment, verify
                // the full pattern during fetch.
                let frag = pat
                    .initial
                    .as_deref()
                    .into_iter()
                    .chain(pat.any.iter().map(String::as_str))
                    .chain(pat.final_.as_deref())
                    .max_by_key(|s| s.len())?;
                Some(
                    self.suffixes
                        .get(a.canonical())
                        .map(|s| s.contains(frag))
                        .unwrap_or_default(),
                )
            }
            AtomicFilter::IntCmp(a, op, v) => {
                let tree = self.int_trees.get(a.canonical())?;
                let ids = match op {
                    IntOp::Lt => tree.below(*v, false),
                    IntOp::Le => tree.below(*v, true),
                    IntOp::Gt => tree.above(*v, false),
                    IntOp::Ge => tree.above(*v, true),
                    IntOp::Eq => tree.lookup(*v),
                };
                match ids {
                    Ok(mut ids) => {
                        ids.sort_unstable();
                        ids.dedup();
                        Some(ids)
                    }
                    Err(_) => None,
                }
            }
        }
    }

    /// Visit the answer of an atomic query in key order: index probe,
    /// falling back to a scope scan when no index applies. `visit` sees
    /// each hit once; its error aborts the visit.
    pub fn visit_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
        mut visit: impl FnMut(&Entry) -> PagerResult<()>,
    ) -> PagerResult<()> {
        let Some(ids) = self.probe(filter) else {
            return self.visit_scope(base, scope, |e| filter.matches(e), visit);
        };
        let range = self.table.scope_range(base, scope);
        let mut hits: Vec<u32> = ids
            .into_iter()
            .filter_map(|id| self.table.position(id))
            .filter(|&pos| self.table.in_scope(&range, pos, base, scope))
            .collect();
        hits.sort_unstable();
        hits.dedup();
        for pos in hits {
            if let Some(e) = self.table.get_at(pos)? {
                // Verify (substring candidates are approximate).
                if filter.matches(&e) {
                    visit(&e)?;
                }
            }
        }
        Ok(())
    }

    /// Visit the entries within `scope` of `base` satisfying `pred`, in
    /// key order, by scanning the scope's pages.
    pub fn visit_scope(
        &self,
        base: &Dn,
        scope: Scope,
        pred: impl Fn(&Entry) -> bool,
        mut visit: impl FnMut(&Entry) -> PagerResult<()>,
    ) -> PagerResult<()> {
        for r in self.table.scan_scope(base, scope) {
            let e = r?;
            if pred(&e) {
                visit(&e)?;
            }
        }
        Ok(())
    }

    /// Run a visit with a fresh result list on the table's pager as sink.
    fn write_list(
        &self,
        run: impl FnOnce(&mut ListWriter<Entry>) -> PagerResult<()>,
    ) -> PagerResult<PagedList<Entry>> {
        let mut w = ListWriter::new(self.table.pager());
        run(&mut w)?;
        w.finish()
    }

    /// Evaluate an atomic query via index probe, falling back to a scope
    /// scan when no index applies ([`Self::visit_atomic`] into a list).
    pub fn evaluate_atomic(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        self.write_list(|w| self.visit_atomic(base, scope, filter, |e| w.push(e)))
    }

    /// Evaluate an atomic query by scanning the scope's pages.
    pub fn evaluate_scan(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &AtomicFilter,
    ) -> PagerResult<PagedList<Entry>> {
        self.write_list(|w| self.visit_scope(base, scope, |e| filter.matches(e), |e| w.push(e)))
    }

    /// Evaluate a composite-filter LDAP query (the baseline language) by
    /// scope scan.
    pub fn evaluate_ldap(&self, q: &LdapQuery) -> PagerResult<PagedList<Entry>> {
        self.evaluate_composite(&q.base, q.scope, &q.filter)
    }

    /// Evaluate a composite filter at (base, scope) — like
    /// [`Self::evaluate_ldap`] but from parts.
    pub fn evaluate_composite(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &CompositeFilter,
    ) -> PagerResult<PagedList<Entry>> {
        self.write_list(|w| self.visit_scope(base, scope, |e| filter.matches(e), |e| w.push(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn dir() -> Directory {
        let mut d = Directory::new();
        let mut add = |s: &str, f: &dyn Fn(netdir_model::EntryBuilder) -> netdir_model::EntryBuilder| {
            d.insert(f(Entry::builder(dn(s))).build().unwrap()).unwrap();
        };
        add("dc=com", &|b| b.class("dcObject"));
        add("dc=att, dc=com", &|b| b.class("dcObject"));
        add("ou=people, dc=att, dc=com", &|b| b.class("organizationalUnit"));
        add("uid=jag, ou=people, dc=att, dc=com", &|b| {
            b.class("person")
                .attr("surName", "jagadish")
                .attr("commonName", "h jagadish")
                .attr("priority", 2i64)
        });
        add("uid=divesh, ou=people, dc=att, dc=com", &|b| {
            b.class("person")
                .attr("surName", "srivastava")
                .attr("priority", 5i64)
        });
        add("uid=tova, ou=people, dc=att, dc=com", &|b| {
            b.class("person").attr("surName", "milo")
        });
        d
    }

    fn indexed() -> (IndexedDirectory, Pager) {
        let pager = tiny_pager();
        let d = dir();
        let idx = IndexedDirectory::build(&pager, &d).unwrap();
        (idx, pager)
    }

    fn dns(list: &PagedList<Entry>) -> Vec<String> {
        list.to_vec()
            .unwrap()
            .iter()
            .map(|e| e.dn().to_string())
            .collect()
    }

    #[test]
    fn eq_probe_and_scan_agree() {
        let (idx, _) = indexed();
        let f = AtomicFilter::eq("surName", "jagadish");
        let probe = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        let scan = idx.evaluate_scan(&dn("dc=com"), Scope::Sub, &f).unwrap();
        assert_eq!(dns(&probe), dns(&scan));
        assert_eq!(probe.len(), 1);
    }

    #[test]
    fn int_cmp_probe() {
        let (idx, _) = indexed();
        let f = AtomicFilter::int_cmp("priority", IntOp::Lt, 3);
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        assert_eq!(
            dns(&out),
            vec!["uid=jag, ou=people, dc=att, dc=com".to_string()]
        );
    }

    #[test]
    fn presence_probe() {
        let (idx, _) = indexed();
        let f = AtomicFilter::present("priority");
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn substring_probe_verifies_full_pattern() {
        let (idx, _) = indexed();
        // *jag* matches both "jagadish" (surName) and "h jagadish".
        let f = netdir_filter::parse_atomic("surName=*jag*").unwrap();
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
            .unwrap();
        assert_eq!(out.len(), 1);
        // Anchored pattern: jag* — "jagadish" yes.
        let f = netdir_filter::parse_atomic("surName=jag*").unwrap();
        assert_eq!(
            idx.evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
                .unwrap()
                .len(),
            1
        );
        // mil* on surName matches milo only.
        let f = netdir_filter::parse_atomic("surName=*ilo").unwrap();
        assert_eq!(
            idx.evaluate_atomic(&dn("dc=com"), Scope::Sub, &f)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn scope_restricts_probe_hits() {
        let (idx, _) = indexed();
        let f = AtomicFilter::eq("objectClass", "person");
        // Scope one from ou=people includes the three persons.
        let out = idx
            .evaluate_atomic(&dn("ou=people, dc=att, dc=com"), Scope::One, &f)
            .unwrap();
        assert_eq!(out.len(), 3);
        // Scope one from dc=att excludes them (two levels down).
        let out = idx
            .evaluate_atomic(&dn("dc=att, dc=com"), Scope::One, &f)
            .unwrap();
        assert_eq!(out.len(), 0);
        // Base scope.
        let out = idx
            .evaluate_atomic(&dn("uid=jag, ou=people, dc=att, dc=com"), Scope::Base, &f)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn true_filter_falls_back_to_scan() {
        let (idx, _) = indexed();
        let out = idx
            .evaluate_atomic(&Dn::root(), Scope::Sub, &AtomicFilter::True)
            .unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn results_sorted_by_reverse_dn() {
        let (idx, _) = indexed();
        let out = idx
            .evaluate_atomic(&dn("dc=com"), Scope::Sub, &AtomicFilter::present("uid"))
            .unwrap();
        let v = out.to_vec().unwrap();
        for w in v.windows(2) {
            assert!(w[0].dn() < w[1].dn());
        }
    }

    #[test]
    fn ldap_query_evaluation() {
        let (idx, _) = indexed();
        let q = LdapQuery::new(
            dn("dc=att, dc=com"),
            Scope::Sub,
            netdir_filter::parse_composite("(&(objectClass=person)(!(priority=*)))")
                .unwrap(),
        );
        let out = idx.evaluate_ldap(&q).unwrap();
        assert_eq!(
            dns(&out),
            vec!["uid=tova, ou=people, dc=att, dc=com".to_string()]
        );
    }
}
