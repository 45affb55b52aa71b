//! The paged DN table.
//!
//! All entries, serialized in reverse-DN order onto pages, plus an
//! in-memory *fence key* (the first entry's sort key) per page. Because a
//! subtree is a contiguous key range (see `netdir_model::dn`), resolving a
//! scope is: binary-search the fences for the first relevant page, then
//! scan pages sequentially until the keys leave the subtree. The I/O cost
//! is `O(pages(scope) + log)` — this is the "distinguishedName B-tree" of
//! Section 4.1 in bulk-loaded form.
//!
//! The table also keeps every entry's sort key in memory, in position
//! order, so a scope is equally a *rank interval* `[lo, hi)` of positions
//! (`DnTable::scope_range`): two binary searches, no I/O. Index probes
//! use it to scope-filter candidates with one position lookup and an
//! integer compare each.

use netdir_model::{Dn, Entry, EntryId, SortKey};
use netdir_filter::Scope;
use netdir_pager::{ListWriter, PagedList, Pager, PagerResult};
use std::ops::Range;

/// A static, sorted, paged table of entries with per-page fence keys.
pub struct DnTable {
    pager: Pager,
    list: PagedList<Entry>,
    /// First sort key on each page (in-memory metadata).
    fences: Vec<Vec<u8>>,
    /// Sort key of the entry at each position (in-memory metadata).
    keys: Vec<SortKey>,
    /// entry id → position in sorted order (for id-based fetch).
    id_to_pos: Vec<u32>,
    len: u64,
}

impl DnTable {
    /// Bulk-load from entries **already sorted** by reverse-DN key.
    ///
    /// Usually obtained from [`netdir_model::Directory::iter_sorted`].
    pub fn build<'a, I>(pager: &Pager, entries: I) -> PagerResult<DnTable>
    where
        I: IntoIterator<Item = &'a Entry>,
    {
        // Write pages one at a time, recording each page's first key.
        // We reuse ListWriter and recompute fences from a scan: simpler and
        // build-time only. First pass: write the list.
        let mut w: ListWriter<Entry> = ListWriter::new(pager);
        let mut keys: Vec<SortKey> = Vec::new();
        let mut max_id: EntryId = 0;
        let mut ids: Vec<EntryId> = Vec::new();
        for e in entries {
            debug_assert!(
                keys.last().is_none_or(|k| k <= e.dn().sort_key()),
                "DnTable::build requires sorted input"
            );
            keys.push(e.dn().sort_key().clone());
            ids.push(e.id());
            max_id = max_id.max(e.id());
            w.push(e)?;
        }
        let list = w.finish()?;

        let fences = page_fences(&list, &keys);

        let mut id_to_pos = vec![u32::MAX; (max_id as usize) + 1];
        for (pos, id) in ids.iter().enumerate() {
            id_to_pos[*id as usize] = pos as u32;
        }
        Ok(DnTable {
            pager: pager.clone(),
            len: list.len(),
            list,
            fences,
            keys,
            id_to_pos,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u64 {
        self.list.num_pages()
    }

    /// The pager.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Scan the whole table in sorted order.
    pub fn scan(&self) -> impl Iterator<Item = PagerResult<Entry>> + '_ {
        self.list.iter()
    }

    /// Entries within `scope` of `base`, in sorted order.
    ///
    /// Reads only pages that can intersect the subtree's key range (plus
    /// at most one boundary page), then filters exactly.
    pub fn scan_scope<'a>(
        &'a self,
        base: &Dn,
        scope: Scope,
    ) -> impl Iterator<Item = PagerResult<Entry>> + 'a {
        let base = base.clone();
        let prefix = base.sort_key().as_bytes().to_vec();
        // First page whose *successor* fence exceeds the prefix start —
        // i.e. the last page with fence <= prefix (the subtree may start
        // mid-page).
        let start_page = match self.fences.binary_search_by(|f| f[..].cmp(&prefix)) {
            Ok(p) => p,
            Err(0) => 0,
            Err(p) => p - 1,
        };
        let prefix2 = prefix.clone();
        self.list
            .iter_from_page(start_page)
            .skip_while(move |r| {
                // Records before the subtree range on the boundary page.
                match r {
                    Ok(e) => e.dn().sort_key().as_bytes() < &prefix[..],
                    Err(_) => false,
                }
            })
            .take_while(move |r| match r {
                Ok(e) => e.dn().sort_key().as_bytes().starts_with(&prefix2),
                Err(_) => true,
            })
            .filter(move |r| match r {
                Ok(e) => scope.contains(&base, e.dn()),
                Err(_) => true,
            })
    }

    /// Position interval of the entries within `scope` of `base`: the
    /// base alone for `Base` (empty when absent), its whole subtree for
    /// `One` and `Sub` (a `One` caller still checks depth, see
    /// [`Self::in_scope`]). Two binary searches over in-memory keys; no
    /// I/O.
    pub(crate) fn scope_range(&self, base: &Dn, scope: Scope) -> Range<u32> {
        let prefix = base.sort_key();
        let lo = self.keys.partition_point(|k| k < prefix);
        let hi = match scope {
            Scope::Base => lo + usize::from(self.keys.get(lo) == Some(prefix)),
            // Keys below `prefix` sort first, then the subtree (every key
            // extending it), then everything above.
            Scope::One | Scope::Sub => lo + self.keys[lo..].partition_point(|k| prefix.subsumes(k)),
        };
        lo as u32..hi as u32
    }

    /// Whether position `pos` of `range` (from [`Self::scope_range`] for
    /// the same `base` and `scope`) lies within the scope: only `One`
    /// needs more than the interval, a depth check on the in-memory key.
    pub(crate) fn in_scope(&self, range: &Range<u32>, pos: u32, base: &Dn, scope: Scope) -> bool {
        range.contains(&pos)
            && (scope != Scope::One || self.keys[pos as usize].depth() <= base.depth() + 1)
    }

    /// Position of entry `id` in sorted order, if the table holds it.
    pub(crate) fn position(&self, id: EntryId) -> Option<u32> {
        self.id_to_pos
            .get(id as usize)
            .copied()
            .filter(|&pos| pos != u32::MAX)
    }

    /// Fetch the entry at position `pos` (one page read if cold).
    pub(crate) fn get_at(&self, pos: u32) -> PagerResult<Option<Entry>> {
        self.list.get(u64::from(pos))
    }

    /// Fetch one entry by id (one page read if cold).
    pub fn fetch(&self, id: EntryId) -> PagerResult<Option<Entry>> {
        match self.position(id) {
            Some(pos) => self.get_at(pos),
            None => Ok(None),
        }
    }
}

/// Fence keys: the first record's sort key on each page, derived from the
/// writer's per-page record counts (metadata; no I/O).
fn page_fences(list: &PagedList<Entry>, keys: &[SortKey]) -> Vec<Vec<u8>> {
    let counts = list.page_record_counts();
    debug_assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), keys.len());
    let mut fences = Vec::with_capacity(counts.len());
    let mut pos = 0usize;
    for c in counts {
        fences.push(keys[pos].as_bytes().to_vec());
        pos += c as usize;
    }
    fences
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_model::Directory;
    use netdir_pager::tiny_pager;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn dir() -> Directory {
        let mut d = Directory::new();
        for s in [
            "dc=com",
            "dc=att, dc=com",
            "ou=people, dc=att, dc=com",
            "uid=a, ou=people, dc=att, dc=com",
            "uid=b, ou=people, dc=att, dc=com",
            "ou=policies, dc=att, dc=com",
            "dc=org",
            "dc=ieee, dc=org",
        ] {
            d.insert(
                Entry::builder(dn(s)).class("thing").build().unwrap(),
            )
            .unwrap();
        }
        d
    }

    fn table() -> (DnTable, Directory) {
        let d = dir();
        let pager = tiny_pager();
        let t = DnTable::build(&pager, d.iter_sorted()).unwrap();
        (t, d)
    }

    #[test]
    fn build_and_full_scan() {
        let (t, d) = table();
        assert_eq!(t.len(), 8);
        let got: Vec<String> = t
            .scan()
            .map(|r| r.unwrap().dn().to_string())
            .collect();
        let expect: Vec<String> = d.iter_sorted().map(|e| e.dn().to_string()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn scope_scans() {
        let (t, _) = table();
        let sub: Vec<String> = t
            .scan_scope(&dn("ou=people, dc=att, dc=com"), Scope::Sub)
            .map(|r| r.unwrap().dn().to_string())
            .collect();
        assert_eq!(
            sub,
            vec![
                "ou=people, dc=att, dc=com",
                "uid=a, ou=people, dc=att, dc=com",
                "uid=b, ou=people, dc=att, dc=com",
            ]
        );
        let one: Vec<String> = t
            .scan_scope(&dn("dc=att, dc=com"), Scope::One)
            .map(|r| r.unwrap().dn().to_string())
            .collect();
        assert_eq!(
            one,
            vec![
                "dc=att, dc=com",
                "ou=people, dc=att, dc=com",
                "ou=policies, dc=att, dc=com",
            ]
        );
        let base: Vec<String> = t
            .scan_scope(&dn("dc=org"), Scope::Base)
            .map(|r| r.unwrap().dn().to_string())
            .collect();
        assert_eq!(base, vec!["dc=org"]);
    }

    #[test]
    fn scope_scan_of_missing_base() {
        let (t, _) = table();
        assert_eq!(t.scan_scope(&dn("dc=net"), Scope::Sub).count(), 0);
    }

    #[test]
    fn root_scope_is_everything() {
        let (t, _) = table();
        assert_eq!(t.scan_scope(&Dn::root(), Scope::Sub).count(), 8);
    }

    #[test]
    fn fetch_by_id() {
        let (t, d) = table();
        for e in d.iter_sorted() {
            let got = t.fetch(e.id()).unwrap().unwrap();
            assert_eq!(got.dn(), e.dn());
        }
        assert!(t.fetch(999).unwrap().is_none());
    }

    #[test]
    fn scope_ranges_match_scope_scans() {
        let (t, d) = table();
        let bases = std::iter::once(Dn::root())
            .chain(d.iter_sorted().map(|e| e.dn().clone()))
            .chain([dn("dc=net"), dn("ou=p, dc=att, dc=com")]);
        for base in bases {
            for scope in [Scope::Base, Scope::One, Scope::Sub] {
                let range = t.scope_range(&base, scope);
                let ranked: Vec<String> = range
                    .clone()
                    .filter(|&pos| t.in_scope(&range, pos, &base, scope))
                    .map(|pos| t.get_at(pos).unwrap().unwrap().dn().to_string())
                    .collect();
                let scanned: Vec<String> = t
                    .scan_scope(&base, scope)
                    .map(|r| r.unwrap().dn().to_string())
                    .collect();
                assert_eq!(ranked, scanned, "({base} ? {scope})");
            }
        }
    }

    #[test]
    fn scoped_scan_reads_fewer_pages_than_full_scan() {
        // Build a bigger directory so it spans many pages.
        let mut d = Directory::new();
        for i in 0..50 {
            d.insert(
                Entry::builder(dn(&format!("dc=d{i:03}")))
                    .class("dcObject")
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for j in 0..20 {
                d.insert(
                    Entry::builder(dn(&format!("cn=c{j:02}, dc=d{i:03}")))
                        .class("person")
                        .build()
                        .unwrap(),
                )
                .unwrap();
            }
        }
        let pager = tiny_pager();
        let t = DnTable::build(&pager, d.iter_sorted()).unwrap();
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        let n = t
            .scan_scope(&dn("dc=d025"), Scope::Sub)
            .count();
        assert_eq!(n, 21);
        let scoped_reads = pager.io().reads;
        assert!(
            scoped_reads * 4 < t.num_pages(),
            "scoped scan read {scoped_reads} of {} pages",
            t.num_pages()
        );
    }
}
