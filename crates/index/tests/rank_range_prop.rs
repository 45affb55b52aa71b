//! Property tests for rank-range scope filtering: over seeded random
//! forests, the index probe (candidates kept by their position in the
//! scope's rank interval), the scope scan, and a brute-force filter over
//! the `Directory` agree for every atomic filter kind and every scope.
//! Bases include the root, absent DNs, leaves, and siblings whose names
//! share a prefix (`uid=user1` vs `uid=user10`), where a byte-prefix test
//! without component boundaries would over-match.
//!
//! The sink path ([`IndexedDirectory::visit_atomic`]) must return the same
//! entries as [`IndexedDirectory::evaluate_atomic`] at the same page-read
//! cost, and must neither write nor allocate a page.

use netdir_filter::atomic::IntOp;
use netdir_filter::{AtomicFilter, Scope};
use netdir_index::IndexedDirectory;
use netdir_model::{Directory, Dn, Entry, Rdn};
use netdir_pager::Pager;
use proptest::prelude::*;

/// Sibling names drawn from a set where several are prefixes of others.
const NAMES: [&str; 6] = ["user1", "user10", "user100", "user11", "user2", "user"];

/// A random forest under `dc=t`: each spec adds a child `uid=<name>`
/// under an earlier entry (duplicates skipped), carrying an int, a
/// string, an optional tag, and a DN reference to an earlier entry.
fn arb_directory() -> impl Strategy<Value = Directory> {
    proptest::collection::vec(
        (
            0u8..12,
            0usize..NAMES.len(),
            0i64..6,
            proptest::bool::ANY,
            0u8..12,
        ),
        1..40,
    )
    .prop_map(|specs| {
        let mut d = Directory::new();
        let root = Dn::parse("dc=t").unwrap();
        d.insert(Entry::builder(root.clone()).class("node").build().unwrap())
            .unwrap();
        let mut dns = vec![root];
        for (parent_sel, name, weight, tag, ref_sel) in specs {
            let parent = dns[(parent_sel as usize) % dns.len()].clone();
            let child = parent.child(Rdn::single("uid", NAMES[name]).unwrap());
            let mut b = Entry::builder(child.clone())
                .class("node")
                .attr("weight", weight)
                .attr("name", NAMES[name])
                .attr("ref", dns[(ref_sel as usize) % dns.len()].clone());
            if tag {
                b = b.attr("tag", "x");
            }
            if d.insert(b.build().unwrap()).is_ok() {
                dns.push(child);
            }
        }
        d
    })
}

fn arb_int_op() -> impl Strategy<Value = IntOp> {
    prop_oneof![
        Just(IntOp::Lt),
        Just(IntOp::Le),
        Just(IntOp::Gt),
        Just(IntOp::Ge),
        Just(IntOp::Eq)
    ]
}

/// Every atomic filter kind, built from a drawn `(kind, op, value,
/// pick)`; a `DnEq` target is the `pick`-th entry of `dir`.
fn filter_of(dir: &Directory, (kind, op, v, pick): (u8, IntOp, i64, usize)) -> AtomicFilter {
    match kind {
        0 => AtomicFilter::True,
        1 => AtomicFilter::False,
        2 => AtomicFilter::present("tag"),
        3 => AtomicFilter::present("ghost"),
        4 => AtomicFilter::eq("name", NAMES[pick % NAMES.len()]),
        5 => {
            let target = dir.iter_sorted().nth(pick % dir.len()).unwrap();
            AtomicFilter::DnEq("ref".into(), target.dn().clone())
        }
        6 => AtomicFilter::int_cmp("weight", op, v),
        7 => AtomicFilter::int_cmp("ghost", op, v),
        8 => netdir_filter::parse_atomic("name=*ser1*").unwrap(),
        9 => netdir_filter::parse_atomic("name=user1*").unwrap(),
        _ => netdir_filter::parse_atomic("name=*0").unwrap(),
    }
}

fn arb_scope() -> impl Strategy<Value = Scope> {
    prop_oneof![Just(Scope::Base), Just(Scope::One), Just(Scope::Sub)]
}

/// Bases worth probing: the root, every entry (leaves and prefix-sharing
/// siblings among them), and absent DNs under present parents.
fn bases(dir: &Directory) -> Vec<Dn> {
    let mut out = vec![Dn::root(), Dn::parse("dc=absent").unwrap()];
    for e in dir.iter_sorted() {
        out.push(e.dn().clone());
        out.push(e.dn().child(Rdn::single("uid", "user1000").unwrap()));
    }
    out
}

fn dns<'a>(entries: impl IntoIterator<Item = &'a Entry>) -> Vec<String> {
    entries.into_iter().map(|e| e.dn().to_string()).collect()
}

/// Page reads of `run` from a cold pool.
fn cold_reads<T>(pager: &Pager, run: impl FnOnce() -> T) -> (T, u64) {
    pager.flush().unwrap();
    pager.pool().clear_cache().unwrap();
    pager.reset_io();
    let out = run();
    (out, pager.io().reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn rank_range_probe_scan_and_brute_force_agree(
        dir in arb_directory(),
        spec in (0u8..11, arb_int_op(), 0i64..6, 0usize..64),
        scope in arb_scope(),
        base_sel in 0usize..256,
    ) {
        let filter = filter_of(&dir, spec);
        // Frames enough for table and result pages, so cold-pool read
        // counts measure the table pages each path touches.
        let pager = Pager::new(512, 256);
        let idx = IndexedDirectory::build(&pager, &dir).unwrap();
        let all = bases(&dir);
        // Two bases per case, drawn from the pool above.
        let picks = [base_sel % all.len(), (base_sel * 7 + 3) % all.len()];
        for base in picks.map(|i| all[i].clone()) {
            let what = format!("({base} ? {scope} ? {filter})");
            let brute = dns(
                dir.iter_sorted()
                    .filter(|e| scope.contains(&base, e.dn()) && filter.matches(e)),
            );
            let (probe, list_reads) = cold_reads(&pager, || {
                idx.evaluate_atomic(&base, scope, &filter).unwrap().to_vec().unwrap()
            });
            let scan = idx.evaluate_scan(&base, scope, &filter).unwrap().to_vec().unwrap();
            prop_assert_eq!(&dns(&probe), &brute, "probe vs brute force {}", what);
            prop_assert_eq!(&dns(&scan), &brute, "scan vs brute force {}", what);

            let (visited, visit_reads) = cold_reads(&pager, || {
                let mut out = Vec::new();
                idx.visit_atomic(&base, scope, &filter, |e| {
                    out.push(e.clone());
                    Ok(())
                })
                .unwrap();
                out
            });
            let io = pager.io();
            prop_assert_eq!(&dns(&visited), &brute, "sink vs brute force {}", what);
            prop_assert_eq!(visit_reads, list_reads, "sink vs list page reads {}", what);
            prop_assert_eq!((io.writes, io.allocs), (0, 0), "sink wrote pages {}", what);
        }
    }
}
