//! Tier-1 robustness gate: a built EXACT3 index whose tree file lost one
//! byte of one leaf answers or says it is corrupt — it never panics.
//!
//! The tree is built from a small Temp set, copied page by page into a
//! fresh file with that leaf's byte flipped, and reopened beside the
//! index's metadata with `Exact3::open_parts`, as a checkpoint image
//! boots it. A window query and an instant query that both read the leaf
//! must each return an answer or `CoreError::Index(IndexError::Corrupt)`.
//! The panics over every flip are printed as a `pinned:` line before they
//! are asserted; `ci.sh`'s `tier1` stage echoes it into its summary.

use chronorank::core::{AggKind, CoreError, Exact3, IndexConfig, RankMethod, TopK};
use chronorank::index::IndexError;
use chronorank::storage::Env;
use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a query over a damaged tree ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Answer,
    Corrupt,
    OtherError,
    Panic,
}

fn outcome(query: impl FnOnce() -> chronorank::core::Result<TopK>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(query)) {
        Ok(Ok(_)) => Outcome::Answer,
        Ok(Err(CoreError::Index(IndexError::Corrupt(_)))) => Outcome::Corrupt,
        Ok(Err(_)) => Outcome::OtherError,
        Err(_) => Outcome::Panic,
    }
}

#[test]
fn every_byte_flip_of_a_built_exact3_leaf_answers_or_is_corrupt() {
    let set =
        TempGenerator::new(TempConfig { objects: 40, avg_segments: 30, ..Default::default() })
            .generate_set();
    let exact3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    exact3.flush().unwrap();
    let (store, meta, tree) = (exact3.store_config(), exact3.meta_bytes(), exact3.tree_file());
    let pages: Vec<Vec<u8>> =
        (0..tree.num_blocks()).map(|id| tree.page(id).unwrap().to_vec()).collect();
    // Block 1 is the first leaf written: the inner levels come last.
    const LEAF: usize = 1;
    let leaf = &pages[LEAF];
    // Probe at the leaf's base `lo`, which its fence covers, so both
    // queries read it.
    let lanes = (16 + 28usize).div_ceil(8);
    let t = f64::from_le_bytes(leaf[8 + lanes..16 + lanes].try_into().unwrap());
    let t2 = t + (set.t_max() - set.t_min()) / 4.0;
    let want = (exact3.top_k(t, t2, 5, AggKind::Sum).unwrap(), exact3.instant_top_k(t, 5).unwrap());

    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut outcomes = std::collections::BTreeMap::new();
    for at in 0..leaf.len() {
        let env = Env::mem(store);
        let file = env.create_file("flipped").unwrap();
        file.allocate(pages.len() as u64).unwrap();
        for (id, page) in pages.iter().enumerate() {
            let mut page = page.clone();
            if id == LEAF {
                page[at] ^= 0xFF;
            }
            file.write(id as u64, &page).unwrap();
        }
        let index = Exact3::open_parts(env, store, file, &meta).unwrap();
        for got in
            [outcome(|| index.top_k(t, t2, 5, AggKind::Sum)), outcome(|| index.instant_top_k(t, 5))]
        {
            *outcomes.entry(got).or_insert(0usize) += 1;
        }
    }
    std::panic::set_hook(quiet);
    let panics = outcomes.get(&Outcome::Panic).copied().unwrap_or(0);
    println!("pinned: panics over every byte flip of a built EXACT3 leaf: {panics}");
    println!("measured: outcomes over {} flips, two queries each: {outcomes:?}", leaf.len());
    assert_eq!(panics, 0, "{outcomes:?}");
    assert!(!outcomes.contains_key(&Outcome::OtherError), "{outcomes:?}");
    assert!(outcomes[&Outcome::Corrupt] > 0, "no flip was caught: {outcomes:?}");
    // The undamaged copy answers as the built index does.
    let env = Env::mem(store);
    let file = env.create_file("copy").unwrap();
    file.allocate(pages.len() as u64).unwrap();
    for (id, page) in pages.iter().enumerate() {
        file.write(id as u64, page).unwrap();
    }
    let index = Exact3::open_parts(env, store, file, &meta).unwrap();
    let got = (index.top_k(t, t2, 5, AggKind::Sum).unwrap(), index.instant_top_k(t, 5).unwrap());
    assert_eq!(got, want);
}
