//! Golden snapshot layouts.
//!
//! A built tree is a pure function of `(items, params)`, and its
//! snapshot bytes are a pure function of the tree. This suite pins the
//! FNV-1a-64 digest of `encode_vp_tree` / `encode_mvp_tree` output for a
//! few fixed datasets and parameter sets, so any change to construction
//! or to the arena layout — node order, class ranks, leaf columns, PATH
//! blocks — shows up as a digest mismatch instead of passing silently
//! through the round-trip suites (which only compare a tree with its
//! own reload).
//!
//! Every case is built sequentially and again with three workers. The
//! worker count is part of the encoded params, so each build has its own
//! pinned digest; the node sections are identical by construction.

use vantage_core::prelude::*;
use vantage_datasets::ClusteredConfig;
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_persist as persist;
use vantage_persist::check::fnv1a64;
use vantage_vptree::{VpTree, VpTreeParams};

fn clustered(clusters: usize, cluster_size: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    vantage_datasets::clustered_vectors(&ClusteredConfig {
        clusters,
        cluster_size,
        dim,
        epsilon: 0.15,
        seed,
    })
    .unwrap()
}

fn vp_digest(items: Vec<Vec<f64>>, params: VpTreeParams) -> u64 {
    let tree = VpTree::build(items, Euclidean, params).unwrap();
    fnv1a64(&persist::encode_vp_tree(&tree))
}

fn mvp_digest(items: Vec<Vec<f64>>, params: MvpParams) -> u64 {
    let tree = MvpTree::build(items, Euclidean, params).unwrap();
    fnv1a64(&persist::encode_mvp_tree(&tree))
}

fn word_mvp_digest(words: Vec<String>, params: MvpParams) -> u64 {
    let tree = MvpTree::build(words, Levenshtein, params).unwrap();
    fnv1a64(&persist::encode_mvp_tree(&tree))
}

fn check(name: &str, pinned: [u64; 2], digest: impl Fn(Threads) -> u64) {
    for (threads, expected) in [Threads::SEQUENTIAL, Threads::Fixed(3)]
        .into_iter()
        .zip(pinned)
    {
        let got = digest(threads);
        assert_eq!(
            got, expected,
            "{name} at {threads:?}: snapshot digest {got:#018x}, pinned {expected:#018x}"
        );
    }
}

#[test]
fn vp_order_2_layout_is_pinned() {
    check(
        "vp(2), leaf 1",
        [0x8d10_4515_a37f_d286, 0x096b_55fa_b7c5_30e1],
        |threads| {
            vp_digest(
                clustered(12, 60, 8, 4),
                VpTreeParams::binary().seed(17).threads(threads),
            )
        },
    );
}

#[test]
fn vp_order_3_layout_is_pinned() {
    check(
        "vp(3), leaf 4",
        [0xb166_ed5b_6f60_20d0, 0xc691_d220_6829_159b],
        |threads| {
            vp_digest(
                vantage_datasets::uniform_vectors(1500, 10, 23),
                VpTreeParams::with_order(3)
                    .leaf_capacity(4)
                    .seed(5)
                    .threads(threads),
            )
        },
    );
}

#[test]
fn mvp_binary_layout_is_pinned() {
    check(
        "mvp(2,6,3)",
        [0xcc05_754a_892a_676e, 0x155c_156d_9b4f_ac0b],
        |threads| {
            mvp_digest(
                clustered(12, 60, 8, 4),
                MvpParams::paper(2, 6, 3).seed(29).threads(threads),
            )
        },
    );
}

#[test]
fn mvp_paper_layout_is_pinned() {
    check(
        "mvp(3,80,5)",
        [0x95c6_3b20_b13e_5ce3, 0x622a_2854_77a5_a4ce],
        |threads| {
            mvp_digest(
                clustered(40, 50, 20, 8),
                MvpParams::paper(3, 80, 5).seed(31).threads(threads),
            )
        },
    );
}

#[test]
fn mvp_word_layout_is_pinned() {
    check(
        "mvp(2,4,2) over words",
        [0x23f6_1792_eaa1_e695, 0x4fdf_ea7b_6310_eeac],
        |threads| {
            word_mvp_digest(
                vantage_datasets::random_words(700, 3, 10, 13),
                MvpParams::paper(2, 4, 2).seed(3).threads(threads),
            )
        },
    );
}
