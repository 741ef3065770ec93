//! Per-round random maximal-matching generation for the scheme-kernel
//! layer's random plan (`crate::scheme_kernel`).
//!
//! Every round of `scheme=matching:random:…` draws a fresh maximal
//! matching greedily over a `(seed, round)`-keyed random edge order. The
//! original implementation materialized that order by sorting `(key,
//! edge)` pairs — `O(m log m)` per round, which dominated the workload
//! (~44 of its ~60 ns/edge). [`fill_random_matching`] replaces the sort
//! with an `O(m)` **counting-scatter bucket pass**:
//!
//! 1. one fused RNG sweep ([`crate::rng::fill_first_draws`]) computes
//!    each edge's 64-bit key — the first draw of its `(seed, edge,
//!    round)` stream, the same key the sort used;
//! 2. a counting pass buckets edges by the key's top `k` bits
//!    (`k ≈ ⌈log₂ m⌉ − 3`, so buckets hold ~8 edges on average and the
//!    counts table stays cache-resident), a prefix sum turns counts into
//!    bucket offsets, and a stable scatter lays `(edge id, packed
//!    endpoints)` pairs out in bucket order — the endpoint word
//!    ([`edge_pairs`]) is a *sequential* read at scatter time, so
//!    carrying it costs a wider store but removes the random
//!    `uv[order[i]]` gather that used to dominate the next pass;
//! 3. the greedy matcher streams the scattered pairs **sequentially** —
//!    i.e. in key-prefix order with edge-id tie-break — marking
//!    endpoints matched and setting mask bits exactly as before; its
//!    only remaining random accesses probe the L1-resident per-node
//!    `matched` bitset.
//!
//! The visit order is deterministic per `(seed, round)` and generated on
//! the control thread only, so sequential and pooled execution stay
//! bit-identical. It is *not* the same order the full-key sort produced
//! (ties inside a bucket break by edge id instead of by the key's low
//! bits), so the matching **distribution** changed when this landed and
//! the `matching:random` golden traces were re-pinned once — see the
//! re-pin policy in `tests/golden_trace.rs`. The statistical properties
//! the scheme relies on are unchanged and tested below: every round's
//! matching is maximal, distinct rounds draw distinct matchings, and
//! matching sizes stay tightly concentrated across rounds.
//!
//! The tests below keep the pre-optimization sort-based generator as an
//! oracle and compare its outputs' statistics with the bucketed one's.
//!
//! This module is exported `#[doc(hidden)]` (like [`crate::kernel`]) so
//! `perfbench` can time matching generation in isolation; it is **not**
//! a stable API.

use sodiff_graph::EdgeId;

use crate::kernel::KernelTables;
use crate::rng;

/// Number of 64-bit words of an edge bitmask over `m` edges.
fn mask_words(m: usize) -> usize {
    m.div_ceil(64)
}

/// Control-thread scratch for per-round random matching generation. All
/// buffers grow on first use and are then reused across rounds — steady
/// state allocates nothing.
#[derive(Default)]
pub struct MatchScratch {
    /// The generated active-edge bitmask (`⌈m/64⌉` words).
    pub mask: Vec<u64>,
    /// Bucket occupancy, then (after the prefix sum) bucket offsets;
    /// `2^k + 1` slots.
    counts: Vec<u32>,
    /// `(edge id, packed endpoints)` scattered into bucket order — the
    /// bucketed generator's greedy visit stream. Carrying the endpoint
    /// word (a sequential read at scatter time) lets the greedy pass
    /// stream this buffer sequentially instead of gathering
    /// `uv[order[i]]` at random.
    slots: Vec<(EdgeId, u64)>,
    /// Per-node matched bitset of the round under construction (a
    /// `⌈n/64⌉`-word bitset keeps the greedy pass's random endpoint
    /// probes L1-resident on graphs where a byte-per-node array is not).
    matched: Vec<u64>,
}

/// Bucket-index width for `m` edges: `⌈log₂ m⌉ − 3` bits, i.e. ~8 edges
/// per bucket in expectation. Coarser buckets than edges trade a few
/// more edge-id tie-breaks for an 8× smaller counts table — the
/// counting passes' random accesses then stay in L1/L2 where a
/// one-edge-per-bucket table thrashes — and the cap at 2¹⁶ buckets
/// bounds the table at 256 KiB of `u32` counts for huge graphs.
fn bucket_bits(m: usize) -> u32 {
    (usize::BITS - (m.max(2) - 1).leading_zeros())
        .saturating_sub(3)
        .clamp(1, 16)
}

/// The packed endpoint table the bucket scatter carries: edge `e`'s
/// canonical tail in the low 32 bits, head in the high 32 — the graph's
/// `(tail, head)` pairs as one `u64` word each, so each scattered slot is
/// a single `(edge id, word)` store. Built once per simulation (the
/// scheme kernel owns it for the random plan only) and shared across
/// rounds.
pub fn edge_pairs(t: &KernelTables) -> Vec<u64> {
    t.graph()
        .edges()
        .iter()
        .map(|&(u, v)| u as u64 | ((v as u64) << 32))
        .collect()
}

/// Greedy maximal matching over the scattered `(edge, endpoints)` stream,
/// in stream order: every input is a sequential read — the endpoint
/// gather already happened at scatter time — so the pass runs at
/// streaming speed with only the L1-resident `matched` bitset probed at
/// random.
fn greedy_match_packed(slots: &[(EdgeId, u64)], matched: &mut [u64], mask: &mut [u64]) {
    for &(e, pair) in slots {
        let (u, v) = ((pair & 0xffff_ffff) as usize, (pair >> 32) as usize);
        let (wu, bu) = (u >> 6, 1u64 << (u & 63));
        let (wv, bv) = (v >> 6, 1u64 << (v & 63));
        if (matched[wu] & bu) | (matched[wv] & bv) == 0 {
            matched[wu] |= bu;
            matched[wv] |= bv;
            mask[(e >> 6) as usize] |= 1u64 << (e & 63);
        }
    }
}

/// Fills `mg.mask` with a maximal matching drawn greedily over the
/// `(seed, round)`-keyed random edge order, in `O(m)` via the
/// counting-scatter bucket pass described in the module docs.
/// Deterministic per `(seed, round)` and independent of the executor:
/// only the control thread runs this.
pub fn fill_random_matching(
    seed: u64,
    round: u64,
    t: &KernelTables,
    uv: &[u64],
    mg: &mut MatchScratch,
) {
    let m = t.m;
    mg.mask.clear();
    mg.mask.resize(mask_words(m), 0);
    if m == 0 {
        return;
    }
    let bits = bucket_bits(m);
    let buckets = 1usize << bits;
    let shift = 64 - bits;
    mg.counts.clear();
    mg.counts.resize(buckets + 1, 0);
    // Count pass: draw each edge's key (the first draw of its
    // (seed, edge, round) stream — the same key the sort used) in
    // lane-chunked stack batches and count bucket occupancy. The draws
    // are *recomputed* in the scatter pass below instead of being stored:
    // two extra `mix64`s per edge are far cheaper than writing and
    // re-reading an m-sized key array that the round's kernel sweeps
    // would be evicted by.
    let rk = rng::round_key(seed, round);
    let mut draws = [0u64; 64];
    let mut e0 = 0usize;
    while e0 < m {
        let len = (m - e0).min(64);
        rng::fill_first_draws(rk, e0, &mut draws[..len]);
        for &draw in &draws[..len] {
            mg.counts[(draw >> shift) as usize + 1] += 1;
        }
        e0 += len;
    }
    for b in 1..=buckets {
        mg.counts[b] += mg.counts[b - 1];
    }
    // Stable scatter: edges arrive in increasing id, so within a bucket
    // the visit order is edge-id order — the effective greedy key is
    // (key >> shift, edge id). The endpoint word rides along: `uv` is
    // read sequentially here, turning the greedy pass's random
    // `uv[order[i]]` gathers into one wider sequential stream.
    mg.slots.resize(m, (0, 0));
    let mut e0 = 0usize;
    while e0 < m {
        let len = (m - e0).min(64);
        rng::fill_first_draws(rk, e0, &mut draws[..len]);
        for (i, &draw) in draws[..len].iter().enumerate() {
            let slot = &mut mg.counts[(draw >> shift) as usize];
            mg.slots[*slot as usize] = ((e0 + i) as EdgeId, uv[e0 + i]);
            *slot += 1;
        }
        e0 += len;
    }
    mg.matched.clear();
    mg.matched.resize(mask_words(t.n), 0);
    greedy_match_packed(&mg.slots, &mut mg.matched, &mut mg.mask);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::{generators, matching, Graph, Speeds};

    fn tables(graph: &Graph) -> KernelTables {
        let n = graph.node_count();
        KernelTables::new(graph, &Speeds::uniform(n), false, 0.0)
    }

    /// The pre-optimization generator, kept as the distribution tests'
    /// oracle: its greedy order sorts `(key, edge)` pairs on the full
    /// 64-bit key, `O(m log m)` per round.
    fn fill_random_matching_sorted(
        seed: u64,
        round: u64,
        t: &KernelTables,
        uv: &[u64],
        mg: &mut MatchScratch,
    ) {
        let mut keys = vec![0u64; t.m];
        rng::fill_first_draws(rng::round_key(seed, round), 0, &mut keys);
        let mut pairs: Vec<(u64, EdgeId)> = keys.iter().zip(0..).map(|(&k, e)| (k, e)).collect();
        pairs.sort_unstable();
        let order: Vec<(EdgeId, u64)> = pairs.iter().map(|&(_, e)| (e, uv[e as usize])).collect();
        mg.mask = vec![0; mask_words(t.m)];
        mg.matched = vec![0; mask_words(t.n)];
        greedy_match_packed(&order, &mut mg.matched, &mut mg.mask);
    }

    fn mask_edges(m: usize, mask: &[u64]) -> Vec<EdgeId> {
        (0..m as u32)
            .filter(|&e| (mask[(e >> 6) as usize] >> (e & 63)) & 1 == 1)
            .collect()
    }

    #[test]
    fn bucketed_matchings_are_maximal_deterministic_and_vary() {
        let g = generators::torus2d(5, 5);
        let t = tables(&g);
        let mut mg = MatchScratch::default();
        let mut per_round = Vec::new();
        let uv = edge_pairs(&t);
        for round in 0..4 {
            fill_random_matching(9, round, &t, &uv, &mut mg);
            let edges = mask_edges(t.m, &mg.mask);
            assert!(
                matching::is_maximal_matching(&g, &edges),
                "round {round} must draw a maximal matching"
            );
            per_round.push(edges);
        }
        assert!(
            per_round.windows(2).any(|w| w[0] != w[1]),
            "successive rounds should draw different matchings"
        );
        // Same (seed, round) reproduces the same matching.
        fill_random_matching(9, 0, &t, &uv, &mut mg);
        assert_eq!(mask_edges(t.m, &mg.mask), per_round[0]);
    }

    /// The statistical guarantee the bucket pass must preserve: across
    /// many rounds, every matching is maximal and sizes concentrate
    /// tightly around the sorted reference's mean (the greedy order is
    /// ~uniform either way; only tie-breaks inside a key-prefix bucket
    /// differ).
    #[test]
    fn bucketed_matching_sizes_match_sorted_reference_statistics() {
        let g = generators::torus2d(16, 16);
        let t = tables(&g);
        let rounds = 64u64;
        let uv = edge_pairs(&t);
        type FillFn = dyn Fn(u64, u64, &KernelTables, &[u64], &mut MatchScratch);
        let mean_size = |fill: &FillFn| {
            let mut mg = MatchScratch::default();
            let mut sizes = Vec::new();
            for round in 0..rounds {
                fill(33, round, &t, &uv, &mut mg);
                let edges = mask_edges(t.m, &mg.mask);
                assert!(matching::is_maximal_matching(&g, &edges));
                sizes.push(edges.len() as f64);
            }
            let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
            let var =
                sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sizes.len() as f64;
            (mean, var.sqrt())
        };
        let (bucket_mean, bucket_sd) = mean_size(&fill_random_matching);
        let (sorted_mean, sorted_sd) = mean_size(&fill_random_matching_sorted);
        // A maximal matching on a 16×16 torus has between n/4 = 64 and
        // n/2 = 128 edges; random greedy sits near ~0.43·m ≈ 110. The
        // two generators must agree on the regime.
        assert!(
            (bucket_mean - sorted_mean).abs() < 0.05 * sorted_mean,
            "means diverge: bucketed {bucket_mean:.1} vs sorted {sorted_mean:.1}"
        );
        for (name, mean, sd) in [
            ("bucketed", bucket_mean, bucket_sd),
            ("sorted", sorted_mean, sorted_sd),
        ] {
            assert!(
                (64.0..=128.0).contains(&mean),
                "{name} mean size {mean} outside the maximal-matching range"
            );
            assert!(
                sd < 0.1 * mean,
                "{name} sizes not concentrated: sd {sd:.2} vs mean {mean:.1}"
            );
        }
    }

    #[test]
    fn handles_tiny_and_edgeless_graphs() {
        let mut mg = MatchScratch::default();
        // Single edge: always matched.
        let g = generators::path(2);
        let t = tables(&g);
        fill_random_matching(1, 0, &t, &edge_pairs(&t), &mut mg);
        assert_eq!(mask_edges(t.m, &mg.mask), vec![0]);
        // Edgeless: empty mask, no panic (shift stays in range).
        let g = generators::path(1);
        let t = tables(&g);
        fill_random_matching(1, 0, &t, &edge_pairs(&t), &mut mg);
        assert!(mg.mask.is_empty());
    }

    #[test]
    fn scratch_is_reusable_across_graph_sizes() {
        // A scratch warmed on a big graph must produce correct results on
        // a smaller one (stale buffer lengths trimmed, not trusted).
        let big = generators::torus2d(8, 8);
        let small = generators::cycle(5);
        let (tb, ts) = (tables(&big), tables(&small));
        let mut mg = MatchScratch::default();
        fill_random_matching(2, 0, &tb, &edge_pairs(&tb), &mut mg);
        fill_random_matching(2, 0, &ts, &edge_pairs(&ts), &mut mg);
        let edges = mask_edges(ts.m, &mg.mask);
        assert!(matching::is_maximal_matching(&small, &edges));
        let mut fresh = MatchScratch::default();
        fill_random_matching(2, 0, &ts, &edge_pairs(&ts), &mut fresh);
        assert_eq!(mg.mask, fresh.mask, "reused scratch must not leak state");
    }
}
