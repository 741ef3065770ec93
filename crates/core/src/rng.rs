//! A tiny deterministic RNG for per-(node, round) random streams.
//!
//! The randomized rounding framework draws a handful of random numbers per
//! node per round. Seeding a cryptographic RNG (`StdRng`) that often would
//! dominate the simulation cost, so we use SplitMix64 — a statistically
//! solid 64-bit mixer — keyed by `(seed, node, round)`. This also makes
//! results independent of iteration order: a parallel executor touching
//! nodes in any order produces bit-identical flows.
//!
//! The hot path does not construct a [`SplitMix64`] per node: the
//! per-round part of the key is hoisted by [`round_key`], and the
//! rounding phase computes a sending node's warmed-up stream state on
//! the spot with `warmed_state` (one `mix64` instead of the two
//! finalizer rounds plus discarded warm-up draw the keyed constructor
//! pays), so it keeps no per-node state buffer. [`fill_node_states`] runs
//! the same computation over a whole node range in one flat sweep; it is
//! the reference the state derivation is checked and timed against.
//! Both are bit-identical to [`SplitMix64::for_node_round`]: resuming a
//! state they produce with [`SplitMix64::new`] yields exactly the
//! canonical `(seed, node, round)` stream, which `tests/golden_rng.rs`
//! proves draw by draw.
//!
//! # No serial RNG state — the checkpointing invariant
//!
//! Every random draw in the simulator is a **pure function of its
//! coordinates**: `(seed, salt, round, counter)` for the fault and load
//! channels ([`salted_stream_key`] + [`nth_u64`]), `(seed, node, round)`
//! for the rounding streams. Nothing ever advances a generator that
//! outlives a round; the only "state" is the key arithmetic above,
//! recomputed from the coordinates on demand. Two consequences:
//!
//! * iteration order is irrelevant — parallel executors reproduce
//!   sequential runs bit for bit, and
//! * a run can be **resumed from any `(round, counter)` offset** with
//!   zero saved RNG bytes: replaying from the offset produces exactly
//!   the tail of the from-zero stream. This is what lets
//!   [`crate::checkpoint`] snapshots omit RNG state entirely — the
//!   `ScenarioSpec`'s seed is sufficient — proven by the
//!   `resume_from_arbitrary_offset_matches_from_zero` test below.

/// The SplitMix64 state increment (golden-ratio constant).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 stream generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw state.
    pub fn new(state: u64) -> Self {
        Self { state }
    }

    /// Creates the canonical stream for `(seed, node, round)`.
    pub fn for_node_round(seed: u64, node: u32, round: u64) -> Self {
        // Mix the coordinates through two rounds of the finalizer so that
        // neighboring (node, round) pairs decorrelate.
        let mut s = Self::new(seed ^ mix64((node as u64).wrapping_add(GAMMA)) ^ round_salt(round));
        s.next_u64(); // discard the first output to scramble low entropy
        s
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The round-dependent key contribution of
/// [`SplitMix64::for_node_round`], shared by every node of a round.
#[inline]
fn round_salt(round: u64) -> u64 {
    mix64(round.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Hoists the per-round half of the `(seed, node, round)` key: the value
/// every node of `round` XORs its own node mix into.
#[inline]
pub fn round_key(seed: u64, round: u64) -> u64 {
    seed ^ round_salt(round)
}

/// Round key of an independent sub-stream: the `(seed ^ salt, index)`
/// composition the fault channels and load generators share. Each
/// subsystem reserves one `salt` constant per randomness kind (crash
/// schedule, edge drops, Poisson arrivals, …) so several channels keyed
/// from one user-visible seed draw decorrelated streams — changing the
/// salt re-keys every round of that channel without touching the others.
#[inline]
pub fn salted_stream_key(seed: u64, salt: u64, index: u64) -> u64 {
    round_key(seed ^ salt, index)
}

/// The `k`-th (0-indexed) output of the SplitMix64 stream at `state`,
/// computed directly from the counter: identical to calling
/// [`SplitMix64::next_u64`] `k + 1` times, but with no serial dependency
/// between draws — consecutive `k` are independent `mix64` chains the CPU
/// can overlap.
#[inline]
pub fn nth_u64(state: u64, k: u64) -> u64 {
    mix64(state.wrapping_add(GAMMA.wrapping_mul(k.wrapping_add(1))))
}

/// Maps a random word to a uniform `f64` in `[0, 1)`, exactly as
/// [`SplitMix64::next_f64`] does (53 mantissa bits).
#[inline]
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The warmed-up SplitMix64 state of stream id `id` under `round_key`:
/// the per-element computation of the bulk sweeps below. The warm-up
/// discard of [`SplitMix64::for_node_round`] is fused into the key mix —
/// advancing the initial state by one `GAMMA` *is* discarding the first
/// output — so the per-id cost is a single `mix64`.
#[inline(always)]
pub(crate) fn warmed_state(round_key: u64, id: u64) -> u64 {
    (round_key ^ mix64(id.wrapping_add(GAMMA))).wrapping_add(GAMMA)
}

/// Lane width of the bulk sweeps: wide enough to keep eight independent
/// `mix64` chains in flight (the chain is ~5 cycles of serial latency but
/// one µop per step, so ILP — not SIMD — is where the win is; baseline
/// x86-64 has no 64-bit vector multiply anyway).
const SWEEP_LANES: usize = 8;

/// Bulk draw sweep: fills `out[i]` with the **warmed-up** SplitMix64 state
/// of node `first_node + i` for the round baked into `round_key` (from
/// [`round_key`]). The rounding phase no longer calls it (it computes a
/// state only for a node that sends tokens); the sweep stays as the
/// bulk form that `tests/golden_rng.rs` checks against the keyed
/// constructor and perfbench's `rng.node_states_ns_per_node` times.
///
/// The per-node cost is a single `mix64` (see `warmed_state` above) in a
/// flat pass over consecutive node ids, restructured into fixed
/// `SWEEP_LANES`-wide chunks (scalar tail) so the eight chains retire
/// in parallel. Measured on a single-core host (65536-node sweep, by a
/// since-retired criterion bench; perfbench's
/// `rng.node_states_ns_per_node` times the sweep today): 120 → 111 µs
/// mean per sweep (~8%) over the plain `iter_mut().enumerate()` loop.
/// Resuming `out[i]` with [`SplitMix64::new`] produces exactly the
/// stream `for_node_round(seed, first_node + i, round)` would.
pub fn fill_node_states(round_key: u64, first_node: usize, out: &mut [u64]) {
    let mut id = first_node as u64;
    let mut chunks = out.chunks_exact_mut(SWEEP_LANES);
    for chunk in &mut chunks {
        for (lane, slot) in chunk.iter_mut().enumerate() {
            *slot = warmed_state(round_key, id.wrapping_add(lane as u64));
        }
        id = id.wrapping_add(SWEEP_LANES as u64);
    }
    for slot in chunks.into_remainder() {
        *slot = warmed_state(round_key, id);
        id = id.wrapping_add(1);
    }
}

/// Bulk sweep of each stream's **first draw**: fills `out[i]` with
/// `nth_u64(state, 0)` of the warmed-up state of id `first_id + i` —
/// exactly what resuming the stream and drawing once would produce — in
/// the same fixed-lane chunked shape as [`fill_node_states`] (two fused
/// `mix64`s per id, no intermediate state array).
///
/// This is the key sweep of the random-matching generator
/// ([`crate::matchgen`]): one uniform 64-bit key per edge per round.
pub fn fill_first_draws(round_key: u64, first_id: usize, out: &mut [u64]) {
    #[inline(always)]
    fn first_draw(round_key: u64, id: u64) -> u64 {
        mix64(warmed_state(round_key, id).wrapping_add(GAMMA))
    }
    let mut id = first_id as u64;
    let mut chunks = out.chunks_exact_mut(SWEEP_LANES);
    for chunk in &mut chunks {
        for (lane, slot) in chunk.iter_mut().enumerate() {
            *slot = first_draw(round_key, id.wrapping_add(lane as u64));
        }
        id = id.wrapping_add(SWEEP_LANES as u64);
    }
    for slot in chunks.into_remainder() {
        *slot = first_draw(round_key, id);
        id = id.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_key() {
        let mut a = SplitMix64::for_node_round(1, 2, 3);
        let mut b = SplitMix64::for_node_round(1, 2, 3);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_keys_decorrelate() {
        let x = SplitMix64::for_node_round(1, 2, 3).next_u64();
        assert_ne!(x, SplitMix64::for_node_round(1, 2, 4).next_u64());
        assert_ne!(x, SplitMix64::for_node_round(1, 3, 3).next_u64());
        assert_ne!(x, SplitMix64::for_node_round(2, 2, 3).next_u64());
    }

    #[test]
    fn bulk_sweep_matches_keyed_constructor() {
        // The flat sweep must reproduce the canonical per-node streams
        // bit for bit, warm-up discard included.
        for seed in [0u64, 1, 42, u64::MAX] {
            for round in [0u64, 1, 77, 1 << 40] {
                let rk = round_key(seed, round);
                let mut states = vec![0u64; 33];
                fill_node_states(rk, 5, &mut states);
                for (i, &state) in states.iter().enumerate() {
                    let mut bulk = SplitMix64::new(state);
                    let mut keyed = SplitMix64::for_node_round(seed, (5 + i) as u32, round);
                    for draw in 0..8 {
                        assert_eq!(
                            bulk.next_u64(),
                            keyed.next_u64(),
                            "seed {seed} round {round} node {} draw {draw}",
                            5 + i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_draw_sweep_matches_states_plus_counter() {
        // The fused two-mix sweep must equal "fill states, then take each
        // stream's draw 0", for lengths that exercise the chunked lanes
        // and the scalar tail alike.
        for len in [0usize, 1, 7, 8, 9, 33] {
            let rk = round_key(99, 1234);
            let mut states = vec![0u64; len];
            fill_node_states(rk, 3, &mut states);
            let mut draws = vec![0u64; len];
            fill_first_draws(rk, 3, &mut draws);
            for (i, (&state, &draw)) in states.iter().zip(&draws).enumerate() {
                assert_eq!(draw, nth_u64(state, 0), "id {}", 3 + i);
            }
        }
    }

    #[test]
    fn bulk_sweep_tail_matches_chunked_lanes() {
        // A sweep whose length is not a lane multiple must agree with a
        // longer sweep on the shared prefix (tail code path == lane path).
        let rk = round_key(5, 6);
        let mut short = vec![0u64; 13];
        let mut long = vec![0u64; 32];
        fill_node_states(rk, 0, &mut short);
        fill_node_states(rk, 0, &mut long);
        assert_eq!(short[..], long[..13]);
    }

    #[test]
    fn salted_streams_are_independent() {
        // Two channels salted differently under the SAME user seed must
        // draw decorrelated streams at every index, and each must still
        // be a deterministic function of (seed, salt, index).
        const SALT_A: u64 = 0x6372_6173_685f_9d1c;
        const SALT_B: u64 = 0x706f_6973_736f_6e5f;
        for seed in [0u64, 7, u64::MAX] {
            for index in [0u64, 1, 63, 1 << 33] {
                let a = salted_stream_key(seed, SALT_A, index);
                let b = salted_stream_key(seed, SALT_B, index);
                assert_ne!(a, b, "salts collided at seed {seed} index {index}");
                assert_eq!(a, salted_stream_key(seed, SALT_A, index));
                // First draws of the two streams differ too — salting
                // decorrelates the outputs, not just the keys.
                assert_ne!(nth_u64(a, 0), nth_u64(b, 0));
                // And the composition is exactly round_key of the salted
                // seed, so existing per-channel golden data stays valid.
                assert_eq!(a, round_key(seed ^ SALT_A, index));
            }
        }
    }

    #[test]
    fn nth_matches_serial_stream() {
        // nth_u64 is the counter-indexed form of the serial generator:
        // the k-th output of SplitMix64::new(S) for any S and k.
        for state in [0u64, 42, 0xdead_beef, u64::MAX] {
            let mut serial = SplitMix64::new(state);
            for k in 0..64u64 {
                assert_eq!(serial.next_u64(), nth_u64(state, k), "state {state} k {k}");
            }
        }
    }

    #[test]
    fn resume_from_arbitrary_offset_matches_from_zero() {
        // The checkpoint/resume invariant: replaying any stream from an
        // arbitrary (round, counter) offset yields exactly the tail of
        // the from-zero stream — no serial RNG state exists to save.
        const SALT: u64 = 0x6372_6173_685f_9d1c;
        for seed in [3u64, 99, u64::MAX] {
            for round in [0u64, 17, 1 << 35] {
                let key = salted_stream_key(seed, SALT, round);
                // From-zero reference: draws 0..48 of the round's stream.
                let reference: Vec<u64> = (0..48).map(|k| nth_u64(key, k)).collect();
                // "Resume" at arbitrary counter offsets — recomputing the
                // key from coordinates alone — and check every tail.
                for offset in [0u64, 1, 7, 31, 47] {
                    let resumed_key = salted_stream_key(seed, SALT, round);
                    let tail: Vec<u64> = (offset..48).map(|k| nth_u64(resumed_key, k)).collect();
                    assert_eq!(
                        tail[..],
                        reference[offset as usize..],
                        "seed {seed} round {round} offset {offset}"
                    );
                }
                // Split-replay composition: j draws, then k more, equals
                // draw j + k of the uninterrupted stream.
                for (j, k) in [(0u64, 5u64), (3, 4), (10, 37)] {
                    assert_eq!(nth_u64(key, j + k), reference[(j + k) as usize]);
                }
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(42);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_plausible() {
        let mut r = SplitMix64::new(7);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
