//! A reference model of the pairwise rounds, written from the paper's
//! rule with plain `Vec` loops, checked against the engine round by round.
//!
//! In a dimension-exchange or matching round each active edge `e = (u, v)`
//! schedules `Ŷ_e = gain·(c_tail·x_u − c_head·x_v)` with the λ-scaled
//! harmonic-speed coefficients `c_tail = λ·s_v/(s_u+s_v)` and
//! `c_head = λ·s_u/(s_u+s_v)`, built here from the speeds (the pairwise
//! schemes have no memory term: only SOS remembers flows), sends
//! its rounded flow (or, in continuous mode, `Ŷ_e` itself) from tail to
//! head, and every node's new load is its load minus the flows it sent.
//! The fused statistics measure deviations from the balanced loads
//! `x̄_i = T·s_i/S` of the initial total `T`, also built here.
//! The discrete roundings are the paper's: truncation, nearest, the
//! edge-local unbiased coin on the edge's `(seed, e, round)` stream, and
//! the node-centric randomized framework, whose sender sends its excess
//! token with probability equal to its fractional outflow, drawn from its
//! `(seed, node, round)` stream.
//!
//! The model takes the engine's prepared round inputs (the loads after
//! the perturbation channels ran, the active and stale edges) through the
//! `step_inspect` hook, and compares every round's loads and fused
//! statistics bits. A pairwise run keeps no flow memory in any mode, so
//! its memory must read as zeros and its state must be its loads alone
//! (`8·n` bytes): the fluid modes run the same matching round as the
//! token modes. Random specs cover every rounding under both flow
//! memories and the continuous mode, the golden perturbation sets, and
//! threads {1, 3}.

use sodiff::core::kernel::LoadStats;
use sodiff::core::metrics::DEV_BLOCK;
use sodiff::core::rng::SplitMix64;
use sodiff::core::RoundInputs;
use sodiff::graph::{generators, Graph};
use sodiff::prelude::*;

/// Bit `e` of the bitset `words`.
fn bit(words: &[u64], e: usize) -> bool {
    (words[e / 64] >> (e % 64)) & 1 == 1
}

/// How the model rounds and remembers flows.
#[derive(Clone, Copy, Debug)]
enum Process {
    Discrete(Rounding, FlowMemory),
    Continuous,
}

/// The tables a round reads: the per-edge coefficient pair and the
/// per-node balanced loads.
struct Tables {
    edges: Vec<(u32, u32)>,
    tail: Vec<f64>,
    head: Vec<f64>,
    ideal: Vec<f64>,
}

impl Tables {
    /// The tables of `scheme` on `g` under `speeds` from the paper's
    /// formulas, for the initial loads `init`: the λ-scaled pair per edge
    /// and `x̄_i = T·s_i/S` per node.
    fn new(g: &Graph, scheme: Scheme, speeds: &Speeds, init: &[f64]) -> Self {
        let lambda = match scheme {
            Scheme::DimensionExchange { lambda } | Scheme::Matching { lambda, .. } => lambda,
            Scheme::Fos | Scheme::Sos { .. } => panic!("{scheme} is not pairwise"),
        };
        let edges: Vec<_> = g.edges().collect();
        let s = |u: u32| speeds.get(u as usize);
        let tail = edges.iter().map(|&(u, v)| lambda * s(v) / (s(u) + s(v)));
        let head = edges.iter().map(|&(u, v)| lambda * s(u) / (s(u) + s(v)));
        let total: f64 = init.iter().sum();
        Self {
            tail: tail.collect(),
            head: head.collect(),
            ideal: (0..init.len())
                .map(|i| total * speeds.get(i) / speeds.total())
                .collect(),
            edges,
        }
    }
}

/// What one reference round yields.
struct Outcome {
    loads: Vec<f64>,
    stats: LoadStats,
    stale_active: u64,
}

/// The discrete flow an active edge `(u, v)` sends for the scheduled flow
/// `s` in `round`.
fn rounded(rounding: Rounding, e: usize, (u, v): (u32, u32), round: u64, s: f64) -> i64 {
    match rounding {
        Rounding::RoundDown => s.trunc() as i64,
        Rounding::Nearest => s.round() as i64,
        Rounding::UnbiasedEdge { seed } => {
            let floor = s.floor();
            let coin = SplitMix64::for_node_round(seed, e as u32, round).next_f64();
            floor as i64 + i64::from(coin < s - floor)
        }
        Rounding::RandomizedFramework { seed } => {
            // The sender's only outflow is `|s|`: it sends `⌊|s|⌋` tokens
            // and one more with probability `|s| − ⌊|s|⌋`.
            let (sender, sign) = if s > 0.0 { (u, 1) } else { (v, -1) };
            let whole = s.abs().floor();
            let frac = s.abs() - whole;
            let draw = SplitMix64::for_node_round(seed, sender, round).next_f64();
            sign * (whole as i64 + i64::from(frac > 0.0 && draw < frac))
        }
    }
}

/// One pairwise round from the paper's rule, on `inputs`.
fn reference_round(t: &Tables, process: Process, inputs: &RoundInputs<'_>) -> Outcome {
    assert_eq!(inputs.mem, 0.0, "a pairwise round has no memory term");
    let (n, x) = (t.ideal.len(), &inputs.loads);
    let active = |e| inputs.active.is_none_or(|w| bit(w, e));
    let stale = |e| inputs.stale.is_some_and(|w| bit(w, e));
    let (mut net_i, mut out_i) = (vec![0i64; n], vec![0i64; n]);
    let (mut net_f, mut out_f) = (vec![0.0f64; n], vec![0.0f64; n]);
    let mut stale_active = 0;
    for (e, &(u, v)) in t.edges.iter().enumerate() {
        let (a, b) = (u as usize, v as usize);
        let s = inputs.gain * (t.tail[e] * x[a] - t.head[e] * x[b]);
        let on = active(e);
        let lands = on && !stale(e);
        stale_active += u64::from(on && stale(e));
        match process {
            Process::Discrete(rounding, _) => {
                let y = if on {
                    rounded(rounding, e, (u, v), inputs.round, s)
                } else {
                    0
                };
                if lands {
                    (net_i[a], out_i[a]) = (net_i[a] + y, out_i[a] + y.max(0));
                    (net_i[b], out_i[b]) = (net_i[b] - y, out_i[b] + (-y).max(0));
                }
            }
            Process::Continuous => {
                let y = (if on { 1.0 } else { 0.0 }) * s;
                if lands {
                    let pos = |y: f64| if y > 0.0 { y } else { 0.0 };
                    (net_f[a], out_f[a]) = (net_f[a] + y, out_f[a] + pos(y));
                    (net_f[b], out_f[b]) = (net_f[b] + -y, out_f[b] + pos(-y));
                }
            }
        }
    }
    let (loads, transients): (Vec<f64>, Vec<f64>) = match process {
        Process::Discrete(..) => (0..n)
            .map(|i| {
                let xi = x[i] as i64;
                ((xi - net_i[i]) as f64, (xi - out_i[i]) as f64)
            })
            .unzip(),
        Process::Continuous => (0..n).map(|i| (x[i] - net_f[i], x[i] - out_f[i])).unzip(),
    };
    // The fused statistics: extremes by compare-and-assign, the squared
    // deviations summed per `DEV_BLOCK` nodes and the blocks in order.
    let mut stats = LoadStats::identity();
    let (mut block, mut total) = (0.0, 0.0);
    for i in 0..n {
        let dev = loads[i] - t.ideal[i];
        if transients[i] < stats.min_transient {
            stats.min_transient = transients[i];
        }
        if loads[i] < stats.min_load {
            stats.min_load = loads[i];
        }
        if dev > stats.max_dev {
            stats.max_dev = dev;
        }
        if dev < stats.min_dev {
            stats.min_dev = dev;
        }
        block += dev * dev;
        if (i + 1) % DEV_BLOCK == 0 || i + 1 == n {
            total += block;
            block = 0.0;
        }
    }
    stats.sum_sq_dev = total;
    Outcome {
        loads,
        stats,
        stale_active,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn stats_bits(s: &LoadStats) -> [u64; 5] {
    [
        s.min_transient,
        s.min_load,
        s.max_dev,
        s.min_dev,
        s.sum_sq_dev,
    ]
    .map(f64::to_bits)
}

/// The golden traces' perturbation sets (and none), by name.
fn perturbation(set: &str) -> (FaultSpec, LoadSpec, ChurnSpec) {
    let flux = ChurnSpec::none().with_flux(0.08, 0.3, 9).with_initial(25.0);
    let none = (FaultSpec::none(), LoadSpec::none(), ChurnSpec::none());
    match set {
        "none" => none,
        "crash+edgedrop+stale+shock" => (
            FaultSpec::none()
                .with_crash(0.1, 7)
                .with_edgedrop(0.05, 9)
                .with_stale(0.05, 5)
                .with_shock(0.2, 3),
            LoadSpec::none(),
            ChurnSpec::none(),
        ),
        "shock+stale" => (
            FaultSpec::none().with_shock(0.3, 4).with_stale(0.1, 6),
            LoadSpec::none(),
            ChurnSpec::none(),
        ),
        "flux" => (FaultSpec::none(), LoadSpec::none(), flux),
        "crash+flux+edgedrop" => (
            FaultSpec::none().with_crash(0.1, 7).with_edgedrop(0.05, 9),
            LoadSpec::none(),
            flux,
        ),
        "crash+shock+flux+adversarial" => (
            FaultSpec::none().with_crash(0.1, 7).with_shock(1.0, 4),
            LoadSpec::none().with_adversarial(40, 16, 13),
            ChurnSpec::none().with_flux(0.3, 0.3, 9).with_initial(25.0),
        ),
        "flux+load" => (
            FaultSpec::none(),
            LoadSpec::none()
                .with_poisson(0.5, 7)
                .with_hotspot(3, 50, 8, 11)
                .with_diurnal(12.5, 16)
                .with_adversarial(40, 12, 13),
            flux,
        ),
        other => panic!("unknown perturbation set {other}"),
    }
}

const SETS: [&str; 7] = [
    "none",
    "crash+edgedrop+stale+shock",
    "shock+stale",
    "flux",
    "crash+flux+edgedrop",
    "crash+shock+flux+adversarial",
    "flux+load",
];

/// A random pairwise spec: a small graph of a random family, a pairwise
/// scheme of `kind` with a random λ, random speeds and a random initial
/// load.
fn random_spec(rng: &mut SplitMix64, kind: usize) -> (Graph, Scheme, Speeds, InitialLoad) {
    let pick = |rng: &mut SplitMix64, lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo + 1);
    let seed = rng.next_u64() % 1000;
    let g = match pick(rng, 0, 7) {
        0 => generators::torus2d(pick(rng, 3, 8) as usize, pick(rng, 3, 8) as usize),
        1 => generators::hypercube(pick(rng, 3, 6) as u32),
        2 => generators::cycle(pick(rng, 5, 20) as usize),
        3 => generators::complete(pick(rng, 4, 12) as usize),
        4 => generators::grid2d(pick(rng, 3, 7) as usize, pick(rng, 3, 7) as usize),
        5 => generators::erdos_renyi(pick(rng, 20, 50) as usize, 0.2, seed),
        6 => generators::random_graph_cm(pick(rng, 20, 50) as usize, seed).unwrap(),
        _ => generators::rgg_paper(pick(rng, 32, 80) as usize, seed),
    };
    let n = g.node_count();
    let lambda = [1.0, 0.5, 0.75, 0.3][pick(rng, 0, 3) as usize];
    let scheme = match kind {
        0 => Scheme::dimension_exchange(lambda),
        1 => Scheme::matching_round_robin(lambda),
        _ => Scheme::matching_random(seed, lambda),
    };
    let speeds = match pick(rng, 0, 2) {
        0 => Speeds::uniform(n),
        1 => Speeds::two_class(n, n / 4, 3.0),
        _ => Speeds::linear_ramp(n, 2.5),
    };
    let init = match pick(rng, 0, 1) {
        0 => InitialLoad::point(0, 1000 * n as i64),
        _ => InitialLoad::UniformRandom {
            total: 300 * n as i64,
            seed,
        },
    };
    (g, scheme, speeds, init)
}

/// Runs the spec under `process` and `set` at threads {1, 3} for
/// `rounds` rounds, checking every round of both runs against the model.
fn differential(
    (g, scheme, speeds, init): &(Graph, Scheme, Speeds, InitialLoad),
    process: Process,
    set: &str,
    rounds: usize,
) {
    let (faults, load, churn) = perturbation(set);
    let build = |threads: usize| {
        let builder = Experiment::on(g);
        let builder = match process {
            Process::Discrete(rounding, memory) => builder.discrete(rounding).flow_memory(memory),
            Process::Continuous => builder.continuous(),
        };
        builder
            .scheme(*scheme)
            .speeds(speeds.clone())
            .init(init.clone())
            .threads(threads)
            .faults(faults)
            .load(load)
            .churn(churn)
            .build()
            .unwrap()
            .simulator()
    };
    let mut sims = [build(1), build(3)];
    let t = Tables::new(g, *scheme, speeds, &sims[0].loads_to_f64());
    // Only shocks, churn and injection move loads outside the rounds.
    let moved_outside = set != "none";
    let no_memory = vec![0u64; g.edge_count()];
    let mut last_loads = sims[0].loads_to_f64();
    for _ in 0..rounds {
        let mut seen = Vec::new();
        for sim in &mut sims {
            let stale_before = sim.fault_events().stale_edges;
            let mut prepared = None;
            sim.step_inspect(&mut |inputs| {
                let want = reference_round(&t, process, &inputs);
                let masks = (
                    inputs.active.map(<[u64]>::to_vec),
                    inputs.stale.map(<[u64]>::to_vec),
                );
                prepared = Some((inputs.round, inputs.loads, masks, want));
            });
            let (round, loads, masks, want) = prepared.expect("the hook runs every round");
            let case = format!(
                "{scheme} {process:?} {set} threads {} round {round} on {} nodes",
                sim.threads(),
                g.node_count()
            );
            assert!(masks.0.is_some(), "{case}: a pairwise round has a mask");
            if !moved_outside {
                assert_eq!(bits(&loads), bits(&last_loads), "{case}: prepared loads");
            }
            assert_eq!(
                bits(&sim.loads_to_f64()),
                bits(&want.loads),
                "{case}: loads"
            );
            assert_eq!(bits(&sim.previous_flows()), no_memory, "{case}: memory");
            assert_eq!(sim.state_bytes(), 8 * g.node_count(), "{case}: state");
            let stats = sim.round_stats().expect("a round ran");
            assert_eq!(stats_bits(&stats), stats_bits(&want.stats), "{case}: stats");
            let stale = sim.fault_events().stale_edges - stale_before;
            assert_eq!(stale, want.stale_active, "{case}: stale events");
            seen.push((bits(&loads), masks, want));
        }
        let (pooled, sequential) = (seen.pop().unwrap(), seen.pop().unwrap());
        assert_eq!(
            pooled.0, sequential.0,
            "{set}: prepared loads across threads"
        );
        assert_eq!(pooled.1, sequential.1, "{set}: masks across threads");
        let events = |s: &Simulator<'_>| (s.fault_events(), s.load_events(), s.churn_events());
        assert_eq!(events(&sims[0]), events(&sims[1]), "{set}: event counters");
        last_loads = sequential.2.loads;
    }
}

/// Every rounding under both flow memories, and continuous mode.
fn processes() -> Vec<Process> {
    let roundings = [
        Rounding::round_down(),
        Rounding::nearest(),
        Rounding::unbiased_edge(17),
        Rounding::randomized(23),
    ];
    let mut all = vec![Process::Continuous];
    for memory in [FlowMemory::Rounded, FlowMemory::Scheduled] {
        all.extend(roundings.map(|r| Process::Discrete(r, memory)));
    }
    all
}

fn run_kind(kind: usize) {
    let mut rng = SplitMix64::new(0x0ac1e + kind as u64);
    for _ in 0..6 {
        let spec = random_spec(&mut rng, kind);
        for process in processes() {
            for set in SETS {
                differential(&spec, process, set, 36);
            }
        }
    }
}

#[test]
fn dimension_exchange_matches_the_reference() {
    run_kind(0);
}

#[test]
fn round_robin_matching_matches_the_reference() {
    run_kind(1);
}

#[test]
fn random_matching_matches_the_reference() {
    run_kind(2);
}
