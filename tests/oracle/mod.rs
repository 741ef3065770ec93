//! A reference model of every scheme's round, written from the paper's
//! rules with plain `Vec` loops, and the harness that checks the engine
//! against it round by round (shared by `tests/diffusion_oracle.rs` and
//! `tests/pairwise_oracle.rs`).
//!
//! **The scheduled flow.** Each edge `e = (u, v)` schedules
//! `Ŷ_e = mem·m_e + gain·(c_tail·x_u − c_head·x_v)` from its memory `m_e`
//! and a coefficient pair built here from the degrees and the speeds:
//!
//! * FOS and SOS use `c_tail = α_e/s_u`, `c_head = α_e/s_v` with the
//!   paper's `α_e = 1/(max(deg u, deg v) + 1)`. FOS is `(mem, gain) =
//!   (0, 1)`. SOS follows the recurrence of Muthukrishnan, Ghosh and
//!   Schultz (1998, "First- and second-order diffusive methods for rapid,
//!   coarse, distributed load balancing"): its first round is a FOS
//!   round, and every later one is `(mem, gain) = (β − 1, β)`. The memory
//!   is the flow of the last round: in discrete mode the integral flow
//!   it sent, "the amount that was sent in step t−1", and in continuous
//!   mode the `f64` flow.
//! * Dimension exchange and matching balancing use the λ-scaled
//!   harmonic-speed pair `c_tail = λ·s_v/(s_u+s_v)`,
//!   `c_head = λ·s_u/(s_u+s_v)` with `(mem, gain) = (0, 1)`, and keep no
//!   memory: only SOS reads one, so theirs reads as zeros.
//!
//! An edge the round's active set leaves out schedules `0·Ŷ_e`.
//!
//! **Rounding.** Continuous mode sends `Ŷ_e` itself. The discrete
//! roundings are the paper's: truncation, nearest, the edge-local
//! unbiased coin on the edge's `(seed, e, round)` stream, and the
//! node-centric randomized framework in the manner of Rabani, Sinclair
//! and Wanka (FOCS 1998), replayed the plain way: each node floors its
//! positive outflows and sends its `⌈r⌉` excess tokens, `r` the sum of
//! their fractions, each to the first arc whose running fraction sum
//! exceeds its draw, drawn from the node's `(seed, node, round)` stream.
//!
//! **Apply.** Every node sums its arcs' flows in the order the graph
//! stores them, in-arcs (`−y_e`) then out-arcs (`+y_e`); a stale edge's
//! flow is rounded and remembered but never lands. Its new load is its
//! load minus that sum, and its transient load its load minus the
//! positive part. The fused statistics measure deviations from the
//! balanced loads `x̄_i = T·s_i/S` of the initial total `T`, also built
//! here.
//!
//! **Harness.** The model takes the engine's prepared round inputs (the
//! loads after the perturbation channels ran, the active and stale edges)
//! through the `step_inspect` hook, and after each round compares the
//! loads, the memory and the fused statistics bit for bit, the stale
//! events, and the state's size: the loads, one flow memory per edge for
//! FOS and SOS, and the randomized framework's fraction per edge. Random
//! specs cover every generator family, uniform, two-class and ramp
//! speeds, every rounding and the continuous mode, the golden
//! perturbation sets and threads {1, 3}.

use std::ops::{Add, Neg, Sub};

use sodiff::core::kernel::LoadStats;
use sodiff::core::metrics::DEV_BLOCK;
use sodiff::core::rng::SplitMix64;
use sodiff::core::RoundInputs;
use sodiff::graph::{generators, Graph};
use sodiff::prelude::*;

/// Rounds compared per run.
const ROUNDS: usize = 36;

/// Bit `e` of the bitset `words`.
fn bit(words: &[u64], e: usize) -> bool {
    (words[e / 64] >> (e % 64)) & 1 == 1
}

/// How the model rounds flows.
#[derive(Clone, Copy, Debug)]
enum Process {
    Discrete(Rounding),
    Continuous,
}

/// The schemes the oracle covers.
#[derive(Clone, Copy, Debug)]
#[allow(dead_code)] // each test binary runs some of them
pub enum Kind {
    Fos,
    Sos,
    DimensionExchange,
    RoundRobin,
    RandomMatching,
}

/// One scheme's model on one graph: its coefficient pair per edge, the
/// balanced loads, each node's arcs, and the flow memory.
struct Model {
    scheme: Scheme,
    edges: Vec<(u32, u32)>,
    tail: Vec<f64>,
    head: Vec<f64>,
    ideal: Vec<f64>,
    /// Node `i`'s in-arcs (the edges whose head it is), in edge order.
    ins: Vec<Vec<usize>>,
    /// Node `i`'s out-arcs (the edges whose tail it is), in edge order.
    outs: Vec<Vec<usize>>,
    /// Each edge's memory: the last round's flow for FOS and SOS, zero
    /// for the schemes that keep none.
    memory: Vec<f64>,
    /// Rounds run so far.
    rounds: u64,
}

/// What one reference round yields.
struct Outcome {
    loads: Vec<f64>,
    stats: LoadStats,
    stale_active: u64,
}

impl Model {
    /// The model of `scheme` on `g` under `speeds`, for the initial loads
    /// `init`.
    fn new(g: &Graph, scheme: Scheme, speeds: &Speeds, init: &[f64]) -> Self {
        let n = g.node_count();
        let edges: Vec<_> = g.edges().collect();
        let (mut ins, mut outs) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for (e, &(u, v)) in edges.iter().enumerate() {
            outs[u as usize].push(e);
            ins[v as usize].push(e);
        }
        let s = |u: u32| speeds.get(u as usize);
        let pair = |u: u32, v: u32| match scheme {
            Scheme::Fos | Scheme::Sos { .. } => {
                let degree = |w: u32| ins[w as usize].len() + outs[w as usize].len();
                let alpha = 1.0 / (degree(u).max(degree(v)) as f64 + 1.0);
                (alpha / s(u), alpha / s(v))
            }
            Scheme::DimensionExchange { lambda } | Scheme::Matching { lambda, .. } => {
                (lambda * s(v) / (s(u) + s(v)), lambda * s(u) / (s(u) + s(v)))
            }
        };
        let (tail, head) = edges.iter().map(|&(u, v)| pair(u, v)).unzip();
        let total: f64 = init.iter().sum();
        Self {
            scheme,
            tail,
            head,
            ideal: (0..n)
                .map(|i| total * speeds.get(i) / speeds.total())
                .collect(),
            ins,
            outs,
            memory: vec![0.0; edges.len()],
            edges,
            rounds: 0,
        }
    }

    /// The round's memory coefficient and gain.
    fn coefficients(&self) -> (f64, f64) {
        match self.scheme {
            Scheme::Sos { beta } if self.rounds > 0 => (beta - 1.0, beta),
            _ => (0.0, 1.0),
        }
    }

    /// Node `v`'s arcs in the order the graph stores them, with their
    /// orientation: in-arcs (`−1`), then out-arcs (`+1`).
    fn arcs(&self, v: usize) -> impl Iterator<Item = (usize, i8)> + '_ {
        let ins = self.ins[v].iter().map(|&e| (e, -1));
        ins.chain(self.outs[v].iter().map(|&e| (e, 1)))
    }

    /// The randomized framework, node by node: each node floors its
    /// positive outflows, then sends `⌈r⌉` excess tokens, each to the
    /// first arc whose running fraction sum exceeds its draw (or none,
    /// with probability `1 − r/⌈r⌉`).
    fn framework(&self, seed: u64, round: u64, scheduled: &[f64]) -> Vec<i64> {
        let mut flows = vec![0i64; scheduled.len()];
        for v in 0..self.ideal.len() {
            let (mut excess, mut r) = (Vec::new(), 0.0f64);
            for (e, sign) in self.arcs(v) {
                let outflow = f64::from(sign) * scheduled[e];
                if outflow > 0.0 {
                    let base = outflow.floor();
                    flows[e] = i64::from(sign) * base as i64;
                    if outflow > base {
                        r += outflow - base;
                        excess.push((e, sign, r));
                    }
                }
            }
            if excess.is_empty() {
                continue;
            }
            let tokens = r.ceil();
            let mut rng = SplitMix64::for_node_round(seed, v as u32, round);
            for _ in 0..tokens as i64 {
                let draw = rng.next_f64() * tokens;
                if let Some(&(e, sign, _)) = excess.iter().find(|&&(_, _, sum)| draw < sum) {
                    flows[e] += i64::from(sign);
                }
            }
        }
        flows
    }

    /// Each node's new and transient load after the round's flows `y`
    /// land, but not those of the `stale` edges.
    fn apply<T>(&self, x: &[T], y: &[T], stale: impl Fn(usize) -> bool) -> (Vec<T>, Vec<T>)
    where
        T: Copy + Default + PartialOrd + Add<Output = T> + Sub<Output = T> + Neg<Output = T>,
    {
        let zero = T::default();
        (0..x.len())
            .map(|i| {
                let (mut net, mut out) = (zero, zero);
                for (e, sign) in self.arcs(i) {
                    let landed = if stale(e) { zero } else { y[e] };
                    let signed = if sign < 0 { -landed } else { landed };
                    if signed > zero {
                        out = out + signed;
                    }
                    net = net + signed;
                }
                (x[i] - net, x[i] - out)
            })
            .unzip()
    }

    /// One round on `inputs`.
    fn round(&mut self, process: Process, inputs: &RoundInputs<'_>) -> Outcome {
        let (mem, gain) = self.coefficients();
        assert_eq!((inputs.mem, inputs.gain), (mem, gain), "round coefficients");
        let (x, round) = (&inputs.loads, inputs.round);
        let active = |e| inputs.active.is_none_or(|w| bit(w, e));
        let stale = |e| inputs.stale.is_some_and(|w| bit(w, e));
        let scheduled: Vec<f64> = (self.edges.iter().enumerate())
            .map(|(e, &(u, v))| {
                let (a, b) = (u as usize, v as usize);
                let s = mem * self.memory[e] + gain * (self.tail[e] * x[a] - self.head[e] * x[b]);
                f64::from(u8::from(active(e))) * s
            })
            .collect();
        let stale_active = (0..self.edges.len())
            .filter(|&e| active(e) && stale(e))
            .count() as u64;
        let remembers = self.scheme.is_diffusion();
        let (loads, transients): (Vec<f64>, Vec<f64>) = match process {
            Process::Discrete(rounding) => {
                let flows: Vec<i64> = match rounding {
                    Rounding::RoundDown => scheduled.iter().map(|s| s.trunc() as i64).collect(),
                    Rounding::Nearest => scheduled.iter().map(|s| s.round() as i64).collect(),
                    Rounding::UnbiasedEdge { seed } => (scheduled.iter().enumerate())
                        .map(|(e, &s)| {
                            let coin = SplitMix64::for_node_round(seed, e as u32, round).next_f64();
                            s.floor() as i64 + i64::from(coin < s - s.floor())
                        })
                        .collect(),
                    Rounding::RandomizedFramework { seed } => {
                        self.framework(seed, round, &scheduled)
                    }
                };
                if remembers {
                    self.memory = flows.iter().map(|&y| y as f64).collect();
                }
                let x: Vec<i64> = x.iter().map(|&x| x as i64).collect();
                let (loads, transients) = self.apply(&x, &flows, stale);
                let to_f64 = |v: Vec<i64>| v.into_iter().map(|x| x as f64).collect();
                (to_f64(loads), to_f64(transients))
            }
            Process::Continuous => {
                let out = self.apply(x, &scheduled, stale);
                if remembers {
                    self.memory = scheduled;
                }
                out
            }
        };
        self.rounds += 1;
        Outcome {
            stats: self.stats(&loads, &transients),
            loads,
            stale_active,
        }
    }

    /// The fused statistics: extremes by compare-and-assign, the squared
    /// deviations summed per `DEV_BLOCK` nodes and the blocks in order.
    fn stats(&self, loads: &[f64], transients: &[f64]) -> LoadStats {
        let n = loads.len();
        let mut stats = LoadStats::identity();
        let (mut block, mut total) = (0.0, 0.0);
        for i in 0..n {
            let dev = loads[i] - self.ideal[i];
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
        stats
    }

    /// The bytes of state a run of this scheme holds: its loads, plus for
    /// FOS and SOS one flow memory per edge, and the randomized
    /// framework's fraction per edge.
    fn state_bytes(&self, process: Process) -> usize {
        let (n, m) = (self.ideal.len(), self.edges.len());
        if !self.scheme.is_diffusion() {
            return 8 * n;
        }
        let framework = matches!(
            process,
            Process::Discrete(Rounding::RandomizedFramework { .. })
        );
        8 * (n + m + if framework { m } else { 0 })
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

/// One random spec: a graph, a scheme, speeds and an initial load.
type Spec = (Graph, Scheme, Speeds, InitialLoad);

/// A random spec of `kind`: a small graph of a random family, the scheme
/// with a random β or λ, random speeds and a random initial load.
fn random_spec(rng: &mut SplitMix64, kind: Kind) -> Spec {
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
    let p = pick(rng, 0, 3) as usize;
    let (beta, lambda) = ([1.5, 1.8, 1.95, 1.3][p], [1.0, 0.5, 0.75, 0.3][p]);
    let scheme = match kind {
        Kind::Fos => Scheme::fos(),
        Kind::Sos => Scheme::sos(beta),
        Kind::DimensionExchange => Scheme::dimension_exchange(lambda),
        Kind::RoundRobin => Scheme::matching_round_robin(lambda),
        Kind::RandomMatching => Scheme::matching_random(seed, lambda),
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

/// Runs the spec under `process` and `set` at threads {1, 3}, checking
/// every round of both runs against the model.
fn differential((g, scheme, speeds, init): &Spec, process: Process, set: &str) {
    let (faults, load, churn) = perturbation(set);
    let build = |threads: usize| {
        let builder = Experiment::on(g);
        let builder = match process {
            Process::Discrete(rounding) => builder.discrete(rounding),
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
    let mut model = Model::new(g, *scheme, speeds, &sims[0].loads_to_f64());
    let state_bytes = model.state_bytes(process);
    // Only shocks, churn and injection move loads outside the rounds.
    let moved_outside = set != "none";
    let mut last_loads = sims[0].loads_to_f64();
    for _ in 0..ROUNDS {
        let mut seen = Vec::new();
        let mut want = None;
        for sim in &mut sims {
            let stale_before = sim.fault_events().stale_edges;
            let mut prepared = None;
            sim.step_inspect(&mut |inputs| {
                let masks = (
                    inputs.active.map(<[u64]>::to_vec),
                    inputs.stale.map(<[u64]>::to_vec),
                );
                // The model runs once, on the sequential run's inputs;
                // the pooled run's inputs are compared with them below.
                if want.is_none() {
                    want = Some(model.round(process, &inputs));
                }
                prepared = Some((inputs.round, inputs.loads, masks));
            });
            let (round, loads, masks) = prepared.expect("the hook runs every round");
            let want = want.as_ref().unwrap();
            let case = format!(
                "{scheme} {process:?} {set} threads {} round {round} on {} nodes",
                sim.threads(),
                g.node_count()
            );
            assert!(
                scheme.is_diffusion() || masks.0.is_some(),
                "{case}: a pairwise round has a mask"
            );
            if !moved_outside {
                assert_eq!(bits(&loads), bits(&last_loads), "{case}: prepared loads");
            }
            assert_eq!(
                bits(&sim.loads_to_f64()),
                bits(&want.loads),
                "{case}: loads"
            );
            assert_eq!(
                bits(&sim.previous_flows()),
                bits(&model.memory),
                "{case}: memory"
            );
            assert_eq!(sim.state_bytes(), state_bytes, "{case}: state");
            let stats = sim.round_stats().expect("a round ran");
            assert_eq!(stats_bits(&stats), stats_bits(&want.stats), "{case}: stats");
            let stale = sim.fault_events().stale_edges - stale_before;
            assert_eq!(stale, want.stale_active, "{case}: stale events");
            seen.push((bits(&loads), masks));
        }
        let (pooled, sequential) = (seen.pop().unwrap(), seen.pop().unwrap());
        assert_eq!(pooled, sequential, "{set}: prepared inputs across threads");
        let events = |s: &Simulator<'_>| (s.fault_events(), s.load_events(), s.churn_events());
        assert_eq!(events(&sims[0]), events(&sims[1]), "{set}: event counters");
        last_loads = want.unwrap().loads;
    }
}

/// Continuous mode, and every rounding.
const PROCESSES: [Process; 5] = [
    Process::Continuous,
    Process::Discrete(Rounding::RoundDown),
    Process::Discrete(Rounding::Nearest),
    Process::Discrete(Rounding::UnbiasedEdge { seed: 17 }),
    Process::Discrete(Rounding::RandomizedFramework { seed: 23 }),
];

/// Checks `specs` random specs of `kind` against the model, each under
/// every process, with the perturbation sets taken in turn.
pub fn run_kind(kind: Kind, specs: usize) {
    let mut rng = SplitMix64::new(0x0ac1e + kind as u64);
    for i in 0..specs {
        let spec = random_spec(&mut rng, kind);
        for (p, &process) in PROCESSES.iter().enumerate() {
            differential(&spec, process, SETS[(i + p) % SETS.len()]);
        }
    }
}
