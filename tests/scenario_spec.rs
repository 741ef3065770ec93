//! Property tests for the scenario text format: `Display` → `FromStr`
//! round-trips exactly for arbitrary valid specs over the whole
//! scheme × rounding × mode × topology × stop-condition × faults × load
//! × churn space, and hostile specs — every numeric field also drawn
//! outside its valid range — fail with a typed error or run, never
//! panic.

use proptest::prelude::*;

use std::panic::catch_unwind;
use std::path::PathBuf;

use sodiff::core::prelude::*;
use sodiff::core::{CheckpointPolicy, InitSpec, ModeSpec, SchemeSpec, SpeedsSpec};

/// How the strategies below draw a numeric field: from its valid range
/// only, or — in a hostile spec's one hostile group — half the time
/// from values outside it: NaN, the infinities, zero, negatives, and
/// huge magnitudes.
#[derive(Clone, Copy)]
struct Ranges {
    hostile: bool,
}

/// The field groups of a spec. A hostile spec draws one group out of
/// range and keeps the rest valid, so each case reaches the check — or
/// the run — that its hostile values test.
#[derive(Clone, Copy, PartialEq)]
enum Group {
    Speeds,
    Scheme,
    Init,
    Stop,
    Perturb,
    Hybrid,
}

const GROUPS: [Group; 6] = [
    Group::Speeds,
    Group::Scheme,
    Group::Init,
    Group::Stop,
    Group::Perturb,
    Group::Hybrid,
];

const WILD_REALS: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.5,
    -1.0,
    -1000.0,
    -1e9,
    -1e300,
    1e300,
    f64::MAX,
];
const WILD_TOKENS: &[i64] = &[i64::MIN, -1, 0, i64::MAX / 2, i64::MAX];
const WILD_COUNTS: &[u64] = &[0, 1 << 40, u64::MAX / 2 + 1, u64::MAX];

impl Ranges {
    fn widen<T: Copy + 'static>(
        self,
        valid: impl Strategy<Value = T> + 'static,
        wild: &'static [T],
    ) -> BoxedStrategy<T> {
        if !self.hostile {
            return valid.boxed();
        }
        (any::<bool>(), valid, 0..wild.len())
            .prop_map(move |(wild_pick, value, i)| if wild_pick { wild[i] } else { value })
            .boxed()
    }

    fn real(self, valid: impl Strategy<Value = f64> + 'static) -> BoxedStrategy<f64> {
        self.widen(valid, WILD_REALS)
    }

    fn tokens(self, valid: impl Strategy<Value = i64> + 'static) -> BoxedStrategy<i64> {
        self.widen(valid, WILD_TOKENS)
    }

    fn count(self, valid: impl Strategy<Value = u64> + 'static) -> BoxedStrategy<u64> {
        self.widen(valid, WILD_COUNTS)
    }

    fn size(self, valid: impl Strategy<Value = usize> + 'static) -> BoxedStrategy<usize> {
        let valid = valid.prop_map(|x| x as u64);
        self.count(valid).prop_map(|x| x as usize).boxed()
    }
}

fn any_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (1usize..40, 1usize..40).prop_map(|(rows, cols)| TopologySpec::Torus2d { rows, cols }),
        proptest::collection::vec(1usize..8, 1..4).prop_map(|dims| TopologySpec::Torus { dims }),
        (1u32..12).prop_map(|dim| TopologySpec::Hypercube { dim }),
        (3usize..200).prop_map(|n| TopologySpec::Cycle { n }),
        (1usize..200).prop_map(|n| TopologySpec::Path { n }),
        (1usize..60).prop_map(|n| TopologySpec::Complete { n }),
        (1usize..200).prop_map(|n| TopologySpec::Star { n }),
        (1usize..20, 1usize..20).prop_map(|(rows, cols)| TopologySpec::Grid2d { rows, cols }),
        (2usize..100, 1usize..6, any::<u64>())
            .prop_map(|(n, d, seed)| TopologySpec::RandomRegular { n, d, seed }),
        (2usize..200, any::<u64>()).prop_map(|(n, seed)| TopologySpec::RandomCm { n, seed }),
        (1usize..100, 0.0f64..1.0, any::<u64>())
            .prop_map(|(n, p, seed)| TopologySpec::ErdosRenyi { n, p, seed }),
        (1usize..100, 0.0f64..5.0, any::<u64>())
            .prop_map(|(n, radius, seed)| TopologySpec::Geometric { n, radius, seed }),
        (2usize..200, any::<u64>()).prop_map(|(n, seed)| TopologySpec::RggPaper { n, seed }),
    ]
}

/// Topologies of at most 200 nodes, so hostile specs that build also
/// run in a few milliseconds.
fn small_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (1usize..15, 1usize..15).prop_map(|(rows, cols)| TopologySpec::Torus2d { rows, cols }),
        proptest::collection::vec(1usize..6, 1..4).prop_map(|dims| TopologySpec::Torus { dims }),
        (1u32..8).prop_map(|dim| TopologySpec::Hypercube { dim }),
        (3usize..200).prop_map(|n| TopologySpec::Cycle { n }),
        (1usize..60).prop_map(|n| TopologySpec::Complete { n }),
        (1usize..200).prop_map(|n| TopologySpec::Star { n }),
        (2usize..100, 1usize..6, any::<u64>())
            .prop_map(|(n, d, seed)| TopologySpec::RandomRegular { n, d, seed }),
        (1usize..100, 0.0f64..1.0, any::<u64>())
            .prop_map(|(n, p, seed)| TopologySpec::ErdosRenyi { n, p, seed }),
        (2usize..200, any::<u64>()).prop_map(|(n, seed)| TopologySpec::RggPaper { n, seed }),
    ]
}

fn any_speeds(r: Ranges) -> impl Strategy<Value = SpeedsSpec> {
    prop_oneof![
        Just(SpeedsSpec::Uniform),
        (r.size(0usize..64), r.real(1.0f64..16.0))
            .prop_map(|(fast, speed)| SpeedsSpec::TwoClass { fast, speed }),
        r.real(1.0f64..16.0)
            .prop_map(|max| SpeedsSpec::Ramp { max }),
        (r.real(1.0f64..16.0), r.real(0.1f64..4.0), any::<u64>()).prop_map(
            |(max, exponent, seed)| SpeedsSpec::Skewed {
                max,
                exponent,
                seed,
            }
        ),
    ]
}

fn any_scheme(r: Ranges) -> impl Strategy<Value = SchemeSpec> {
    prop_oneof![
        Just(SchemeSpec::Fos),
        r.real(0.01f64..1.99)
            .prop_map(|beta| SchemeSpec::Sos { beta }),
        Just(SchemeSpec::SosOpt),
        r.real(0.01f64..=1.0)
            .prop_map(|lambda| SchemeSpec::De { lambda }),
        r.real(0.01f64..=1.0)
            .prop_map(|lambda| SchemeSpec::MatchingRr { lambda }),
        (any::<u64>(), r.real(0.01f64..=1.0))
            .prop_map(|(seed, lambda)| SchemeSpec::MatchingRandom { seed, lambda }),
    ]
}

fn any_mode() -> impl Strategy<Value = ModeSpec> {
    prop_oneof![
        Just(ModeSpec::Continuous),
        Just(ModeSpec::Discrete(RoundingSpec::Randomized)),
        Just(ModeSpec::Discrete(RoundingSpec::RoundDown)),
        Just(ModeSpec::Discrete(RoundingSpec::Nearest)),
        Just(ModeSpec::Discrete(RoundingSpec::UnbiasedEdge)),
    ]
}

fn any_init(r: Ranges) -> impl Strategy<Value = InitSpec> {
    let node = r.count(0u64..100).prop_map(|node| node as u32);
    prop_oneof![
        Just(InitSpec::Paper),
        (node, r.tokens(0i64..1_000_000)).prop_map(|(node, total)| InitSpec::Point { node, total }),
        r.tokens(0i64..10_000)
            .prop_map(|per| InitSpec::Equal { per }),
        r.tokens(0i64..10_000)
            .prop_map(|max| InitSpec::Ramp { max }),
        (r.tokens(0i64..1_000_000), any::<u64>())
            .prop_map(|(total, seed)| InitSpec::Random { total, seed }),
    ]
}

fn any_stop(r: Ranges) -> impl Strategy<Value = StopCondition> {
    prop_oneof![
        r.size(1usize..100_000).prop_map(StopCondition::MaxRounds),
        (r.real(0.0f64..100.0), r.size(1usize..100_000)).prop_map(|(threshold, max_rounds)| {
            StopCondition::BalancedWithin {
                threshold,
                max_rounds,
            }
        }),
        (r.size(1usize..500), r.size(1usize..100_000))
            .prop_map(|(window, max_rounds)| StopCondition::Plateau { window, max_rounds }),
        r.size(1usize..500)
            .prop_map(|window| StopCondition::Steady { window }),
        r.size(1usize..100_000).prop_map(StopCondition::Horizon),
    ]
}

fn any_load(r: Ranges) -> impl Strategy<Value = LoadSpec> {
    // A bitmask picks which generators are present (0 = `load=none`),
    // so every subset of channels — including the empty one — shows up.
    (
        0u64..16,
        (r.real(0.0f64..1024.0), any::<u64>()),
        (
            (r.size(0usize..100), r.tokens(1i64..1000)),
            (r.count(1u64..1000), any::<u64>()),
        ),
        (r.real(0.0f64..1000.0), r.count(1u64..1000)),
        ((r.tokens(1i64..1000), r.count(1u64..1000)), any::<u64>()),
    )
        .prop_map(
            |(
                mask,
                (rate, p_seed),
                ((node, burst), (period, h_seed)),
                (amp, d_period),
                ((a_burst, a_period), a_seed),
            )| {
                let mut spec = LoadSpec::none();
                if mask & 1 != 0 {
                    spec = spec.with_poisson(rate, p_seed);
                }
                if mask & 2 != 0 {
                    spec = spec.with_hotspot(node, burst, period, h_seed);
                }
                if mask & 4 != 0 {
                    spec = spec.with_diurnal(amp, d_period);
                }
                if mask & 8 != 0 {
                    spec = spec.with_adversarial(a_burst, a_period, a_seed);
                }
                spec
            },
        )
}

fn any_faults(r: Ranges) -> impl Strategy<Value = FaultSpec> {
    // A bitmask picks which channels are present (0 = `faults=none`).
    let p = move || (r.real(0.0f64..=1.0), any::<u64>());
    (0u64..16, p(), p(), p(), p()).prop_map(|(mask, crash, edgedrop, shock, stale)| {
        let mut spec = FaultSpec::none();
        if mask & 1 != 0 {
            spec = spec.with_crash(crash.0, crash.1);
        }
        if mask & 2 != 0 {
            spec = spec.with_edgedrop(edgedrop.0, edgedrop.1);
        }
        if mask & 4 != 0 {
            spec = spec.with_shock(shock.0, shock.1);
        }
        if mask & 8 != 0 {
            spec = spec.with_stale(stale.0, stale.1);
        }
        spec
    })
}

fn any_churn(r: Ranges) -> impl Strategy<Value = ChurnSpec> {
    prop_oneof![
        Just(ChurnSpec::none()),
        (r.real(0.0f64..=1.0), r.real(0.0f64..=1.0), any::<u64>())
            .prop_map(|(leave, join, seed)| ChurnSpec::none().with_flux(leave, join, seed)),
        (
            r.real(0.0f64..=1.0),
            r.real(0.0f64..=1.0),
            any::<u64>(),
            r.real(0.0f64..1e9)
        )
            .prop_map(|(leave, join, seed, init)| {
                ChurnSpec::none()
                    .with_flux(leave, join, seed)
                    .with_initial(init)
            }),
    ]
}

fn any_hybrid(r: Ranges) -> impl Strategy<Value = Option<SwitchPolicy>> {
    prop_oneof![
        Just(None),
        Just(Some(SwitchPolicy::Never)),
        r.count(0u64..10_000)
            .prop_map(|r| Some(SwitchPolicy::AtRound(r))),
        r.real(0.0f64..100.0)
            .prop_map(|t| Some(SwitchPolicy::MaxLocalDiffBelow(t))),
        r.real(0.0f64..100.0)
            .prop_map(|t| Some(SwitchPolicy::MaxMinusAvgBelow(t))),
    ]
}

fn any_ckpt() -> impl Strategy<Value = Option<CheckpointPolicy>> {
    prop_oneof![
        Just(None),
        (1u64..100, 0usize..3).prop_map(|(every, pick)| {
            Some(CheckpointPolicy {
                every,
                dir: PathBuf::from(["ckpts", "out/snaps", "state"][pick]),
            })
        }),
    ]
}

fn any_spec() -> impl Strategy<Value = ScenarioSpec> {
    spec_from(any_topology(), None)
}

/// A spec on at most 200 nodes with one hostile field group.
fn hostile_spec() -> impl Strategy<Value = ScenarioSpec> {
    (0..GROUPS.len()).prop_flat_map(|g| spec_from(small_topology(), Some(GROUPS[g])))
}

/// A spec on `topology` whose `hostile` field group, if any, is also
/// drawn out of range.
fn spec_from(
    topology: impl Strategy<Value = TopologySpec>,
    hostile: Option<Group>,
) -> impl Strategy<Value = ScenarioSpec> {
    let r = |group| Ranges {
        hostile: hostile == Some(group),
    };
    (
        (
            topology,
            any_speeds(r(Group::Speeds)),
            any_scheme(r(Group::Scheme)),
            any_mode(),
            any_init(r(Group::Init)),
        ),
        (
            any_stop(r(Group::Stop)),
            (
                any_load(r(Group::Perturb)),
                any_faults(r(Group::Perturb)),
                any_churn(r(Group::Perturb)),
            ),
            any_hybrid(r(Group::Hybrid)),
            any_ckpt(),
            (any::<bool>(), 0usize..5, 1usize..9, any::<u64>()),
        ),
    )
        .prop_map(
            move |(
                (topology, speeds, scheme, mode, init),
                (stop, (load, faults, churn), hybrid, ckpt, (seeded, name_pick, threads, seed)),
            )| {
                let mut spec = ScenarioSpec::new(topology);
                spec.name = ["scenario", "fig_01", "a", "sweep-3", "x9"][name_pick].to_string();
                spec.speeds = speeds;
                spec.scheme = scheme;
                spec.mode = mode;
                spec.seed = seeded.then_some(if hostile.is_some() { seed } else { 12345 });
                spec.init = init;
                spec.stop = stop;
                spec.load = load;
                spec.faults = faults;
                spec.churn = churn;
                spec.threads = threads;
                spec.hybrid = hybrid;
                spec.ckpt = ckpt;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline format property: printing and re-parsing an arbitrary
    /// valid spec yields the identical spec, and printing is a fixpoint.
    #[test]
    fn display_from_str_roundtrip(spec in any_spec()) {
        let text = spec.to_string();
        let reparsed: ScenarioSpec = text.parse().unwrap_or_else(|e| {
            panic!("'{text}' failed to re-parse: {e}")
        });
        prop_assert_eq!(&reparsed, &spec, "round-trip changed the spec: '{}'", text);
        prop_assert_eq!(reparsed.to_string(), text, "display is not a fixpoint");
    }

    /// Scenario files built from arbitrary specs parse back line by line.
    #[test]
    fn parse_many_roundtrip(specs in proptest::collection::vec(any_spec(), 1..6)) {
        let mut text = String::from("# generated batch\n\n");
        for spec in &specs {
            text.push_str(&spec.to_string());
            text.push('\n');
        }
        let reparsed = ScenarioSpec::parse_many(&text).unwrap();
        prop_assert_eq!(reparsed, specs);
    }

    /// "Validated once": a hostile spec, taken through its text form,
    /// either fails with a typed error — at parse, graph build or
    /// experiment build — or builds a simulator that runs. Nothing on
    /// that path may panic.
    #[test]
    fn hostile_specs_fail_typed_or_run(spec in hostile_spec()) {
        let text = spec.to_string();
        eprintln!("CASE {text}");
        let t0 = std::time::Instant::now();
        let outcome = catch_unwind(|| {
            let Ok(spec) = text.parse::<ScenarioSpec>() else {
                return;
            };
            let Ok(graph) = spec.build_graph() else {
                return;
            };
            if let Ok(experiment) = spec.experiment_on(&graph) {
                let mut sim = experiment.simulator();
                for _ in 0..3 {
                    sim.step();
                }
            }
        });
        eprintln!("TIME {:?}", t0.elapsed());
        prop_assert!(outcome.is_ok(), "'{}' panicked", text);
    }
}

/// Error paths of the text format: every malformed or out-of-range value
/// must yield a [`ParseError`] whose message names the offending piece —
/// not a panic, and not a silently defaulted spec.
#[test]
fn scenario_parse_error_paths_are_specific() {
    let cases = [
        // Unknown / malformed keys.
        ("topology=cycle:8 wat=1", "unknown key"),
        ("topology=cycle:8 scheme", "expected key=value"),
        ("topology=cycle:8 name=a name=b", "duplicate key"),
        // Scheme values: unknown kinds, malformed numbers, out-of-range β/λ.
        ("topology=cycle:8 scheme=third_order", "unknown scheme"),
        ("topology=cycle:8 scheme=sos:fast", "invalid sos beta"),
        ("topology=cycle:8 scheme=sos:2.5", "beta in (0, 2)"),
        ("topology=cycle:8 scheme=sos:0", "beta in (0, 2)"),
        ("topology=cycle:8 scheme=de:0", "lambda in (0, 1]"),
        ("topology=cycle:8 scheme=de:1.5", "lambda in (0, 1]"),
        ("topology=cycle:8 scheme=de:x", "invalid de lambda"),
        ("topology=cycle:8 scheme=matching:rr:-1", "lambda in (0, 1]"),
        (
            "topology=cycle:8 scheme=matching:random:x",
            "invalid matching seed",
        ),
        (
            "topology=cycle:8 scheme=matching:random:3:nope",
            "invalid matching lambda",
        ),
        ("topology=cycle:8 scheme=matching:swiss", "unknown scheme"),
        // Hybrid values.
        ("topology=cycle:8 hybrid=at", "unknown hybrid policy"),
        ("topology=cycle:8 hybrid=at:soon", "unknown hybrid policy"),
        (
            "topology=cycle:8 hybrid=local_diff:",
            "unknown hybrid policy",
        ),
        (
            "topology=cycle:8 hybrid=sometimes:1",
            "unknown hybrid policy",
        ),
        // A NaN threshold could never fire.
        (
            "topology=cycle:8 hybrid=local_diff:NaN",
            "invalid hybrid policy 'local_diff:NaN': switch threshold must not be NaN",
        ),
        (
            "topology=cycle:8 hybrid=max_minus_avg:NaN",
            "switch threshold must not be NaN",
        ),
        // Stop conditions.
        ("topology=cycle:8 stop=rounds", "invalid stop condition"),
        ("topology=cycle:8 stop=rounds:ten", "invalid stop condition"),
        ("topology=cycle:8 stop=balanced:1", "invalid stop condition"),
        (
            "topology=cycle:8 stop=plateau:a:100",
            "invalid stop condition",
        ),
        ("topology=cycle:8 stop=steady", "invalid stop condition"),
        (
            "topology=cycle:8 stop=steady:0",
            "steady window must be positive",
        ),
        (
            "topology=cycle:8 stop=horizon:0",
            "horizon must be positive",
        ),
        // Load plans: unknown kinds, out-of-range parameters, duplicates.
        ("topology=cycle:8 load=meteor:1:2", "unknown load kind"),
        ("topology=cycle:8 load=poisson:-1:2", "outside [0, 1024]"),
        (
            "topology=cycle:8 load=hotspot:0:0:4:1",
            "outside [1, 1000000000]",
        ),
        (
            "topology=cycle:8 load=diurnal:5:0",
            "diurnal period must be positive",
        ),
        (
            "topology=cycle:8 load=poisson:1:2+poisson:3:4",
            "duplicate load kind",
        ),
        // Other values.
        ("topology=cycle:8 seed=minus_one", "invalid seed"),
        ("topology=cycle:8 threads=none", "invalid thread count"),
        (
            "topology=cycle:8 flow_memory=forgetful",
            "unsupported flow_memory 'forgetful'",
        ),
        ("topology=cycle:8 mode=both", "unknown mode"),
        ("topology=cycle:8 rounding=banker", "unknown rounding"),
        ("topology=cycle:8 speeds=warp:9", "invalid speeds"),
        ("topology=cycle:8 init=everywhere", "invalid init"),
        // Checkpoint policies.
        ("topology=cycle:8 ckpt=every:0:dir", "must be positive"),
        ("topology=cycle:8 ckpt=every:16:", "expected every:N:DIR"),
        ("topology=cycle:8 ckpt=sometimes", "invalid ckpt"),
    ];
    for (text, needle) in cases {
        let err = text
            .parse::<ScenarioSpec>()
            .expect_err(&format!("'{text}' should fail to parse"));
        assert!(
            err.message.contains(needle),
            "'{text}' -> '{}' (wanted '{needle}')",
            err.message
        );
    }
    // Errors in files carry the 1-based line number of the bad line.
    let err =
        ScenarioSpec::parse_many("topology=cycle:8\n\n# comment\ntopology=cycle:8 scheme=sos:9\n")
            .unwrap_err();
    assert_eq!(err.line, 4);
    assert!(err.message.contains("beta in (0, 2)"));
}

#[test]
fn topology_display_roundtrip_exhaustive_kinds() {
    // One of each kind, exact text form.
    for text in [
        "torus2d:3:4",
        "torus:2:2:2",
        "hypercube:5",
        "cycle:11",
        "path:7",
        "complete:13",
        "star:9",
        "grid2d:2:9",
        "random_regular:20:3:99",
        "random_cm:50:1",
        "erdos_renyi:30:0.25:8",
        "geometric:40:1.75:3",
        "rgg:25:4",
    ] {
        let spec: TopologySpec = text.parse().unwrap();
        assert_eq!(spec.to_string(), text);
    }
}

/// State is `i64`/`f64` only: the removed `mem=` key (either of its old
/// values) is an unknown key — a typed [`ParseError`] from a single
/// line, and one carrying the line number from a scenario file.
#[test]
fn mem_key_is_rejected() {
    for value in ["compact", "full"] {
        let line = format!("topology=cycle:8 mem={value}");
        let err = line.parse::<ScenarioSpec>().unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown key 'mem'"), "{}", err.message);

        let file = format!("# header\ntopology=cycle:8\n\n{line}\n");
        let err = ScenarioSpec::parse_many(&file).unwrap_err();
        assert_eq!(err.line, 4, "{value}");
        assert!(err.message.contains("unknown key 'mem'"), "{}", err.message);
    }
}

/// A discrete run remembers the flows it sent, and no key chooses
/// another memory. `flow_memory=scheduled`, the unrounded memory that
/// was retired, is refused with a typed [`ParseError`] that names the
/// key, from a single line and from a scenario file. A line in the
/// older format, which always wrote `flow_memory=rounded`, parses to the
/// same spec as the same line without the key, and `Display` does not
/// write it back.
#[test]
fn flow_memory_key_is_legacy() {
    let line = "topology=cycle:8 scheme=sos:1.7 flow_memory=scheduled";
    let err = line.parse::<ScenarioSpec>().unwrap_err();
    assert_eq!(err.line, 1);
    assert!(
        err.message.contains("flow_memory 'scheduled'"),
        "{}",
        err.message
    );
    let err = ScenarioSpec::parse_many(&format!(
        "topology=cycle:8
{line}
"
    ))
    .unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("flow_memory"), "{}", err.message);

    let old = "name=v2fix topology=torus2d:8:8 speeds=uniform scheme=sos:1.7 mode=discrete \
               rounding=nearest init=point:0:6400 stop=rounds:64 threads=1 flow_memory=rounded \
               churn=flux:0.08:0.3:9:25";
    let spec: ScenarioSpec = old.parse().unwrap();
    let without: ScenarioSpec = old.replace(" flow_memory=rounded", "").parse().unwrap();
    assert_eq!(spec, without);
    assert_eq!(spec.to_string(), old.replace(" flow_memory=rounded", ""));
}

/// Initial loads whose total does not fit the `i64` token counters are
/// refused at build, as a typed error, for every spelling that
/// multiplies or sums — instead of overflowing (or silently wrapping)
/// while the loads are laid out.
#[test]
fn initial_load_totals_that_overflow_i64_are_refused() {
    for init in [
        "ramp:9223372036854775807",
        "equal:9223372036854775807",
        "equal:576460752303423488",
    ] {
        let spec: ScenarioSpec =
            format!("topology=torus2d:4:4 seed=1 scheme=fos init={init} stop=rounds:3")
                .parse()
                .unwrap();
        let graph = spec.build_graph().unwrap();
        match spec.experiment_on(&graph) {
            Err(BuildError::InvalidInitialLoad(msg)) => {
                assert!(msg.contains("overflows i64"), "{init}: {msg}")
            }
            Err(other) => panic!("{init}: unexpected error {other}"),
            Ok(_) => panic!("{init}: accepted"),
        }
    }
    // The largest equal split that fits (2^59 per node on 16 nodes is
    // 2^63 and overflows; one less per node fits) still builds.
    let spec: ScenarioSpec =
        "topology=torus2d:4:4 seed=1 scheme=fos init=equal:576460752303423487 stop=rounds:3"
            .parse()
            .unwrap();
    let graph = spec.build_graph().unwrap();
    assert!(spec.experiment_on(&graph).is_ok());
}
