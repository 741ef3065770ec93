//! Shared harness for the paper-figure experiment binaries.
//!
//! Which binary in `src/bin/` regenerates which part of the paper:
//!
//! | Paper | Binary |
//! |---|---|
//! | Figures 1–6 (2-D torus: SOS vs FOS, initial load, idealized runs, the SOS→FOS switch, float drift) | `fig01_06` |
//! | Figures 7, 8, 15 (100² torus: eigenvector impact, switch-round sweep, metrics and eigen-impact overlay) | `fig07_08_15` |
//! | Figures 9–11 (one torus run: wavefront renders, then FOS smoothing renders) | `fig09_11` |
//! | Figures 12, 13, 14 (configuration model, hypercube, random geometric graph) | `fig12`, `fig13`, `fig14` |
//! | Table I (graph classes and `β_opt`) | `table1` |
//! | Theorems and design choices (rounding schemes in `ablation_rounding`) | `ablation_*` |
//!
//! `perf_baseline` times the round executor and writes
//! `BENCH_rounds.json`. Each figure and ablation binary accepts:
//!
//! * `--full` — run the paper-scale configuration (10⁶-node graphs, 5000
//!   rounds); the default is a scaled-down configuration with the same
//!   qualitative behavior that finishes in seconds to a few minutes,
//! * `--out <dir>` — where to write CSV series (default
//!   `target/experiments`),
//! * `--seed <n>` — RNG seed (default 42).
//!
//! Series are CSV files with one row per recorded round; the columns are
//! the paper's metrics (`max − avg`, max local difference, potential/n,
//! minimum load, minimum transient load, total load). The figure binaries
//! that write series run them through [`run_series`]: each distinct
//! [`Series`] runs once, and every CSV that reads it is a [`Cut`] of its
//! rows, or is written by a [`Hook`] that sees the run's simulator after
//! every round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use sodiff_core::{
    Experiment, InitialLoad, MetricsRow, Mode, Observer, Recorder, Rounding, RunReport, Scheme,
    Simulator, StopCondition, SwitchPolicy,
};
use sodiff_graph::Graph;

/// Common command-line options of the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Run the paper-scale configuration.
    pub full: bool,
    /// Output directory for CSV series.
    pub out_dir: PathBuf,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExpOpts {
    /// Parses `--full`, `--out <dir>`, and `--seed <n>` from `std::env`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on unknown arguments.
    pub fn from_args() -> Self {
        let mut opts = Self {
            full: false,
            out_dir: PathBuf::from("target/experiments"),
            seed: 42,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--out" => {
                    opts.out_dir =
                        PathBuf::from(args.next().expect("--out requires a directory argument"));
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .expect("--seed requires a value")
                        .parse()
                        .expect("--seed value must be an integer");
                }
                other => {
                    panic!("unknown argument {other}; supported: --full, --out <dir>, --seed <n>")
                }
            }
        }
        fs::create_dir_all(&opts.out_dir).expect("create output directory");
        opts
    }

    /// Picks the scaled or full value.
    pub fn scale<T>(&self, scaled: T, full: T) -> T {
        if self.full {
            full
        } else {
            scaled
        }
    }

    /// Path of a series file in the output directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}.csv"))
    }
}

/// Writes a recorded metric series as CSV.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries treat those as fatal).
pub fn write_series(path: &Path, rows: &[MetricsRow]) {
    let mut w = BufWriter::new(File::create(path).expect("create series file"));
    writeln!(
        w,
        "round,max_minus_avg,max_local_diff,potential_over_n,min_load,min_transient,total_load"
    )
    .expect("write header");
    for r in rows {
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            r.round,
            r.metrics.max_minus_avg,
            r.metrics.max_local_diff,
            r.metrics.potential_over_n,
            r.metrics.min_load,
            r.min_transient,
            r.total_load
        )
        .expect("write row");
    }
}

/// Writes a series as `<name>.csv` and prints a one-line summary.
pub fn save_series(opts: &ExpOpts, name: &str, rows: &[MetricsRow]) {
    let path = opts.path(name);
    write_series(&path, rows);
    if let Some(last) = rows.last() {
        println!(
            "{name}: {} rows -> {} (final max-avg {:.2}, local diff {:.2})",
            rows.len(),
            path.display(),
            last.metrics.max_minus_avg,
            last.metrics.max_local_diff
        );
    } else {
        println!("{name}: 0 rows -> {}", path.display());
    }
}

/// One simulation of a figure: an experiment configuration on the
/// figure's graph.
#[derive(Debug, Clone)]
pub struct Series {
    /// The scheme the run starts with.
    pub scheme: Scheme,
    /// Idealized, or discrete under a rounding (which carries the seed).
    pub mode: Mode,
    /// The initial load.
    pub init: InitialLoad,
    /// The SOS→FOS switch of a hybrid run.
    pub switch: Option<SwitchPolicy>,
}

impl Series {
    /// The paper's default run of `scheme` on an `n`-node graph:
    /// randomized rounding under `seed`, from `1000·n` tokens on node 0.
    pub fn paper(scheme: Scheme, seed: u64, n: usize, switch: Option<SwitchPolicy>) -> Self {
        Self {
            scheme,
            mode: Mode::Discrete(Rounding::randomized(seed)),
            init: InitialLoad::paper_default(n),
            switch,
        }
    }

    /// This series as an experiment that stops after `rounds` rounds.
    fn experiment<'g>(&self, graph: &'g Graph, rounds: u64) -> Experiment<'g> {
        let builder = match self.mode {
            Mode::Continuous => Experiment::on(graph).continuous(),
            Mode::Discrete(rounding) => Experiment::on(graph).discrete(rounding),
        };
        let mut builder = builder
            .scheme(self.scheme)
            .init(self.init.clone())
            .stop(StopCondition::MaxRounds(rounds as usize));
        if let Some(policy) = self.switch {
            builder = builder.hybrid(policy);
        }
        builder.build().expect("valid experiment")
    }
}

/// The rows one output reads from a series: every `stride`-th round up
/// to `horizon`.
///
/// A row at round `r` depends only on the state after round `r`, so a
/// cut of a longer run holds exactly the rows [`Recorder::every`]
/// records over a run of `horizon` rounds.
#[derive(Debug, Clone, Copy)]
pub struct Cut {
    /// Index of the series in the slice passed to [`run_series`].
    pub series: usize,
    /// The last round read.
    pub horizon: u64,
    /// Reads every `stride`-th round.
    pub stride: u64,
}

impl Cut {
    /// Every round of `series` up to `horizon`.
    pub fn every_round(series: usize, horizon: u64) -> Self {
        Self {
            series,
            horizon,
            stride: 1,
        }
    }

    fn wants(&self, round: u64) -> bool {
        round <= self.horizon && round.is_multiple_of(self.stride)
    }

    /// This cut's rows of `runs`, the result of [`run_series`].
    pub fn rows(&self, runs: &[Run]) -> Vec<MetricsRow> {
        let rows = &runs[self.series].rows;
        rows.iter()
            .copied()
            .filter(|r| self.wants(r.round))
            .collect()
    }
}

/// A series after its run.
#[derive(Debug)]
pub struct Run {
    /// The rows of the rounds some cut wants.
    pub rows: Vec<MetricsRow>,
    /// The run's report.
    pub report: RunReport,
}

/// A per-round hook: called after every round of every series with the
/// series' index and its simulator, for outputs that read more than the
/// recorded metrics.
pub type Hook<'h> = &'h mut dyn FnMut(usize, &Simulator<'_>);

/// Hands the rounds some cut wants to a [`Recorder`], so every row is
/// the one a recorder writes, and every round to the hook.
struct Wanted<'c, 'h> {
    series: usize,
    cuts: Vec<&'c Cut>,
    rec: Recorder,
    hook: Hook<'h>,
}

impl Observer for Wanted<'_, '_> {
    fn on_round(&mut self, sim: &Simulator<'_>) {
        if self.cuts.iter().any(|c| c.wants(sim.round())) {
            self.rec.on_round(sim);
        }
        (self.hook)(self.series, sim);
    }
}

/// Runs every series once, up to the longest horizon of the cuts on it,
/// records only the rounds some cut wants, and hands every round to the
/// `hook`, if any.
///
/// # Panics
///
/// Panics if a series does not build (experiment binaries treat that as
/// fatal).
pub fn run_series(
    graph: &Graph,
    series: &[Series],
    cuts: &[Cut],
    hook: Option<Hook<'_>>,
) -> Vec<Run> {
    let mut quiet = |_: usize, _: &Simulator<'_>| {};
    let hook: Hook<'_> = match hook {
        Some(hook) => hook,
        None => &mut quiet,
    };
    let run = |(i, s): (usize, &Series)| {
        let cuts: Vec<&Cut> = cuts.iter().filter(|c| c.series == i).collect();
        let horizon = cuts.iter().map(|c| c.horizon).max().unwrap_or(0);
        let mut wanted = Wanted {
            series: i,
            cuts,
            rec: Recorder::new(),
            hook: &mut *hook,
        };
        let report = s.experiment(graph, horizon).run_with(&mut wanted);
        Run {
            rows: wanted.rec.rows().to_vec(),
            report,
        }
    };
    series.iter().enumerate().map(run).collect()
}

/// Runs a figure's series ([`run_series`]) and writes each named cut
/// with [`save_series`]. The `extra` cuts are recorded for tables the
/// binary writes itself.
pub fn run_figure(
    opts: &ExpOpts,
    graph: &Graph,
    series: &[Series],
    outputs: &[(&str, Cut)],
    extra: &[Cut],
    hook: Option<Hook<'_>>,
) -> Vec<Run> {
    let cuts: Vec<Cut> = outputs
        .iter()
        .map(|&(_, cut)| cut)
        .chain(extra.iter().copied())
        .collect();
    let runs = run_series(graph, series, &cuts, hook);
    for (name, cut) in outputs {
        save_series(opts, name, &cut.rows(&runs));
    }
    runs
}

/// Writes a generic CSV table (for non-series experiments like Table I).
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_table(path: &Path, header: &str, rows: &[String]) {
    let mut w = BufWriter::new(File::create(path).expect("create table file"));
    writeln!(w, "{header}").expect("write header");
    for row in rows {
        writeln!(w, "{row}").expect("write row");
    }
}

/// A stride that yields roughly `target_points` recorded rows over
/// `rounds` rounds (at least 1).
pub fn stride_for(rounds: u64, target_points: u64) -> u64 {
    (rounds / target_points.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_math() {
        assert_eq!(stride_for(1000, 100), 10);
        assert_eq!(stride_for(50, 100), 1);
        assert_eq!(stride_for(0, 0), 1);
    }

    #[test]
    fn scale_picks_by_flag() {
        let mut o = ExpOpts {
            full: false,
            out_dir: PathBuf::from("/tmp"),
            seed: 1,
        };
        assert_eq!(o.scale(10, 1000), 10);
        o.full = true;
        assert_eq!(o.scale(10, 1000), 1000);
    }

    #[test]
    fn series_roundtrip() {
        use sodiff_core::prelude::*;
        let dir = std::env::temp_dir().join("sodiff_bench_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.csv");
        let g = sodiff_graph::generators::cycle(8);
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(1))
            .init(InitialLoad::point(0, 80))
            .build()
            .unwrap()
            .simulator();
        let mut rec = Recorder::new();
        sim.run_until_with(StopCondition::MaxRounds(5), &mut rec);
        write_series(&path, rec.rows());
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("round,max_minus_avg"));
        assert_eq!(text.lines().count(), 6);
        fs::remove_file(path).ok();
    }

    /// The CSV text `write_series` writes for `rows`.
    fn csv(name: &str, rows: &[MetricsRow]) -> String {
        let dir = std::env::temp_dir().join("sodiff_bench_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.csv"));
        write_series(&path, rows);
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_file(path).ok();
        text
    }

    /// The rows of a stand-alone run of `series` for `rounds` rounds,
    /// recorded by `Recorder::every(stride)`.
    fn alone(g: &Graph, series: &Series, rounds: u64, stride: u64) -> Vec<MetricsRow> {
        let mut rec = Recorder::every(stride);
        series.experiment(g, rounds).run_with(&mut rec);
        rec.rows().to_vec()
    }

    /// The 12² torus, its node count and its `β_opt`.
    fn torus() -> (Graph, usize, f64) {
        let g = sodiff_graph::generators::torus2d(12, 12);
        let n = g.node_count();
        let beta =
            sodiff_linalg::spectral::analyze(&g, &sodiff_graph::Speeds::uniform(n)).beta_opt();
        (g, n, beta)
    }

    #[test]
    fn cuts_of_a_shared_run_equal_separate_runs() {
        let (g, n, beta) = torus();
        let series = [
            Series::paper(Scheme::sos(beta), 3, n, None),
            Series {
                mode: Mode::Continuous,
                ..Series::paper(Scheme::fos(), 3, n, None)
            },
        ];
        let cuts =
            [(0, 90, 1), (0, 61, 4), (0, 35, 7), (1, 50, 5)].map(|(series, horizon, stride)| Cut {
                series,
                horizon,
                stride,
            });
        let runs = run_series(&g, &series, &cuts, None);
        assert_eq!(runs[0].report.rounds, 90);
        assert_eq!(runs[1].report.rounds, 50);
        // Series 1 recorded only the ten rounds its one cut reads.
        assert_eq!(runs[1].rows.len(), 10);
        for (k, cut) in cuts.iter().enumerate() {
            let shared = csv(&format!("shared{k}"), &cut.rows(&runs));
            let separate = alone(&g, &series[cut.series], cut.horizon, cut.stride);
            assert_eq!(shared, csv(&format!("separate{k}"), &separate), "cut {k}");
        }
    }

    #[test]
    fn switch_series_equals_a_switch_at_that_round() {
        let (g, n, beta) = torus();
        let at = 30;
        let series = [Series::paper(
            Scheme::sos(beta),
            5,
            n,
            Some(SwitchPolicy::AtRound(at)),
        )];
        let cut = Cut::every_round(0, 60);
        // The loads the hook sees after each round.
        let mut seen = Vec::new();
        let mut hook = |i: usize, sim: &Simulator<'_>| {
            assert_eq!(i, 0);
            seen.push(sim.loads_i64().expect("discrete run").into_owned());
        };
        let runs = run_series(&g, &series, &[cut], Some(&mut hook));
        assert_eq!(runs[0].report.switch_round, Some(at));
        let rows = cut.rows(&runs);
        assert_eq!(
            csv("switch_shared", &rows),
            csv("switch_alone", &alone(&g, &series[0], 60, 1))
        );
        // The same run stepped by hand, switching to FOS before round
        // `at + 1`.
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(5))
            .sos(beta)
            .init(InitialLoad::paper_default(n))
            .build()
            .unwrap()
            .simulator();
        assert_eq!(seen.len(), rows.len());
        for (row, loads) in rows.iter().zip(&seen) {
            if row.round == at + 1 {
                sim.switch_scheme(Scheme::fos());
            }
            sim.step();
            assert_eq!(sim.round(), row.round);
            assert_eq!(
                sim.metrics().max_minus_avg.to_bits(),
                row.metrics.max_minus_avg.to_bits()
            );
            assert_eq!(sim.loads_i64().unwrap().as_ref(), loads.as_slice());
        }
    }
}
