//! Theory validation (Results I & II): the refined local divergence
//! Υ^C(G), computed numerically from the error-propagation matrices
//! (M^t for FOS, Q(t) for SOS), against the bound shapes of Theorems 4(1)
//! and 9(1) across torus sizes, plus the measured deviation of coupled
//! discrete/continuous runs against Theorem 3's Υ·√(d·log n) form.

use sodiff_bench::ExpOpts;
use sodiff_core::divergence::{refined_local_divergence_at, DivergenceOptions};
use sodiff_core::prelude::*;
use sodiff_core::theory;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let sides: &[usize] = if opts.full {
        &[8, 12, 16, 24, 32, 48]
    } else {
        &[8, 12, 16, 24]
    };
    println!("Theory validation: refined local divergence and deviation on tori");
    println!(
        "{:>6} {:>10} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>14}",
        "side", "gap", "ups_fos", "bound_fos", "ups_sos", "bound_sos", "dev_sos", "thm3_envelope"
    );

    let mut rows = Vec::new();
    for &side in sides {
        let g = generators::torus2d(side, side);
        let n = g.node_count();
        let sp = Speeds::uniform(n);
        let spec = spectral::analyze(&g, &sp);
        let beta = spec.beta_opt();
        let dopts = DivergenceOptions::default();
        let ups_fos = refined_local_divergence_at(&g, &sp, Scheme::fos(), 0, dopts);
        let ups_sos = refined_local_divergence_at(&g, &sp, Scheme::sos(beta), 0, dopts);
        let bound_fos = theory::fos_divergence_bound(4, 1.0, spec.gap());
        let bound_sos = theory::sos_divergence_bound(4, 1.0, spec.gap());
        // Measured deviation of coupled runs vs Theorem 3's Υ·√(d log n)
        // envelope using the *numerically computed* Υ; each must stay
        // inside it.
        let deviation = |scheme, ups: f64| {
            let series = Experiment::on(&g)
                .discrete(Rounding::randomized(opts.seed))
                .scheme(scheme)
                .init(InitialLoad::paper_default(n))
                .build()
                .expect("valid experiment")
                .coupled_deviation(40 * side)
                .expect("discrete experiment");
            let envelope = ups * (4.0 * (n as f64).ln()).sqrt();
            assert!(
                series.max() <= envelope,
                "side {side}, {scheme:?}: deviation {} outside Theorem 3's envelope {envelope}",
                series.max()
            );
            (series, envelope)
        };
        deviation(Scheme::fos(), ups_fos);
        let (series, envelope) = deviation(Scheme::sos(beta), ups_sos);
        println!(
            "{side:>6} {:>10.2e} | {ups_fos:>12.3} {bound_fos:>12.3} | {ups_sos:>12.3} {bound_sos:>12.3} | {:>12.2} {envelope:>14.2}",
            spec.gap(),
            series.max()
        );
        rows.push(format!(
            "{side},{},{ups_fos},{bound_fos},{ups_sos},{bound_sos},{},{envelope}",
            spec.gap(),
            series.max()
        ));
    }
    sodiff_bench::write_table(
        &opts.path("ablation_divergence"),
        "side,gap,ups_fos,bound_fos,ups_sos,bound_sos,measured_deviation,theorem3_envelope",
        &rows,
    );
    println!("\nwrote {}", opts.path("ablation_divergence").display());
    println!("expected: Υ grows like gap^(-1/2) (FOS) and gap^(-3/4) (SOS);");
    println!("the measured FOS and SOS deviations stay below the Theorem 3 envelope.");
}
