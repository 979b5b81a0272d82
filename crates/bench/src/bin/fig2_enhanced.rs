//! Figure 2: basic versus enhanced Hd-model coefficients for an 8×8-bit
//! csa-multiplier.
//!
//! The paper plots the basic coefficients (dotted) against the enhanced
//! model's subgroups where *none* or *all* of the non-switching bits are
//! zero (solid): the enhanced model resolves the spread the basic model
//! averages away, especially at small Hd.

use hdpm_bench::{characterize_cached, header, save_artifact, standard_config};
use hdpm_netlist::{ModuleKind, ModuleWidth};
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Row {
    hd: usize,
    basic: f64,
    none_zero: Option<f64>,
    all_zero: Option<f64>,
    none_zero_samples: u64,
    all_zero_samples: u64,
}

fn main() {
    let _telemetry = hdpm_bench::telemetry_scope("fig2_enhanced");
    header(
        "Figure 2",
        "basic vs enhanced Hd-model coefficients, 8x8-bit csa-multiplier",
    );
    let result = characterize_cached(
        &hdpm_bench::experiment_engine(&standard_config()),
        ModuleKind::CsaMultiplier,
        ModuleWidth::Uniform(8),
    );
    let basic = &result.model;
    let enhanced = &result.enhanced;
    let m = basic.input_bits();

    println!(
        "\n  {:>4} {:>12} {:>14} {:>14}",
        "Hd", "basic p_i", "p_i (0 zeros)", "p_i (all zeros)"
    );
    let mut rows = Vec::new();
    for i in 1..=m {
        let row = enhanced.coefficient_row(i);
        let counts = enhanced.sample_count_row(i);
        let groups = row.len();
        // Subgroup 0: no stable bit is zero; subgroup m-i: all stable bits
        // are zero.
        let none_zero = (counts[0] > 0).then(|| row[0]);
        let all_zero = (counts[groups - 1] > 0).then(|| row[groups - 1]);
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:>14.2}"),
            None => format!("{:>14}", "-"),
        };
        println!(
            "  {i:>4} {:>12.2} {} {}",
            basic.coefficient(i),
            fmt(none_zero),
            fmt(all_zero)
        );
        rows.push(Fig2Row {
            hd: i,
            basic: basic.coefficient(i),
            none_zero,
            all_zero,
            none_zero_samples: counts[0],
            all_zero_samples: counts[groups - 1],
        });
    }

    // Quantify the resolution gain at small Hd, where the paper highlights
    // it.
    let mut gaps = Vec::new();
    for row in rows.iter().take(m / 2) {
        if let (Some(hi), Some(lo)) = (row.none_zero, row.all_zero) {
            if row.basic > 0.0 {
                gaps.push(100.0 * (hi - lo) / row.basic);
            }
        }
    }
    if !gaps.is_empty() {
        let avg_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        println!(
            "\nAverage spread between the no-zeros and all-zeros subgroups over\n\
             the lower half of the Hd range: {avg_gap:.0}% of the basic\n\
             coefficient — the resolution the basic model averages away\n\
             (paper: systematic under-/over-estimation for skewed streams)."
        );
    }
    println!(
        "Mean subgroup deviation (enhanced): {:.1}%  vs basic: {:.1}%",
        100.0 * enhanced.mean_deviation(),
        100.0 * basic.mean_deviation()
    );

    save_artifact("fig2_enhanced", &rows);
}
