//! Figure 4: model coefficients from instance characterization compared to
//! the values produced by the §5 regression equations, for the
//! csa-multiplier and the ripple adder, using the ALL/SEC/THI prototype
//! sets.

use hdpm_bench::{characterize_cached, header, save_artifact, standard_config};
use hdpm_core::{ParameterizableModel, Prototype, PrototypeSet};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Row {
    module: String,
    set: String,
    width: usize,
    hd: usize,
    instance_coefficient: f64,
    regression_coefficient: f64,
    relative_error_pct: f64,
}

/// Prototype widths of the paper's experiment: 4..=16 step 2.
const PROTOTYPE_WIDTHS: [usize; 7] = [4, 6, 8, 10, 12, 14, 16];

fn main() {
    let _telemetry = hdpm_bench::telemetry_scope("fig4_regression");
    header(
        "Figure 4",
        "instance-characterized vs regression coefficients (ALL/SEC/THI)",
    );
    let engine = hdpm_bench::experiment_engine(&standard_config());
    let mut rows = Vec::new();

    // Pre-characterize both prototype sweeps in parallel.
    let all_specs: Vec<ModuleSpec> = [ModuleKind::CsaMultiplier, ModuleKind::RippleAdder]
        .iter()
        .flat_map(|&kind| {
            PROTOTYPE_WIDTHS
                .iter()
                .map(move |&w| ModuleSpec::new(kind, ModuleWidth::Uniform(w)))
        })
        .collect();
    engine
        .warm(&all_specs, 0)
        .expect("prototype sweep characterizes");

    for kind in [ModuleKind::CsaMultiplier, ModuleKind::RippleAdder] {
        // Characterize the full prototype sweep once.
        let prototypes: Vec<Prototype> = PROTOTYPE_WIDTHS
            .iter()
            .map(|&w| {
                let width = ModuleWidth::Uniform(w);
                Prototype {
                    spec: ModuleSpec::new(kind, width),
                    model: characterize_cached(&engine, kind, width).model,
                }
            })
            .collect();

        for set in [PrototypeSet::All, PrototypeSet::Sec, PrototypeSet::Thi] {
            let selected_widths = set.select(&PROTOTYPE_WIDTHS);
            let subset: Vec<Prototype> = prototypes
                .iter()
                .filter(|p| {
                    let (m1, _) = p.spec.width.operand_widths();
                    selected_widths.contains(&m1)
                })
                .cloned()
                .collect();
            let family = ParameterizableModel::fit(&subset).expect("enough prototypes");

            // Compare against every characterized instance (including the
            // ones the subset never saw).
            let mut sum_err = 0.0;
            let mut n_err = 0usize;
            for proto in &prototypes {
                let m = proto.model.input_bits();
                for i in (1..=m).step_by((m / 8).max(1)) {
                    let inst = proto.model.coefficient(i);
                    let reg = family.predict_coefficient(proto.spec.width, i);
                    let err = if inst > 0.0 {
                        100.0 * (reg - inst).abs() / inst
                    } else {
                        0.0
                    };
                    sum_err += err;
                    n_err += 1;
                    let (m1, _) = proto.spec.width.operand_widths();
                    rows.push(Fig4Row {
                        module: kind.to_string(),
                        set: set.label().to_string(),
                        width: m1,
                        hd: i,
                        instance_coefficient: inst,
                        regression_coefficient: reg,
                        relative_error_pct: err,
                    });
                }
            }
            println!(
                "{:<20} {:<4} prototypes {:?}: mean |p_i(R) - p_i_inst| / p_i_inst = {:.1}%",
                kind.to_string(),
                set.label(),
                selected_widths,
                sum_err / n_err as f64
            );
        }
    }

    // Print a detailed slice like the paper's figure: p_i over width for a
    // few Hd classes.
    println!("\ncsa-multiplier p_i versus operand width (instance vs ALL-regression):");
    println!(
        "  {:>6} {:>4} {:>14} {:>14} {:>8}",
        "width", "Hd", "instance", "regression", "err[%]"
    );
    for row in rows.iter().filter(|r| {
        r.module == "csa_multiplier" && r.set == "ALL" && (r.hd == 1 || r.hd == 5 || r.hd == 8)
    }) {
        println!(
            "  {:>6} {:>4} {:>14.2} {:>14.2} {:>8.1}",
            row.width,
            row.hd,
            row.instance_coefficient,
            row.regression_coefficient,
            row.relative_error_pct
        );
    }

    save_artifact("fig4_regression", &rows);
    println!(
        "\nShape check (paper §5): regression coefficients track the\n\
         instance coefficients within a few percent, even for the THI set\n\
         with only three prototypes."
    );
}
