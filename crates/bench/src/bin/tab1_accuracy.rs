//! Table 1: estimation error of the basic Hd model (in %) against the
//! reference simulator, for five module types × three operand widths ×
//! five data-stream classes.
//!
//! Columns: average absolute cycle error `ε_a` and signed average-charge
//! error `ε`, per data type I–V.

use hdpm_bench::{characterize_cached, header, reference_trace, save_artifact, standard_config};
use hdpm_core::{evaluate_batch, threads_from_env};
use hdpm_netlist::{ModuleWidth, TABLE1_MODULE_KINDS};
use hdpm_streams::ALL_DATA_TYPES;
use serde::Serialize;

#[derive(Serialize)]
struct Tab1Row {
    module: String,
    width: usize,
    data_type: String,
    cycle_error_pct: f64,
    average_error_pct: f64,
}

fn main() {
    let _telemetry = hdpm_bench::telemetry_scope("tab1_accuracy");
    header("Table 1", "estimation error of the basic Hd-model (in %)");
    let engine = hdpm_bench::experiment_engine(&standard_config());
    let widths = [8usize, 12, 16];

    // Pre-characterize all fifteen module instances in parallel.
    let specs: Vec<hdpm_netlist::ModuleSpec> = TABLE1_MODULE_KINDS
        .iter()
        .flat_map(|&kind| {
            widths
                .iter()
                .map(move |&w| hdpm_netlist::ModuleSpec::new(kind, ModuleWidth::Uniform(w)))
        })
        .collect();
    let threads = threads_from_env();
    engine
        .warm(&specs, threads)
        .expect("table-1 modules characterize");

    println!(
        "\n{:<20} {:>5} | {:>6} {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6} {:>6}",
        "module", "width", "I", "II", "III", "IV", "V", "I", "II", "III", "IV", "V"
    );
    println!(
        "{:<20} {:>5} | {:^34} | {:^34}",
        "", "", "cycle charge eps_a", "avg charge |eps|"
    );

    let mut rows = Vec::new();
    let mut col_sums_cycle = [0.0f64; 5];
    let mut col_sums_avg = [0.0f64; 5];
    let mut col_n = 0usize;

    for kind in TABLE1_MODULE_KINDS {
        for &w in &widths {
            let width = ModuleWidth::Uniform(w);
            let characterization = characterize_cached(&engine, kind, width);
            let model = &characterization.model;

            // One reference trace per data type, evaluated as a batch on
            // the worker pool (reports come back in data-type order).
            let traces: Vec<_> = ALL_DATA_TYPES
                .iter()
                .map(|dt| reference_trace(kind, width, *dt, 7 + w as u64))
                .collect();
            let reports =
                evaluate_batch(model, &traces, threads).expect("widths agree by construction");
            let mut cycle = Vec::new();
            let mut avg = Vec::new();
            for (k, (dt, report)) in ALL_DATA_TYPES.iter().zip(&reports).enumerate() {
                cycle.push(report.cycle_error_pct);
                avg.push(report.average_error_pct);
                col_sums_cycle[k] += report.cycle_error_pct;
                col_sums_avg[k] += report.average_error_pct.abs();
                rows.push(Tab1Row {
                    module: kind.to_string(),
                    width: w,
                    data_type: dt.roman().to_string(),
                    cycle_error_pct: report.cycle_error_pct,
                    average_error_pct: report.average_error_pct,
                });
            }
            col_n += 1;
            println!(
                "{:<20} {:>5} | {:>6.0} {:>6.0} {:>6.0} {:>6.0} {:>6.0} | {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                kind.to_string(),
                w,
                cycle[0], cycle[1], cycle[2], cycle[3], cycle[4],
                avg[0].abs(), avg[1].abs(), avg[2].abs(), avg[3].abs(), avg[4].abs()
            );
        }
    }

    print!("{:<20} {:>5} |", "average", "/");
    for s in col_sums_cycle {
        print!(" {:>6.0}", s / col_n as f64);
    }
    print!(" |");
    for s in col_sums_avg {
        print!(" {:>6.1}", s / col_n as f64);
    }
    println!();

    save_artifact("tab1_accuracy", &rows);
    println!(
        "\nShape check (paper Table 1): cycle errors are large everywhere\n\
         (averages 17-47%), average-charge errors are much smaller and grow\n\
         from data type I (characterization statistics) toward data type V\n\
         (binary counter, strongest mismatch)."
    );
}
