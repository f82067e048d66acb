//! Figure 7: deep-learning false-positive rate per CVE, on both devices,
//! searching with both the vulnerable and the patched reference.
//!
//! The paper's reading of this figure: FP rates differ visibly between the
//! two bases for CVEs whose patch status makes the reference mismatch the
//! target (its CVE-2017-13209 / CVE-2018-9412 discussion).
//!
//! ```text
//! cargo run --release -p patchecko-bench --bin fig7_false_positive_rates
//! ```

use patchecko_bench::{build, write_json, HarnessOpts, Table};
use patchecko_core::pipeline::{Basis, DirectExtraction, Patchecko};

#[derive(serde::Serialize)]
struct Fp {
    cve: String,
    device: String,
    basis: String,
    total: usize,
    fp: u32,
    fp_percent: f64,
}

fn main() {
    let opts = HarnessOpts::parse();
    let ev = build(&opts);

    let mut rows: Vec<Fp> = Vec::new();
    for device in &ev.devices {
        for entry in ev.db.featured() {
            let truth = device.truth_for(&entry.entry.cve).expect("ground truth");
            let bin = device.image.binary(&truth.library).expect("library");
            for basis in [Basis::Vulnerable, Basis::Patched] {
                let references = Patchecko::reference_feature_set(entry, basis).unwrap();
                let scan = ev
                    .patchecko
                    .scan_library(bin, &[&references], &DirectExtraction)
                    .unwrap()
                    .remove(0);
                // FP = flagged functions that are not the true target.
                let fp = scan
                    .candidates
                    .iter()
                    .filter(|&&c| c != truth.function_index)
                    .count() as u32;
                rows.push(Fp {
                    cve: entry.entry.cve.clone(),
                    device: device.image.device.clone(),
                    basis: basis.to_string(),
                    total: scan.total,
                    fp,
                    fp_percent: 100.0 * fp as f64 / scan.total.max(1) as f64,
                });
            }
        }
    }

    println!("\nFigure 7: false positive rate per CVE / device / search basis\n");
    let table = Table::new(&[
        ("CVE", 15),
        ("device", 19),
        ("basis", 10),
        ("total", 6),
        ("FP", 5),
        ("FP(%)", 7),
    ]);
    for r in &rows {
        table.row(&[
            r.cve.clone(),
            r.device.clone(),
            r.basis.clone(),
            format!("{}", r.total),
            format!("{}", r.fp),
            format!("{:.2}", r.fp_percent),
        ]);
    }
    for device in ["android_things_1.0", "pixel2xl_8.0"] {
        for basis in ["vulnerable", "patched"] {
            let sel: Vec<&Fp> =
                rows.iter().filter(|r| r.device == device && r.basis == basis).collect();
            let avg = sel.iter().map(|r| r.fp_percent).sum::<f64>() / sel.len().max(1) as f64;
            println!("average FP% on {device} ({basis} basis): {avg:.2}%");
        }
    }
    println!("paper reference: per-CVE FP rates mostly 0.5-15%, averages ~6%");

    write_json(&opts.out, "fig7_false_positive_rates.json", &rows);
}
