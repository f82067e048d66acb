//! Tables VI and VII: per-CVE hybrid accuracy on Android Things —
//! deep-learning confusion counts, FP rate, execution-validation survivor
//! count, final ranking position, and per-stage timings (DP = deep
//! learning, DA = dynamic analysis), for the vulnerable (Table VI) and
//! patched (Table VII) search bases.
//!
//! ```text
//! cargo run --release -p patchecko-bench --bin table67_hybrid_accuracy
//! ```

use patchecko_bench::{build, print_telemetry, write_json, HarnessOpts, Table};
use patchecko_core::eval::CveRow;
use patchecko_core::pipeline::Basis;

fn print_rows(label: &str, rows: &[CveRow]) {
    println!("\n{label}\n");
    let table = Table::new(&[
        ("CVE", 15),
        ("TP", 3),
        ("TN", 6),
        ("FP", 4),
        ("FN", 3),
        ("Total", 6),
        ("FP(%)", 7),
        ("Exec", 5),
        ("Rank", 5),
        ("DP(s)", 8),
        ("DA(s)", 8),
    ]);
    for r in rows {
        table.row(&[
            r.cve.clone(),
            format!("{}", r.tp),
            format!("{}", r.tn),
            format!("{}", r.fp),
            format!("{}", r.fn_),
            format!("{}", r.total),
            format!("{:.2}", r.fp_percent),
            format!("{}", r.execution),
            r.ranking.map(|x| x.to_string()).unwrap_or_else(|| "N/A".into()),
            format!("{:.3}", r.dp_seconds),
            format!("{:.3}", r.da_seconds),
        ]);
    }
    let avg_fp = rows.iter().map(|r| r.fp_percent).sum::<f64>() / rows.len() as f64;
    // The paper's claim is over the targets the deep model finds, so a
    // found target that execution validation prunes counts as a miss.
    let found: Vec<&CveRow> = rows.iter().filter(|r| r.tp > 0).collect();
    let top3 = found.iter().filter(|r| r.ranking.is_some_and(|k| k <= 3)).count();
    let ranked = rows.iter().filter(|r| r.ranking.is_some()).count();
    let avg_dp = rows.iter().map(|r| r.dp_seconds).sum::<f64>() / rows.len() as f64;
    let avg_da = rows.iter().map(|r| r.da_seconds).sum::<f64>() / rows.len() as f64;
    println!(
        "\naverage FP {avg_fp:.2}%  |  top-3 {top3} of {} found by the static stage ({ranked} ranked)  |  avg DP {avg_dp:.3}s  avg DA {avg_da:.3}s",
        found.len()
    );
}

fn main() {
    let opts = HarnessOpts::parse();
    let ev = build(&opts);

    let table6 = ev.table_rows(0, Basis::Vulnerable);
    print_rows("Table VI: Android Things, vulnerable-function basis", &table6);

    let table7 = ev.table_rows(0, Basis::Patched);
    print_rows("Table VII: Android Things, patched-function basis", &table7);

    println!(
        "\npaper reference: average FP 6.16% (VI) / 5.67% (VII); the target ranks \
         top-3 100% of the time whenever the deep model finds it; the single miss \
         is CVE-2017-13209 on the vulnerable basis (patched on this device with a \
         heavy restructure)"
    );
    let miss = table6.iter().find(|r| r.cve == "CVE-2017-13209");
    if let Some(m) = miss {
        println!(
            "CVE-2017-13209 vulnerable-basis row here: TP={} FN={} rank={:?}",
            m.tp, m.fn_, m.ranking
        );
    }

    write_json(&opts.out, "table6_vulnerable_basis.json", &table6);
    write_json(&opts.out, "table7_patched_basis.json", &table7);
    print_telemetry("table67_hybrid_accuracy");
}
