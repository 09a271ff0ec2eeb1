//! Tables 1 and 2: the published feature sets, with storage accounting.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin tables_features --
//! [--metrics] [--manifest-dir DIR]`

use mrp_core::feature_sets;
use mrp_core::tables::WeightTables;
use mrp_core::Feature;
use mrp_experiments::{finish_manifest, Args, TextSink};
use mrp_obs::{Json, RunManifest};

fn describe(
    sink: &mut TextSink,
    manifest: Option<&mut RunManifest>,
    key: &str,
    title: &str,
    features: &[Feature],
) {
    sink.comment(title);
    let tables = WeightTables::new(features);
    let index_bits: u32 = features
        .iter()
        .map(|f| (f.table_size() as u32).trailing_zeros())
        .sum();
    let rows: Vec<Vec<String>> = features.iter().map(|f| vec![f.to_string()]).collect();
    sink.table(&["feature"], &rows);
    let storage_kb = tables.storage_bits() as f64 / 8192.0;
    sink.scalar(
        &format!("{key}.index_bits"),
        &format!(
            "{} features, {index_bits} index bits per sampler entry, {storage_kb:.2} KB of weight tables",
            features.len()
        ),
    );
    if let Some(m) = manifest {
        m.cell(
            key,
            "feature_set",
            &[
                ("features", features.len() as f64),
                ("index_bits", index_bits as f64),
                ("storage_kb", storage_kb),
            ],
        );
    }
}

fn main() {
    let args = Args::parse_known(&["threads", "no-simd", "metrics", "manifest-dir"]);
    args.init_runtime_options();
    let mut manifest = args.init_metrics("tables_features", 0);
    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    describe(
        &mut sink,
        manifest.as_mut(),
        "table_1a",
        "Table 1(a): single-thread feature set A (cross-validated)",
        &feature_sets::table_1a(),
    );
    describe(
        &mut sink,
        manifest.as_mut(),
        "table_1b",
        "Table 1(b): single-thread feature set B (paper's area estimate: 118 index bits)",
        &feature_sets::table_1b(),
    );
    describe(
        &mut sink,
        manifest.as_mut(),
        "table_2",
        "Table 2: multi-programmed feature set (trained on 100 mixes)",
        &feature_sets::table_2(),
    );
    if let Some(m) = manifest.as_mut() {
        m.meta(
            "note",
            Json::Str("static feature-set accounting; no simulation".into()),
        );
    }
    drop(report_phase);
    finish_manifest(manifest);
}
