//! The benchmark must keep working when the repository retires its
//! implementation switches, so no benchmark file may name one.

use std::path::Path;

fn visit(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read benchmark directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Build outputs and results are not benchmark sources.
            if !matches!(name, "target" | "out" | ".bench_build") {
                visit(&path, files);
            }
        } else {
            files.push(path);
        }
    }
}

#[test]
fn no_benchmark_file_names_an_implementation_switch() {
    // Spelled in halves so this file passes its own test.
    let forbidden: Vec<String> = [
        ("Queue", "Backend"),
        ("Arrival", "Index"),
        ("Snapshot", "Mode"),
        ("data_", "batching"),
        ("buffered_", "logs"),
        ("steal_", "sources"),
        ("strict_", "source_order"),
        ("tier_", "oracle"),
    ]
    .iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("../BENCHMARK.json")];
    visit(root, &mut files);
    assert!(files.len() > 10, "found only {} files", files.len());
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue; // not text
        };
        for word in &forbidden {
            assert!(
                !text.contains(word.as_str()),
                "{} mentions {word}",
                file.display()
            );
        }
    }
}
