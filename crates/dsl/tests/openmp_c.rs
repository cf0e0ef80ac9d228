//! Executes the OpenMP C that `nrlc` emits — the paper's own output
//! format — instead of only matching its text: every C codegen style of
//! the correlation and figure6 nests is compiled with `gcc -fopenmp`
//! around a counting body, run for a few `N`, and its iteration count
//! and point hash are compared with `Collapsed::total()` and the
//! literal nest. Skips (with a message) when `gcc` is not installed.

use nrl_core::CollapseSpec;
use nrl_dsl::{collapse_source, parse, CodegenOptions, CodegenStyle};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The body every emitted loop runs: an atomic count and an order-free
/// hash of the recovered indices.
const BODY: &str = "__atomic_fetch_add(&count, 1, __ATOMIC_RELAXED); \
                    __atomic_fetch_add(&hash, HASH, __ATOMIC_RELAXED);";

const CORRELATION: &str = "params N;
    for (i = 0; i < N - 1; i++)
      for (j = i + 1; j < N; j++)
      { BODY }";

const FIGURE6: &str = "params N;
    for (i = 0; i < N - 1; i++)
      for (j = 0; j < i + 1; j++)
        for (k = j; k < i + 1; k++)
        { BODY }";

const SIZES: [i64; 3] = [2, 17, 120];

/// The hash of one point, as C source and as its Rust twin.
fn hash_c(depth: usize) -> &'static str {
    if depth == 2 {
        "(i * 1000003L + j * 1009L)"
    } else {
        "(i * 1000003L + j * 1009L + k)"
    }
}

fn hash_point(p: &[i64]) -> i64 {
    p[0] * 1_000_003 + p[1] * 1009 + p.get(2).copied().unwrap_or(0)
}

fn gcc_available() -> bool {
    Command::new("gcc").arg("--version").output().is_ok()
}

/// Compiles `code` (the emitted `collapsed_nest`) into a program that
/// runs it for `argv[1]` and prints `count hash`.
fn compile(code: &str, dir: &Path, name: &str) -> PathBuf {
    let src = dir.join(format!("{name}.c"));
    let exe = dir.join(name);
    let program = format!(
        "#include <stdio.h>\n#include <stdlib.h>\n\
         static long count;\nstatic long hash;\n\
         {code}\n\
         int main(int argc, char **argv) {{\n\
           (void)argc;\n\
           collapsed_nest(atol(argv[1]));\n\
           printf(\"%ld %ld\\n\", count, hash);\n\
           return 0;\n\
         }}\n"
    );
    std::fs::write(&src, program).expect("write C source");
    let out = Command::new("gcc")
        .args(["-fopenmp", "-O1", "-o"])
        .arg(&exe)
        .arg(&src)
        .arg("-lm")
        .output()
        .expect("run gcc");
    assert!(
        out.status.success(),
        "gcc rejected the emitted C for {name}:\n{}\n--- source ---\n{code}",
        String::from_utf8_lossy(&out.stderr)
    );
    exe
}

fn check_nest(template: &str, label: &str) {
    if !gcc_available() {
        eprintln!("skipping {label}: gcc is not installed");
        return;
    }
    let src = template.replace("BODY", BODY);
    let prog = parse(&src).expect("nest parses");
    let nest = prog.to_nest().expect("nest lowers");
    let src = src.replace("HASH", hash_c(nest.depth()));
    let spec = CollapseSpec::new(&nest).expect("nest collapses");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("openmp_c");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (tag, style) in [
        ("naive", CodegenStyle::Naive),
        ("chunked", CodegenStyle::Chunked),
        ("chunked_by", CodegenStyle::ChunkedBy(7)),
        ("simd", CodegenStyle::Simd(8)),
        ("warp", CodegenStyle::GpuWarp(5)),
    ] {
        let opts = CodegenOptions {
            style,
            ..CodegenOptions::default()
        };
        let code = collapse_source(&src, &opts).expect("nrlc emits C");
        let exe = compile(&code, &dir, &format!("{label}_{tag}"));
        for n in SIZES {
            let out = Command::new(&exe)
                .arg(n.to_string())
                .env("OMP_NUM_THREADS", "2")
                .output()
                .expect("run the compiled nest");
            assert!(out.status.success(), "{label}/{tag} N={n} exited badly");
            let text = String::from_utf8_lossy(&out.stdout);
            let got: Vec<i64> = text
                .split_whitespace()
                .map(|w| w.parse().expect("integer output"))
                .collect();
            let total = spec.bind(&[n]).expect("domain binds").total();
            let hash: i64 = nest.enumerate(&[n]).map(|p| hash_point(&p)).sum();
            assert_eq!(
                got,
                vec![total as i64, hash],
                "{label}/{tag} N={n}: count and hash of the compiled loop"
            );
        }
    }
}

#[test]
fn emitted_correlation_c_compiles_and_counts() {
    check_nest(CORRELATION, "correlation");
}

#[test]
fn emitted_figure6_c_compiles_and_counts() {
    check_nest(FIGURE6, "figure6");
}
