//! `mkbank` and `reproduce` refuse a bank no index could address, and
//! any value that is not a size, before they generate anything: one
//! stderr line, exit code 1, no output file — never a panic or an
//! allocation abort. `reproduce` refuses an unknown experiment the same
//! way, and runs exactly the experiments it is given.

use std::process::Command;

/// Runs `bin` on `args` and asserts the refusal: exit 1, one stderr line
/// naming the program, nothing on stdout.
fn refused(bin: &str, program: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("{program}: ")), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn mkbank_refuses_bad_sizes_and_writes_good_ones() {
    let dir = std::env::temp_dir().join(format!("oris_mkbank_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fa = dir.join("bank.fa");
    let fa = fa.to_str().unwrap();
    for args in [
        &["random", "--gc", "2"][..],
        &["random", "--gc", "nan"],
        &["random", "--gc", "-0.1"],
        &["random", "--seqs", "1", "--len", "100000000000"],
        &["random", "--seqs", "4294967296", "--len", "4294967296"],
        &["random", "--seqs", "18446744073709551615", "--len", "1"],
        &["EST1", "--scale", "0"],
        &["EST1", "--scale", "-1"],
        &["EST1", "--scale", "nan"],
        &["EST1", "--scale", "inf"],
        &["EST1", "--scale", "x"],
        &["H10", "--scale", "1000"],
    ] {
        refused(
            env!("CARGO_BIN_EXE_mkbank"),
            "mkbank",
            &[args, &["-o", fa]].concat(),
        );
        assert!(!dir.join("bank.fa").exists(), "{args:?}");
    }
    for args in [
        &["random", "--seqs", "3", "--len", "50", "--gc", "1"][..],
        &["EST1", "--scale", "0.002"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mkbank"))
            .args([args, &["-o", fa]].concat())
            .output()
            .unwrap();
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(std::fs::read_to_string(fa).unwrap().starts_with('>'));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paper_bins_refuse_a_bad_scale_with_one_line() {
    for args in [
        &["--scale", "x"][..],
        &["--scale", "0"],
        &["--scale"],
        &["--scale", "inf"],
        &["--scale", "1000"],
        &["--scael", "1"],
        &["0.5"],
        &["E9"],
        &["E1", "e2"],
    ] {
        refused(env!("CARGO_BIN_EXE_reproduce"), "reproduce", args);
    }
}

#[test]
fn reproduce_runs_exactly_the_named_experiments() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--scale", "0.01", "E7", "A3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let headings: Vec<&str> = stdout.lines().filter(|l| l.starts_with("## ")).collect();
    assert_eq!(
        headings,
        [
            "## E7: index memory footprint (paper section 3.1)",
            "## A3: seed length sweep (ORIS engine)"
        ],
        "{stdout}"
    );
}
