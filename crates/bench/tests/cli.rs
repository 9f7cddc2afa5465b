//! The figure binaries reject a bad `--scale`, an argument they do not
//! declare, or a bad `DYNMO_THREADS` before doing any work.

use std::process::Command;

#[test]
fn a_bad_scale_exits_with_status_2_and_names_the_accepted_values() {
    for args in [&["--scale", "papr"][..], &["--scale"], &["--scale=paper"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_pipeline_sweep"))
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("smoke, default or paper"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started work");
    }
}

#[test]
fn an_undeclared_argument_or_value_exits_with_status_2_and_names_it() {
    let cases: [(&str, &[&str], &str); 2] = [
        (
            env!("CARGO_BIN_EXE_pipeline_sweep"),
            &["--sacle", "smoke"],
            "--sacle",
        ),
        (
            env!("CARGO_BIN_EXE_fig4_repack"),
            &["--scale", "smoke", "--section", "bogus"],
            "bogus",
        ),
    ];
    for (bin, args, offending) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(offending), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started work");
    }
}

#[test]
fn a_bad_thread_count_exits_with_status_2_and_names_the_variable() {
    for value in ["abc", "0", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_pipeline_sweep"))
            .args(["--scale", "smoke"])
            .env("DYNMO_THREADS", value)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "DYNMO_THREADS={value:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("DYNMO_THREADS"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "DYNMO_THREADS={value:?} started work"
        );
    }
}
