//! `planp fmt` and `planp info` — the front end on one PLAN-P file:
//! pretty-print it, or list its channels, state types and sizes.
//!
//! ```text
//! planp fmt  asps/audio_router.planp
//! planp info asps/mpeg_monitor.planp
//! ```
//!
//! A file the front end rejects prints its rendered error on stderr.
//! Exit status: 0 on success, 1 when the front end rejects the file, 2
//! on usage or I/O errors.

use crate::{Cli, CliArgs, Report, Sub};
use planp_lang::{compile_front, count_lines, parse_program, pretty, LangError};

/// `planp fmt`.
pub(crate) const FMT: Sub = Sub {
    name: "fmt",
    about: "pretty-print a PLAN-P file",
    cli: one_file(
        "\
planp fmt: pretty-print a PLAN-P file to stdout
usage: planp fmt <file.planp>
",
    ),
    run: fmt,
};

/// `planp info`.
pub(crate) const INFO: Sub = Sub {
    name: "info",
    about: "a PLAN-P file's channels, state types and line count",
    cli: one_file(
        "\
planp info: a PLAN-P file's channels, state types and line count
usage: planp info <file.planp>
",
    ),
    run: info,
};

const fn one_file(help: &'static str) -> Cli {
    Cli {
        help,
        flags: &[],
        value_flags: &[],
        operands: true,
    }
}

/// The text of the one file named on the command line.
fn source(args: &CliArgs) -> Result<String, String> {
    match args.positionals.as_slice() {
        [_] => Ok(crate::read_sources(&args.positionals)?.remove(0).1),
        _ => Err("expected one <file.planp> (try --help)".to_string()),
    }
}

fn rejected(src: &str, e: &LangError) -> Report {
    Report {
        stderr: format!("{}\n", e.render(src)),
        failed: true,
        ..Report::default()
    }
}

fn fmt(args: &CliArgs) -> Result<Report, String> {
    let src = source(args)?;
    Ok(match parse_program(&src) {
        Ok(ast) => Report {
            stdout: pretty::program(&ast),
            ..Report::default()
        },
        Err(e) => rejected(&src, &e),
    })
}

fn info(args: &CliArgs) -> Result<Report, String> {
    let src = source(args)?;
    let prog = match compile_front(&src) {
        Ok(p) => p,
        Err(e) => return Ok(rejected(&src, &e)),
    };
    let mut out = String::new();
    outln!(out, "lines:          {}", count_lines(&src));
    outln!(out, "globals:        {}", prog.globals.len());
    outln!(out, "functions:      {}", prog.funs.len());
    outln!(
        out,
        "exceptions:     {} (incl. predeclared)",
        prog.exns.len()
    );
    outln!(out, "protocol state: {}", prog.proto_ty);
    outln!(out, "channels:");
    for ch in &prog.channels {
        outln!(
            out,
            "  {}#{}  packet {}  state {}",
            ch.name,
            ch.overload,
            ch.pkt_ty,
            ch.ss_ty
        );
    }
    Ok(Report {
        stdout: out,
        ..Report::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asp(name: &str) -> String {
        format!("{}/../../asps/{name}.planp", env!("CARGO_MANIFEST_DIR"))
    }

    fn run(sub: &Sub, path: String) -> Report {
        (sub.run)(&sub.cli.parse_from(&[path]).unwrap()).unwrap()
    }

    #[test]
    fn info_prints_the_summary_the_old_compiler_driver_printed() {
        let r = run(&INFO, asp("forwarder"));
        assert!(!r.failed && r.stderr.is_empty());
        assert_eq!(
            r.stdout,
            "\
lines:          2
globals:        0
functions:      0
exceptions:     5 (incl. predeclared)
protocol state: int
channels:
  network#0  packet ip*udp*blob  state unit
"
        );
    }

    /// The `{:?}` of an AST with every `Span { .. }` cut out.
    fn without_spans(ast: &planp_lang::Program) -> String {
        let dbg = format!("{ast:?}");
        let mut out = String::new();
        let mut rest = dbg.as_str();
        while let Some(i) = rest.find("Span {") {
            out.push_str(&rest[..i]);
            rest = &rest[i + rest[i..].find('}').unwrap() + 1..];
        }
        out + rest
    }

    #[test]
    fn fmt_output_reparses_to_the_same_ast() {
        let r = run(&FMT, asp("http_gateway"));
        assert!(!r.failed);
        let before = parse_program(&std::fs::read_to_string(asp("http_gateway")).unwrap()).unwrap();
        let after = parse_program(&r.stdout).unwrap();
        assert_eq!(without_spans(&before), without_spans(&after));
    }

    #[test]
    fn a_file_the_front_end_rejects_fails_with_its_error_on_stderr() {
        let r = run(&INFO, "Cargo.toml".to_string());
        assert!(r.failed && r.stdout.is_empty() && !r.stderr.is_empty());
        assert!(source(&INFO.cli.parse_from(&[]).unwrap()).is_err());
    }
}
