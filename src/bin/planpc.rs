//! `planpc` — the PLAN-P compiler/verifier driver.
//!
//! ```text
//! planpc check <file.planp> [--policy strict|no-delivery|authenticated]
//!                           [--max-steps N] [--state]
//!                           [--lint] [--json] [--witness-json]
//! planpc fmt   <file.planp>        # pretty-print to stdout
//! planpc info  <file.planp>        # channels, state types, line counts
//! planpc bench <file.planp>        # code generation + verification time
//! planpc run   <file.planp>        # install on a simulated router, blast traffic
//! ```
//!
//! `check --lint` renders every diagnostic (lint warnings included) with
//! a source snippet; `check --json` emits the report in the byte-stable
//! machine form; `check --max-steps N` adds a per-packet step budget to
//! the policy; `check --state` additionally requires every table's
//! growth to be statically bounded (rejecting unbounded state with
//! `E009`); `check --witness-json` prints the model checker's
//! counterexample witnesses as one byte-stable JSON array. Exit status:
//! 0 on success/accepted, 1 on rejection or error — so `planpc check`
//! works as a CI gate — and 2 on a `--flag` it does not know, so that a
//! typo never runs a different check than the one asked for.

use planp::analysis::{verify, Policy};
use planp::lang::{self, count_lines};
use planp::vm::jit;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

const FLAGS: [&str; 6] = [
    "--policy",
    "--max-steps",
    "--state",
    "--lint",
    "--json",
    "--witness-json",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: planpc <check|fmt|info|bench|run> <file.planp> \
         [--policy strict|no-delivery|authenticated] [--max-steps N] \
         [--state] [--lint] [--json] [--witness-json]"
    );
    ExitCode::FAILURE
}

fn parse_policy(args: &[String]) -> Result<Policy, String> {
    let mut policy = match args.iter().position(|a| a == "--policy") {
        None => Policy::strict(),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("strict") => Policy::strict(),
            Some("no-delivery") => Policy::no_delivery(),
            Some("authenticated") => Policy::authenticated(),
            other => return Err(format!("unknown policy {other:?}")),
        },
    };
    if let Some(i) = args.iter().position(|a| a == "--max-steps") {
        let v = args
            .get(i + 1)
            .ok_or_else(|| "--max-steps needs a value".to_string())?;
        let n: u64 = v.parse().map_err(|_| format!("bad step budget {v:?}"))?;
        policy = policy.with_step_budget(n);
    }
    if args.iter().any(|a| a == "--state") {
        policy = policy.with_bounded_state();
    }
    Ok(policy)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &&String| !a.starts_with("--") || FLAGS.contains(&a.as_str());
    if let Some(flag) = args.iter().find(|a| !known(a)) {
        eprintln!("planpc: unknown option {flag}");
        usage();
        return ExitCode::from(2);
    }
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("planpc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let policy = match parse_policy(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planpc: {e}");
            return usage();
        }
    };

    match cmd.as_str() {
        "check" => {
            let lint = args.iter().any(|a| a == "--lint");
            let json = args.iter().any(|a| a == "--json");
            let prog = match lang::compile_front(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}", e.render(&src));
                    return ExitCode::FAILURE;
                }
            };
            let report = verify(&prog, policy);
            if args.iter().any(|a| a == "--witness-json") {
                let mut out = String::from("[");
                let witnesses = report.exhaustive.iter().flat_map(|mc| &mc.witnesses);
                for (i, w) in witnesses.enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    w.write_json(&src, &mut out);
                }
                out.push(']');
                println!("{out}");
            } else if json {
                let mut out = String::new();
                report.write_json(&src, &mut out);
                println!("{out}");
            } else {
                println!("{report}");
                if lint {
                    for d in &report.diagnostics {
                        println!("{}", d.render(&src));
                    }
                } else {
                    for err in report.errors() {
                        println!("  {}", err.render(&src));
                    }
                }
            }
            if report.accepted() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "fmt" => match lang::parse_program(&src) {
            Ok(ast) => {
                print!("{}", lang::pretty::program(&ast));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}", e.render(&src));
                ExitCode::FAILURE
            }
        },
        "info" => {
            let prog = match lang::compile_front(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}", e.render(&src));
                    return ExitCode::FAILURE;
                }
            };
            println!("lines:          {}", count_lines(&src));
            println!("globals:        {}", prog.globals.len());
            println!("functions:      {}", prog.funs.len());
            println!("exceptions:     {} (incl. predeclared)", prog.exns.len());
            println!("protocol state: {}", prog.proto_ty);
            println!("channels:");
            for ch in &prog.channels {
                println!(
                    "  {}#{}  packet {}  state {}",
                    ch.name, ch.overload, ch.pkt_ty, ch.ss_ty
                );
            }
            ExitCode::SUCCESS
        }
        "run" => {
            use bytes::Bytes;
            use planp::netsim::packet::{addr, Packet};
            use planp::netsim::{App, LinkSpec, NodeApi, Sim, SimTime};
            use planp::runtime::{install_planp, load, LayerConfig};

            let image = match load(&src, policy) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut sim = Sim::new(1);
            let a = sim.add_host("a", addr(10, 0, 0, 1));
            let r = sim.add_router("router", addr(10, 0, 0, 254));
            let b = sim.add_host("b", addr(10, 0, 1, 1));
            sim.add_link(LinkSpec::ethernet_10(), &[a, r]);
            sim.add_link(LinkSpec::ethernet_10(), &[r, b]);
            sim.compute_routes();
            let handle = match install_planp(&mut sim, r, &image, LayerConfig::default()) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("planpc: install failed: {e}");
                    return ExitCode::FAILURE;
                }
            };

            /// Sends a mixed burst of UDP and TCP-shaped packets.
            struct Burst {
                dst: u32,
            }
            impl App for Burst {
                fn on_start(&mut self, api: &mut NodeApi<'_>) {
                    for i in 0..10u8 {
                        api.send(Packet::udp(
                            api.addr(),
                            self.dst,
                            1000,
                            2000 + i as u16,
                            Bytes::from(vec![i; 64]),
                        ));
                        api.send(Packet::tcp(
                            api.addr(),
                            self.dst,
                            planp::netsim::packet::TcpHdr::data(3000 + i as u16, 80, 1),
                            Bytes::from_static(b"GET /doc/1\n"),
                        ));
                    }
                }
                fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
            }
            sim.add_app(
                a,
                Box::new(Burst {
                    dst: addr(10, 0, 1, 1),
                }),
            );
            sim.run_until(SimTime::from_secs(2));

            let stats = handle.stats.borrow();
            println!("topology: a (10.0.0.1) — router — b (10.0.1.1); 20 packets sent");
            println!(
                "router:   {} matched, {} passed, {} errors",
                stats.matched, stats.passed, stats.errors
            );
            println!(
                "b:        {} delivered, {} dropped",
                sim.node(b).delivered,
                sim.node(b).dropped
            );
            let output = handle.output.borrow();
            if !output.is_empty() {
                println!("program output:\n{output}");
            }
            ExitCode::SUCCESS
        }
        "bench" => {
            let prog = match lang::compile_front(&src) {
                Ok(p) => Rc::new(p),
                Err(e) => {
                    eprintln!("{}", e.render(&src));
                    return ExitCode::FAILURE;
                }
            };
            let mut codegen: Vec<f64> = (0..51)
                .map(|_| {
                    let t = Instant::now();
                    let (c, _) = jit::compile(prog.clone());
                    let dt = t.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(c.channels.len());
                    dt
                })
                .collect();
            codegen.sort_by(f64::total_cmp);
            let mut ver: Vec<f64> = (0..51)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(verify(&prog, Policy::authenticated()).accepted());
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            ver.sort_by(f64::total_cmp);
            println!("lines:    {}", count_lines(&src));
            println!("codegen:  {:.1} us (median of 51)", codegen[25]);
            println!("verify:   {:.1} us (median of 51)", ver[25]);
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
