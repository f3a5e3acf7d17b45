//! Nothing on the download path panics (ROADMAP item 2): every corpus
//! ASP and every bundled plan, byte-mutated from a seed, goes through
//! `compile_front`, `load` under each named policy, `parse_plan` and
//! `load_plan`, and every outcome is an `Ok` or an `Err`.
//!
//! The front end's verdict on the first [`PINNED`] mutants of each text
//! — accepted, or the phase, message and span of the rejection — is
//! also folded into one digest, [`FRONT_DIGEST`], computed at commit
//! 1d322cc before the lexer's tokens borrowed from the source: no
//! message and no span moved with them. One message is left out of it,
//! the lexer's "unexpected character" for a byte outside ASCII, which
//! that commit misreported (see `lexer::tests`) and which is fixed
//! since; such a rejection is hashed as its position alone.

use planp::analysis::Policy;
use planp::apps::corpus::CORPUS;
use planp::apps::plans::{bundled_plans, resolve_asp, RELAY_PAIR_PLAN};
use planp::lang::{compile_front, parse_plan, LangError};
use planp::netsim::digest::Fnv;
use planp::netsim::rng::SplitMix64;
use planp::runtime::{load, load_plan};
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants of each text whose front-end verdict is in the digest.
const PINNED: u64 = 400;
/// Mutants of each text: ten times the seeds in an optimized build.
const MUTANTS: u64 = if cfg!(debug_assertions) {
    PINNED
} else {
    10 * PINNED
};
/// FNV-1a over the front-end verdicts, as computed at commit 1d322cc.
const FRONT_DIGEST: u64 = 0xcedb_21f5_9a8a_49b2;

const POLICIES: [fn() -> Policy; 3] = [Policy::strict, Policy::no_delivery, Policy::authenticated];

/// Feeds the front end's verdict on `src` into `h`.
fn verdict<T>(h: &mut Fnv, src: &str, r: &Result<T, LangError>) {
    match r {
        Ok(_) => h.write(b"ok;"),
        Err(e) => {
            let stray = e.message.starts_with("unexpected character")
                && src
                    .as_bytes()
                    .get(e.span.start as usize)
                    .is_some_and(|&b| b >= 0x80);
            if stray {
                h.write(format!("stray@{};", e.span.start).as_bytes());
            } else {
                h.write(
                    format!(
                        "{}:{}@{}..{};",
                        e.phase, e.message, e.span.start, e.span.end
                    )
                    .as_bytes(),
                );
            }
        }
    }
}

/// One to three edits of `text` — flip, insert, delete, splice from
/// `donor`, truncate — read back as lossy UTF-8, so bytes outside ASCII
/// arrive both as valid characters and as U+FFFD.
fn mutant(rng: &mut SplitMix64, text: &str, donor: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        match rng.next_below(5) {
            0 if at < bytes.len() => bytes[at] = rng.next_below(256) as u8,
            1 => bytes.insert(at, rng.next_below(256) as u8),
            2 if at < bytes.len() => {
                let n = 1 + rng.next_below(8) as usize;
                bytes.drain(at..(at + n).min(bytes.len()));
            }
            3 => {
                let d = donor.as_bytes();
                let from = rng.next_below(d.len() as u64) as usize;
                let n = 1 + rng.next_below(40) as usize;
                let piece = d[from..(from + n).min(d.len())].to_vec();
                bytes.splice(at..at, piece);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Everything the network can hand the download path, given `src`.
fn download(src: &str, digest: Option<&mut Fnv>) {
    let front = compile_front(src);
    let plan = parse_plan(src);
    if let Some(d) = digest {
        verdict(d, src, &front);
        verdict(d, src, &plan);
    }
    for policy in POLICIES {
        let _ = load(src, policy());
    }
    let _ = load_plan(src, &resolve_asp);
    // The text as the program a plan deploys.
    let _ = load_plan(RELAY_PAIR_PLAN, &|_| {
        Some((src.to_string(), Policy::authenticated()))
    });
}

#[test]
fn no_mutant_of_a_bundled_text_panics_the_download_path() {
    let mut texts: Vec<(&str, &str)> = CORPUS.iter().map(|a| (a.path, a.src)).collect();
    texts.extend(bundled_plans());
    assert_eq!(texts.len(), 25 + 7, "16 clean + 9 buggy ASPs, 7 plans");

    let mut digest = Fnv::default();
    for (ti, &(name, text)) in texts.iter().enumerate() {
        download(text, None);
        for m in 0..MUTANTS {
            let seed = 0xD0_0000 + ((ti as u64) << 16) + m;
            let mut rng = SplitMix64::new(seed);
            let donor = texts[rng.next_below(texts.len() as u64) as usize].1;
            let src = mutant(&mut rng, text, donor);
            let pinned = (m < PINNED).then_some(&mut digest);
            if catch_unwind(AssertUnwindSafe(|| download(&src, pinned))).is_err() {
                panic!("{name}: mutant of seed {seed:#x} panicked the download path:\n{src}");
            }
        }
    }
    let digest = digest.finish();
    assert_eq!(
        digest, FRONT_DIGEST,
        "a front-end message or span moved: {digest:#018x}"
    );
}
